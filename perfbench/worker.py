"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--traced]

Runs the workload's set-up several times, then each build and its property
checks once, and prints one JSON object: timings, counts, failures, export
digests, peak memory and, when traced, the per-layer totals.  `run.py`
starts one worker per timed run, so garbage collection and peak memory
belong to that run alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rmas import install_institutional, parse_spec  # noqa: E402
from rmas.builder import BuildConfig, build_transition_system, export_jsonl  # noqa: E402
from rmas.generators import async_to_sync  # noqa: E402
from rmas.mucalc import flatten_property, model_check, parse_property  # noqa: E402
from rmas.shallow import compile_shallow  # noqa: E402
from rmas.wellformed import check_well_formed  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up takes milliseconds, so one run repeats it and keeps the median.
SETUP_REPEATS = 15
SETUP_PHASES = ("dsl.parse_s", "wellformed.check_s", "generators.async_s",
                "shallow.compile_s", "mucalc.parse_s")


# Host speed on a shared machine swings by up to 2x within seconds and for
# minutes at a time, which no number of repeats removes.  So every timed
# segment (set-up, each build, each build's checks) is also reported scaled
# to a host on which a fixed reference kernel takes REFERENCE_S, with the
# kernel timed right before and right after the segment.
REFERENCE_S = 0.1


class SetupError(Exception):
    pass


@dataclass(frozen=True)
class _Obj:
    type_name: str
    value: int


def reference_kernel() -> int:
    """Fixed pure-Python work that runs no rmas code: hashing frozen
    dataclasses and tuples, sets, dicts and a keyed sort, as the builder does.
    Its working set is small, so it never raises the worker's peak memory."""
    acc = 0
    for _ in range(80):
        objs = [_Obj("T", i % 61) for i in range(600)]
        facts = {("R", (a, b)) for a, b in zip(objs, objs[7:])}
        index: dict[_Obj, list] = {}
        for _, args in facts:
            index.setdefault(args[0], []).append(args)
        acc += sum(1 for k in index if k.value % 3 == 0)
        acc += len(sorted(facts, key=lambda f: (f[1][0].value, f[1][1].value)))
    return acc


class HostSpeed:
    """The reference-kernel times of one worker, in the order they were taken."""

    def __init__(self) -> None:
        self.samples = [self._time_kernel()]

    @staticmethod
    def _time_kernel() -> float:
        gc.disable()  # the kernel must not pay for collecting the program's heap
        try:
            t0 = time.perf_counter()
            reference_kernel()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def scale(self, wall_s: float) -> float:
        """Scale the segment that just ended by the kernel timed around it."""
        self.samples.append(self._time_kernel())
        return wall_s * 2 * REFERENCE_S / (self.samples[-2] + self.samples[-1])


def set_up(job):
    """The pipeline before the build, as the CLI runs it; pure, so repeatable."""
    t = {p: 0.0 for p in SETUP_PHASES}
    work = 0
    clock = time.perf_counter
    t0 = clock()
    spec = install_institutional(parse_spec(job.spec_text))
    t1 = clock()
    t["dsl.parse_s"] += t1 - t0

    def well_formed(s):
        nonlocal work
        t0 = clock()
        report = check_well_formed(s)
        t["wellformed.check_s"] += clock() - t0
        work += report.work
        if not report.ok:
            raise SetupError(f"{job.name}: {len(report.findings)} well-formedness findings")

    well_formed(spec)
    if job.async_mode:
        t0 = clock()
        spec = async_to_sync(spec, job.async_mode)
        t["generators.async_s"] += clock() - t0
        well_formed(spec)
    config = BuildConfig(mode=job.mode, max_states=job.max_states)
    t0 = clock()
    spec = compile_shallow(spec)
    t1 = clock()
    t["shallow.compile_s"] += t1 - t0
    props = {}
    for name, text in job.props.items():
        p = parse_property(text, spec)
        props[name] = flatten_property(p) if config.flat else p
    t["mucalc.parse_s"] += clock() - t1
    return (spec, config, props), t, work


def run(workload: str, seed: int, traced: bool) -> dict:
    jobs = WORKLOADS[workload](seed)
    out = {"states": 0, "attempted": 0, "failed": 0, "failures": [], "digests": [],
           "iterations": 0, "build_s": 0.0, "check_s": 0.0,
           "wall": {"setup_s": 0.0, "build_s": 0.0, "check_s": 0.0}}
    wall = out["wall"]

    def fail(msg, ops=1):
        out["failed"] += ops
        out["failures"].append(msg)

    host = HostSpeed()
    reps = []
    for _ in range(SETUP_REPEATS):
        reps.append([set_up(job) for job in jobs])
    wall["setup_s"] = statistics.median(sum(sum(t.values()) for _, t, _ in rep) for rep in reps)
    out["setup_s"] = host.scale(wall["setup_s"])
    out["phases"] = {p: statistics.median(sum(t[p] for _, t, _ in rep) for rep in reps)
                     for p in SETUP_PHASES}
    out["phases"]["wellformed.work"] = sum(w for _, _, w in reps[-1])
    prepared = [r for r, _, _ in reps[-1]]
    del reps
    gc.collect()

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else (lambda name: nullcontext())
    checks = 0
    for job, (spec, config, props) in zip(jobs, prepared):
        out["attempted"] += 1 + len(props)
        t0 = time.perf_counter()
        try:
            with span("builder.build"):
                ts = build_transition_system(spec, config)
        except Exception as e:  # a raising build is a failed operation
            fail(f"{job.name}: build raised {type(e).__name__}: {e}", 1 + len(props))
            continue
        took = time.perf_counter() - t0
        wall["build_s"] += took
        out["build_s"] += host.scale(took)
        got = (len(ts.states), len(ts.edges), ts.truncated)
        want = (job.states, job.edges, job.max_states is not None)
        out["states"] += len(ts.states)
        if got != want:
            fail(f"{job.name}: states, edges, truncated {got} != {want}")
        took = 0.0
        for name, prop in props.items():
            t0 = time.perf_counter()
            try:
                with span("mucalc.check"):
                    verdict = model_check(ts, spec, prop)
            except Exception as e:  # a raising check is a failed operation
                fail(f"{job.name}/{name}: check raised {type(e).__name__}: {e}")
                continue
            finally:
                took += time.perf_counter() - t0
                checks += 1
            out["iterations"] += verdict.iterations
            if verdict.truth != job.verdicts[name]:
                fail(f"{job.name}/{name}: verdict {verdict.truth} != {job.verdicts[name]}")
        if props:
            wall["check_s"] += took
            out["check_s"] += host.scale(took)
        out["digests"].append(hashlib.sha256(export_jsonl(ts)).hexdigest())
        del ts
        gc.collect()

    out["verify_s"] = out["setup_s"] + out["build_s"] + out["check_s"]
    wall["verify_s"] = wall["setup_s"] + wall["build_s"] + wall["check_s"]
    out["reference_s"] = statistics.median(host.samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["layers"] = tracer.layers()
        problems = tracer.self_test(out["states"], checks)
        if problems:
            fail("; ".join(problems), 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
