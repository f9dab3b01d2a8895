"""Time-to-verdict benchmark for rmas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-threaded closed loop: one worker process at a time runs the whole
pipeline of the workload (set-up, builds, property checks) and exits; the
next starts only after it.  Workers keep starting while another one is
expected to finish within S seconds, and at least one always runs.  Every
worker's verdicts, state and edge counts are checked against the workload's
expected values and its export digests against the other workers' of the
same seed.  The last line of standard output is a JSON object with the
medians of the end-to-end metrics (`--trace 0`) or of the per-layer metrics
of traced workers (`--trace 1`, where untraced workers alternate with traced
ones to measure the tracing overhead).  See README.md in this directory for
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# A run must end within 180 s; leave room to report.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "states_per_s": "states/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dsl.parse_s": "s",
    "wellformed.check_s": "s",
    "wellformed.work": "count",
    "generators.async_s": "s",
    "shallow.compile_s": "s",
    "mucalc.parse_s": "s",
    "builder.step_s": "s",
    "builder.step_self_s": "s",
    "builder.steps": "count",
    "builder.enabled_s": "s",
    "builder.messages": "count",
    "builder.reactions_s": "s",
    "builder.facts_s": "s",
    "builder.accept_s": "s",
    "builder.accept_evals": "count",
    "builder.accept_pass_share": "ratio",
    "builder.state_key_s": "s",
    "builder.successors": "count",
    "builder.dedup_hit_share": "ratio",
    "queries.eval_s": "s",
    "queries.evals": "count",
    "queries.answers_per_eval": "answers/eval",
    "commitments.enum_s": "s",
    "commitments.enumerated": "count",
    "commitments.assign_s": "s",
    "commitments.branches": "count",
    "mucalc.check_s": "s",
    "mucalc.init_s": "s",
    "mucalc.iterations": "count",
    "mucalc.ext_pairs": "count",
    "mucalc.atom_s": "s",
    "mucalc.bool_s": "s",
    "mucalc.quant_s": "s",
    "mucalc.modal_s": "s",
    "mucalc.fixpoint_s": "s",
    "trace.overhead_s": "s",
    "wall.verify_s": "s",
    "host.reference_s": "s",
}
# per-layer metrics taken from untraced workers or from all workers
RUN_LEVEL = ("trace.overhead_s", "wall.verify_s", "host.reference_s")


def preflight() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    src = ROOT / "src" / "rmas" / "__init__.py"
    if not src.is_file():
        raise SystemExit(f"error: {src} not found; run from a checkout of the repository")
    import rmas

    if Path(rmas.__file__).resolve() != src.resolve():
        raise SystemExit(f"error: imported rmas from {rmas.__file__}, not {src}")


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--traced"] if traced else [])
    env = {k: v for k, v in os.environ.items() if k != "RMAS_THREADS"}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker timed out after {timeout:.0f} s"}, time.monotonic() - t0
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"crashed": f"worker exited with {proc.returncode}"}, elapsed
    return json.loads(lines[-1]), elapsed


def layer(r: dict, name: str) -> float:
    """One per-layer metric of one traced worker's result."""
    if name == "mucalc.iterations":
        return r["iterations"]
    if name in r["phases"]:
        return r["phases"][name]
    return r["layers"][name]


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="time-to-verdict benchmark for rmas")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    preflight()
    jobs = WORKLOADS[args.workload](args.seed)
    ops = sum(1 + len(j.props) for j in jobs)

    start = time.monotonic()
    kinds = [False, True] if args.trace else [False]
    results: dict[bool, list[dict]] = {k: [] for k in kinds}
    last_s: dict[bool, float] = {}
    attempted = failed = 0
    failures: list[str] = []
    digests = None
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        elapsed = time.monotonic() - start
        if i >= len(kinds) and elapsed + last_s[traced] > args.seconds:
            break
        r, took = run_worker(args.workload, args.seed, traced, HARD_LIMIT_S - elapsed)
        last_s[traced] = took
        i += 1
        if "crashed" in r:
            attempted += ops
            failed += ops
            failures.append(r["crashed"])
            break
        attempted += r["attempted"]
        failed += r["failed"]
        failures += r["failures"]
        if digests is None:
            digests = r["digests"]
        elif r["digests"] != digests:
            # same seed, same inputs: the exported systems must be identical
            bad = sum(a != b for a, b in zip(r["digests"], digests))
            failed += bad or 1
            failures.append("export digest differs from the first worker's")
        results[traced].append(r)

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    untraced = results[False]
    if args.trace:
        traced_rs = results[True]
        values = {name: statistics.median(layer(r, name) for r in traced_rs)
                  if traced_rs else 0.0
                  for name in PER_LAYER if name not in RUN_LEVEL}
        values["trace.overhead_s"] = (
            med(traced_rs, "verify_s") - med(untraced, "verify_s")
            if traced_rs and untraced else 0.0)
        values["wall.verify_s"] = (
            statistics.median(r["wall"]["verify_s"] for r in untraced) if untraced else 0.0)
        values["host.reference_s"] = (
            med(untraced + traced_rs, "reference_s") if untraced + traced_rs else 0.0)
        units = PER_LAYER
    else:
        for r in untraced:
            r["states_per_s"] = r["states"] / r["build_s"] if r["build_s"] else 0.0
        values = {name: med(untraced, name) if untraced else 0.0 for name in END_TO_END}
        units = END_TO_END

    n = {k: len(v) for k, v in results.items()}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{n[False]} untraced worker(s)" + (f", {n[True]} traced" if args.trace else "")
          + f", medians; {time.monotonic() - start:.1f} s")
    for traced, rs in results.items():
        for r in rs:
            w = r["wall"]
            print(f"  {'traced' if traced else 'untraced':8s} worker: "
                  f"setup {r['setup_s']:.4f} s, build {r['build_s']:.3f} s, "
                  f"check {r['check_s']:.3f} s, verify {r['verify_s']:.3f} s; wall "
                  f"{w['setup_s']:.4f}, {w['build_s']:.3f}, {w['check_s']:.3f}, "
                  f"{w['verify_s']:.3f} s; reference kernel {r['reference_s']:.4f} s")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:14.6g} {unit}")
    print(f"  {'error_rate':28s} {failed / attempted if attempted else 1.0:14.6g} "
          f"({failed} failed of {attempted} operations)")
    for f in failures:
        print(f"  FAILED: {f}")
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
