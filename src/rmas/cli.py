"""Command-line driver: check, compile, build, verify, gen-cm, async2sync.

`verify SPEC PROP [PROP ...]` parses every property before it builds, builds
once and checks the properties in argument order.  With one property the
result holds its `verdict` and `iterations`; with more, `verdicts` maps each
property's path to its `{verdict, iterations}`, and the run exits 10 if any
property is false.

Every run emits a reproducible report (input digests, effective config,
result); exit codes are a total function of the outcome:

    0  success / property holds        5  successor relation rejected
    1  usage error                     6  well-formedness findings
    2  parse or resolution failure,    7  engine error (order, reservoir,
       input nested too deeply            build), out of memory, or nesting
                                          too deep for a build or check
    3  exploration truncated          10  property violated
    4  state bound exceeded
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from typing import Optional

from .data import DataObject, INTEGER, RATIONAL, mk_integer, mk_rational
from .dsl import ParseError, parse_spec, serialize_spec
from .builder import (
    BuildConfig,
    BuildError,
    ConfigError,
    MODE_CONCRETE,
    MODES,
    StateBoundExceeded,
    SuccRejected,
    TransitionSystem,
    build_transition_system,
    export,
    jsonl_lines,
)
from .generators import (
    ASYNC_DISORDERED,
    ASYNC_ORDERED,
    GeneratorError,
    async_to_sync,
    counter_machine_to_rmas,
    parse_counter_program,
)
from .commitments import CommitmentError
from .model import RmasSpec, install_institutional
from .mucalc import PropError, model_check, parse_property
from .queries import MissingOrderFacts
from .shallow import compile_shallow, is_shallow
from .wellformed import check_well_formed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TRUNCATED = 3
EXIT_BOUND = 4
EXIT_SUCC = 5
EXIT_FINDINGS = 6
EXIT_ENGINE = 7
EXIT_FALSE = 10


class CliError(Exception):
    def __init__(self, msg: str, code: int) -> None:
        super().__init__(msg)
        self.code = code


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_USAGE)


def _read(path: str) -> str:
    """The file's text; a file that cannot be opened or is not UTF-8 is a
    usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_USAGE)


class Report:
    def __init__(self, command: str) -> None:
        self.data = {
            "command": command,
            "inputs": {},
            "config": {},
            "result": {},
            "exit": EXIT_OK,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.data, sort_keys=True, indent=2) + "\n"
        lines = [f"command: {self.data['command']}"]
        for p, d in sorted(self.data["inputs"].items()):
            lines.append(f"input: {p} sha256={d}")
        for k, v in sorted(self.data["config"].items()):
            lines.append(f"config: {k}={v}")
        for k, v in sorted(self.data["result"].items()):
            if isinstance(v, list):
                for item in v:
                    lines.append(f"{k}: {item}")
            elif isinstance(v, dict):
                for name, fields in sorted(v.items()):
                    lines.append(f"{k}: {name} " + " ".join(
                        f"{f}={x}" for f, x in sorted(fields.items())))
            else:
                lines.append(f"{k}: {v}")
        lines.append(f"exit: {self.data['exit']}")
        return "\n".join(lines) + "\n"


def _parse_pools(spec: RmasSpec, entries: list[str]) -> dict[str, tuple[DataObject, ...]]:
    pools: dict[str, tuple[DataObject, ...]] = {}
    for entry in entries:
        if "=" not in entry:
            raise CliError(f"--pool wants TYPE=v1,v2,..., got {entry!r}", EXIT_USAGE)
        tname, raw = entry.split("=", 1)
        tdef = spec.types.get(tname)
        if tdef is None:
            raise CliError(f"--pool names unknown type {tname!r}", EXIT_USAGE)
        values = []
        for piece in raw.split(","):
            piece = piece.strip().strip('"')
            if not piece:
                continue
            try:
                if tdef.carrier == RATIONAL:
                    values.append(mk_rational(tname, Fraction(piece)))
                elif tdef.carrier == INTEGER:
                    values.append(mk_integer(tname, int(piece)))
                else:
                    values.append(DataObject(tname, piece))
            except (ValueError, ZeroDivisionError):
                raise CliError(f"bad pool value {piece!r} for type {tname}", EXIT_USAGE)
        pools[tname] = tuple(values)
    return pools


NESTED_TOO_DEEPLY = "input nested too deeply"


def _out_of_resources(e: Exception) -> CliError:
    """Exit 7 for a build or check that ran out of stack or memory."""
    why = NESTED_TOO_DEEPLY if isinstance(e, RecursionError) else "out of memory"
    return CliError(f"{type(e).__name__}: {why}", EXIT_ENGINE)


def _load_spec(path: str) -> RmasSpec:
    text = _read(path)
    try:
        return install_institutional(parse_spec(text))
    except ParseError as e:
        raise CliError(f"{path}: {e}", EXIT_PARSE)
    except RecursionError:
        raise CliError(f"{path}: {NESTED_TOO_DEEPLY}", EXIT_PARSE) from None


# the exploration caps, each a flag and a config-file key of the same name
CAPS = ("state_bound", "max_states", "max_depth")
CONFIG_KEYS = {"mode", "pools", *CAPS}


def _build_config(args, spec: RmasSpec) -> BuildConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(_read(args.config))
        except json.JSONDecodeError as e:
            raise CliError(f"bad config file: {e}", EXIT_USAGE)
        _check_config(file_cfg)
    mode = args.mode or file_cfg.get("mode") or MODE_CONCRETE
    if mode not in MODES:
        raise CliError(f"unknown mode {mode!r}", EXIT_USAGE)
    pool_entries = list(file_cfg.get("pools", []))
    pool_entries += args.pool or []

    caps = {}
    for key in CAPS:
        flag = getattr(args, key)
        caps[key] = flag if flag is not None else file_cfg.get(key)
        if caps[key] is not None and caps[key] < 0:
            raise CliError(f"{key} must not be negative, got {caps[key]}", EXIT_USAGE)
    return BuildConfig(mode=mode, pools=_parse_pools(spec, pool_entries), **caps)


def _check_config(cfg) -> None:
    """Refuse a config file that is not an object of the known keys and
    their types."""
    if not isinstance(cfg, dict):
        why = "the top level must be an object"
    elif set(cfg) - CONFIG_KEYS:
        why = f"unknown key {min(set(cfg) - CONFIG_KEYS)!r}"
    elif not isinstance(cfg.get("mode", ""), str):
        why = "mode must be a string"
    elif any(not (cfg.get(k) is None or type(cfg[k]) is int) for k in CAPS):
        why = "state_bound, max_states and max_depth must each be an integer or null"
    elif not (isinstance(cfg.get("pools", []), list)
              and all(isinstance(e, str) for e in cfg.get("pools", []))):
        why = "pools must be a list of strings"
    else:
        return
    raise CliError(f"bad config file: {why}", EXIT_USAGE)


def _echo_config(report: Report, config: BuildConfig) -> None:
    report.data["config"] = {
        "mode": config.mode,
        "state_bound": config.state_bound,
        "max_states": config.max_states,
        "max_depth": config.max_depth,
        "pools": {
            t: [str(o.value) for o in vs] for t, vs in sorted(config.pools.items())
        },
    }


def _spec_to_build(spec: RmasSpec, config: BuildConfig) -> RmasSpec:
    """spec with its facets compiled away when the mode needs a shallow
    spec and it is not one; else spec itself."""
    if config.mode != MODE_CONCRETE and not is_shallow(spec):
        return compile_shallow(spec)
    return spec


def _build(spec: RmasSpec, config: BuildConfig, report: Report) -> TransitionSystem:
    """Build and report the stats; every build failure becomes a CliError
    with its exit code."""
    try:
        ts = build_transition_system(spec, config)
    except StateBoundExceeded as e:
        raise CliError(str(e), EXIT_BOUND)
    except SuccRejected as e:
        raise CliError(str(e), EXIT_SUCC)
    except ConfigError as e:
        raise CliError(str(e), EXIT_USAGE)
    except (BuildError, CommitmentError, MissingOrderFacts) as e:
        raise CliError(f"{type(e).__name__}: {e}", EXIT_ENGINE)
    except (RecursionError, MemoryError) as e:
        raise _out_of_resources(e) from None
    report.data["result"].update(ts.stats)
    report.data["result"]["truncated"] = ts.truncated
    return ts


def _require_clean(spec: RmasSpec, report: Report) -> None:
    wf = check_well_formed(spec)
    if not wf.ok:
        report.data["result"]["findings"] = [str(f) for f in wf.findings]
        raise CliError(f"{len(wf.findings)} well-formedness findings", EXIT_FINDINGS)


def _write_out(path: Optional[str], chunks) -> None:
    """Write the byte chunks to path, or to stdout without one; a path that
    cannot be written is a usage error."""
    if not path:
        sys.stdout.buffer.writelines(chunks)
        return
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EXIT_USAGE)


# -- subcommands ----------------------------------------------------------------


def cmd_check(args, report: Report) -> int:
    spec = _load_spec(args.spec)
    wf = check_well_formed(spec)
    report.data["result"]["findings"] = [str(f) for f in wf.findings]
    report.data["result"]["work"] = wf.work
    return EXIT_OK if wf.ok else EXIT_FINDINGS


def cmd_compile(args, report: Report) -> int:
    spec = _load_spec(args.spec)
    _require_clean(spec, report)
    out = compile_shallow(spec)
    report.data["result"]["shallow"] = is_shallow(out)
    _write_out(args.out, [serialize_spec(out).encode()])
    return EXIT_OK


def cmd_build(args, report: Report) -> int:
    spec = _load_spec(args.spec)
    _require_clean(spec, report)
    config = _build_config(args, spec)
    _echo_config(report, config)
    built_spec = _spec_to_build(spec, config)
    if built_spec is not spec:
        report.data["result"]["compiled"] = True
    ts = _build(built_spec, config, report)
    if args.out:
        # a jsonl export is written as it is encoded, a line at a time
        _write_out(args.out, jsonl_lines(ts) if args.format == "jsonl"
                   else [export(ts, args.format)])
    return EXIT_TRUNCATED if ts.truncated else EXIT_OK


def cmd_verify(args, report: Report) -> int:
    spec = _load_spec(args.spec)
    _require_clean(spec, report)
    config = _build_config(args, spec)
    _echo_config(report, config)
    built_spec = _spec_to_build(spec, config)
    props = {}
    for path in args.properties:
        try:
            props[path] = parse_property(_read(path), built_spec)
        except (ParseError, PropError) as e:
            raise CliError(f"{path}: {e}", EXIT_PARSE)
        except RecursionError:
            raise CliError(f"{path}: {NESTED_TOO_DEEPLY}", EXIT_PARSE) from None
    ts = _build(built_spec, config, report)
    if ts.truncated:
        return EXIT_TRUNCATED
    try:
        verdicts = {path: model_check(ts, built_spec, prop) for path, prop in props.items()}
    except (RecursionError, MemoryError) as e:
        raise _out_of_resources(e) from None
    if len(args.properties) == 1:
        (verdict,) = verdicts.values()
        report.data["result"]["verdict"] = verdict.truth
        report.data["result"]["iterations"] = verdict.iterations
    else:
        report.data["result"]["verdicts"] = {
            path: {"verdict": v.truth, "iterations": v.iterations}
            for path, v in verdicts.items()}
    return EXIT_OK if all(v.truth for v in verdicts.values()) else EXIT_FALSE


def cmd_gen_cm(args, report: Report) -> int:
    try:
        prog = parse_counter_program(_read(args.program))
        spec = counter_machine_to_rmas(prog)
    except GeneratorError as e:
        raise CliError(str(e), EXIT_PARSE)
    report.data["result"]["instructions"] = len(prog.instructions)
    _write_out(args.out, [serialize_spec(spec).encode()])
    return EXIT_OK


def cmd_async2sync(args, report: Report) -> int:
    spec = _load_spec(args.spec)
    _require_clean(spec, report)
    try:
        out = async_to_sync(spec, args.async_mode)
    except GeneratorError as e:
        raise CliError(str(e), EXIT_USAGE)
    report.data["result"]["async_mode"] = args.async_mode
    _write_out(args.out, [serialize_spec(out).encode()])
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rmas",
        description="parse, transform, explore, and verify relational multiagent systems",
    )
    ap.add_argument("--report", choices=("json", "text"), default="text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_build_flags(p):
        p.add_argument("--mode", choices=MODES, default=None)
        p.add_argument("--state-bound", dest="state_bound", type=int, default=None)
        p.add_argument("--max-states", dest="max_states", type=int, default=None)
        p.add_argument("--max-depth", dest="max_depth", type=int, default=None)
        p.add_argument("--pool", action="append", metavar="TYPE=v1,v2,...")
        p.add_argument("--config", default=None, help="JSON config file; flags override")

    p = sub.add_parser("check", help="well-formedness check")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile facets away (shallow form)")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("build", help="construct a transition system")
    p.add_argument("spec")
    add_build_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("dot", "jsonl"), default="jsonl")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="model-check properties on one build")
    p.add_argument("spec")
    p.add_argument("properties", nargs="+", metavar="property")
    add_build_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-cm", help="encode a two-counter machine")
    p.add_argument("program")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_cm)

    p = sub.add_parser("async2sync", help="buffer-based asynchronous simulation")
    p.add_argument("spec")
    p.add_argument("--async-mode", dest="async_mode",
                   choices=(ASYNC_ORDERED, ASYNC_DISORDERED), default=ASYNC_DISORDERED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_async2sync)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    inputs = [p for p in (getattr(args, "spec", None), *getattr(args, "properties", ()),
                          getattr(args, "program", None)) if p]
    report = Report(args.cmd)
    try:
        for p in inputs:
            report.data["inputs"][p] = _digest(p)
        code = args.func(args, report)
    except CliError as e:
        report.data["result"]["error"] = str(e)
        code = e.code
    report.data["exit"] = code
    sys.stderr.write(report.render(args.report))
    return code


if __name__ == "__main__":
    sys.exit(main())
