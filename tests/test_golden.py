"""The `rmas check` report and the `rmas compile` output of each corpus spec,
the `rmas async2sync` output (both modes) of the two messaging specs and the
`rmas gen-cm` output of each counter program, byte for byte, and the
`rmas build` report and export digest of each corpus spec in the three modes
that compile facets away, and the `rmas verify` refusal (exit code and report)
of each malformed property under `golden/bad_props/`.  The expected files under `golden/` pin the default
report (the `work:` counter of the well-formedness checker included) and the
serialized specs; a change that alters them has to regenerate them on purpose:

    PYTHONPATH=src python -m rmas.cli check corpus/NAME.rmas 2> tests/golden/NAME.check.txt
    PYTHONPATH=src python -m rmas.cli compile corpus/NAME.rmas > tests/golden/NAME.compile.rmas
    PYTHONPATH=src python -m rmas.cli async2sync corpus/NAME.rmas --async-mode MODE \\
        > tests/golden/NAME.async2sync-MODE.rmas
    PYTHONPATH=src python -m rmas.cli gen-cm corpus/programs/PROG.cm > tests/golden/PROG.gen-cm.rmas
    PYTHONPATH=src python tests/test_golden.py > tests/golden/builds.txt
    PYTHONPATH=src python tests/test_golden.py refusals > tests/golden/verify_refusals.txt
"""

import hashlib
import pathlib

import pytest

from conftest import run_cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
NAMES = ("contract_net", "ping", "registry", "ticket_mutex")
BUILD_MODES = ("fb-commitments", "fb-flat", "abstract-recycle")


@pytest.mark.parametrize("name", NAMES)
def test_check_report(name):
    out = run_cli("check", f"corpus/{name}.rmas")
    assert out.returncode == 0
    assert out.stderr == (GOLDEN / f"{name}.check.txt").read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_compile_output(name):
    out = run_cli("compile", f"corpus/{name}.rmas")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / f"{name}.compile.rmas").read_bytes()


@pytest.mark.parametrize("mode", ("ordered", "disordered"))
@pytest.mark.parametrize("name", ("contract_net", "ping"))
def test_async2sync_output(name, mode):
    out = run_cli("async2sync", f"corpus/{name}.rmas", "--async-mode", mode)
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / f"{name}.async2sync-{mode}.rmas").read_bytes()


@pytest.mark.parametrize("prog", ("halts", "loops"))
def test_gen_cm_output(prog):
    out = run_cli("gen-cm", f"corpus/programs/{prog}.cm")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / f"{prog}.gen-cm.rmas").read_bytes()


def build_runs(out_dir: pathlib.Path) -> bytes:
    """For each corpus spec and mode: the exit code and the export's SHA-256
    of `rmas build --max-states 400 --out`, then the report."""
    text = b""
    for name in NAMES:
        for mode in BUILD_MODES:
            out_path = out_dir / f"{name}.{mode}.jsonl"
            out = run_cli("build", f"corpus/{name}.rmas", "--mode", mode,
                          "--max-states", "400", "--out", str(out_path))
            digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
            text += (f"== {name} {mode}\nexit: {out.returncode}\n"
                     f"export sha256: {digest}\n").encode() + out.stderr
    return text


def test_build_exports(tmp_path):
    assert build_runs(tmp_path) == (GOLDEN / "builds.txt").read_bytes()


def refusal_runs() -> bytes:
    """For each property under `bad_props/`: the exit code and the report of
    `rmas verify corpus/ticket_mutex.rmas PROP --mode abstract-recycle`."""
    text = b""
    for path in sorted((GOLDEN / "bad_props").glob("*.mlp")):
        prop = f"tests/golden/bad_props/{path.name}"
        out = run_cli("verify", "corpus/ticket_mutex.rmas", prop, "--mode", "abstract-recycle")
        text += f"== {path.stem}\nexit: {out.returncode}\n".encode() + out.stderr
    return text


def test_verify_refusals():
    text = refusal_runs()
    assert text == (GOLDEN / "verify_refusals.txt").read_bytes()
    # each property is refused before the build, with one error line
    runs = text.split(b"== ")[1:]
    assert len(runs) == 12
    for run in runs:
        assert b"\nexit: 2\n" in run and run.count(b"\nerror: ") == 1


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] == ["refusals"]:
        sys.stdout.buffer.write(refusal_runs())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.buffer.write(build_runs(pathlib.Path(tmp)))
