"""The `rmas check` report and the `rmas compile` output of each corpus spec,
the `rmas async2sync` output (both modes) of the two messaging specs and the
`rmas gen-cm` output of each counter program, byte for byte.  The expected
files under `golden/` pin the default report (the `work:` counter of the
well-formedness checker included) and the serialized specs; a change that
alters them has to regenerate them on purpose:

    PYTHONPATH=src python -m rmas.cli check corpus/NAME.rmas 2> tests/golden/NAME.check.txt
    PYTHONPATH=src python -m rmas.cli compile corpus/NAME.rmas > tests/golden/NAME.compile.rmas
    PYTHONPATH=src python -m rmas.cli async2sync corpus/NAME.rmas --async-mode MODE \\
        > tests/golden/NAME.async2sync-MODE.rmas
    PYTHONPATH=src python -m rmas.cli gen-cm corpus/programs/PROG.cm > tests/golden/PROG.gen-cm.rmas
"""

import pathlib

import pytest

from conftest import run_cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
NAMES = ("contract_net", "ping", "registry", "ticket_mutex")


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
