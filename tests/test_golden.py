"""The `rmas check` report and the `rmas compile` output of each corpus spec,
byte for byte.  The expected files under `golden/` pin the default report
(the `work:` counter of the well-formedness checker included) and the
serialized shallow spec; a change that alters them has to regenerate them
on purpose:

    PYTHONPATH=src python -m rmas.cli check corpus/NAME.rmas 2> tests/golden/NAME.check.txt
    PYTHONPATH=src python -m rmas.cli compile corpus/NAME.rmas > tests/golden/NAME.compile.rmas
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
