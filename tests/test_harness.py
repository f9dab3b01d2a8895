"""The benchmark harness binds spans to builder and checker names; a
refactor that renames them must fail here, not only in the benchmark."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT


# successors per workload at seed 1: a step that drops or repeats a
# successor changes the count
SUCCESSORS = {"ticket3-verify": 3048, "async-ping": 3200, "ticket-flat-stream": 2711}
# Kleene iterations of all the workload's checks at seed 1: an evaluation
# change that alters a fixpoint's iteration count changes the sum
ITERATIONS = {"ticket3-verify": 22, "async-ping": 30, "ticket-flat-stream": 0}


@pytest.mark.parametrize("workload,steps", [
    ("ticket3-verify", 895), ("async-ping", 1804), ("ticket-flat-stream", 1000)])
def test_traced_worker_passes_its_span_self_test(workload, steps):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--traced"],
        capture_output=True, cwd=str(ROOT), timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    run = json.loads(out.stdout.decode().splitlines()[-1])
    assert run["failures"] == []
    assert run["layers"]["builder.steps"] == steps
    assert run["layers"]["builder.successors"] == SUCCESSORS[workload]
    assert run["iterations"] == ITERATIONS[workload]
