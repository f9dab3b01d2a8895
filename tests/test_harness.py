"""The benchmark harness binds spans to builder and checker names; a
refactor that renames them must fail here, not only in the benchmark."""

import json
import subprocess
import sys

from conftest import ROOT


def test_traced_worker_passes_its_span_self_test():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "ticket-flat-stream", "--seed", "1", "--traced"],
        capture_output=True, cwd=str(ROOT), timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    run = json.loads(out.stdout.decode().splitlines()[-1])
    assert run["failures"] == []
    assert run["layers"]["builder.steps"] == 1000
