"""Smoke test of the benchmark harness in perfbench/.

One short untraced run of ``count_sweep`` and of ``uniformity_weyl`` must
reproduce the recorded exact references, so the counting engines, the Gowers
collapse and the harness cannot drift apart.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["count_sweep", "uniformity_weyl"])
def test_workload_matches_references(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
