"""Smoke test of the benchmark harness in perfbench/.

One short untraced ``count_sweep`` run must reproduce the recorded exact
references, so the counting engines and the harness cannot drift apart.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_count_sweep_matches_references():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
