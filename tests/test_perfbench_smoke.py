"""Smoke test of the benchmark harness in perfbench/.

One short untraced run of ``count_sweep``, ``uniformity_weyl``,
``major_arcs_local`` and ``cli_mix`` must reproduce the recorded references,
so the counting engines, the Gowers collapse, the congruence counts and
series terms, the CLI envelopes (``constants`` and ``increment`` among them)
and the harness cannot drift apart.  The Weyl chain job, the one that sums
linear phase rows, is also checked in process at every input seed.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the float phases of eval_g are off by more than the check allows at
# N = 10^5, k = 3; this is the one job that may fail until that is fixed
KNOWN_FAILING_JOB = "eval_g_n1e5_k3_x20"


def run_workload(workload: str) -> tuple[dict, dict]:
    """(record, result) of a one-second untraced run at seed 0."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    assert record.startswith("# record ")
    return json.loads(record.removeprefix("# record ")), json.loads(result)


@pytest.mark.parametrize("workload", ["count_sweep", "uniformity_weyl", "cli_mix"])
def test_workload_matches_references(workload):
    _, result = run_workload(workload)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_major_arcs_local_fails_only_the_known_job():
    record, result = run_workload("major_arcs_local")
    assert result["correct"] is True
    assert {problem.split(":")[0] for problem in record["problems"]} <= {KNOWN_FAILING_JOB}


def test_weyl_chain_job_matches_references_on_every_input_seed(monkeypatch):
    # the job's exact part (parameter, samples, both verdicts) must equal the
    # recorded reference and its max ratio must stay within G_TOL of the
    # exact-phase oracle, at each of the 32 input seeds
    import circlecount as cc

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks, jobs = (importlib.import_module(name) for name in ("checks", "jobs"))
    refs = json.loads((ROOT / "perfbench" / "refs" / "uniformity_weyl.json").read_text())
    for seed in range(jobs.SEED_CYCLE):
        job, = (j for j in jobs.uniformity_weyl(cc, seed) if j.name == "weyl_chain_n4096_k1")
        correct, problems = checks.check_job(job.encode(job.run()), refs[str(seed)][job.name])
        assert correct and not problems, (seed, problems)
