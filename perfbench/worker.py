"""One timed sweep of a library workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED TRACE SPAWN_TIME OUT.json REQUEST_FD ANSWER_FD

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared between processes), so setup_s covers
interpreter start, ``import circlecount`` and input generation.  With TRACE=1
the public functions are wrapped before the inputs are generated.  Before
each job and after the last one, the worker waits for a speed sample point
from the sampler process (speed.py), whose pipes are REQUEST_FD and
ANSWER_FD, outside the jobs' timed sections.  Results are encoded and
written after the last job, outside the timed section.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    workload, seed, traced, spawn, out_path, request, answer = argv
    import circlecount as cc

    recorder = None
    if traced == "1":
        import spans

        recorder = spans.Recorder()
        recorder.install()
    import jobs

    job_list = jobs.LIBRARY[workload](cc, jobs.input_seed(int(seed)))
    setup_end = time.monotonic()
    import speed

    points, results = [], []

    def sample_point() -> None:
        points.append(speed.ask(int(request), int(answer)))

    for job in job_list:
        sample_point()
        began = time.monotonic()
        try:
            value, error = job.run(), None
        except Exception:  # a raising job is a failed job, the sweep goes on
            value, error = None, traceback.format_exc(limit=3)
        results.append((job, value, error, time.monotonic() - began))
    sample_point()
    end = time.monotonic()

    encoded = []
    for job, value, error, seconds in results:
        out = {"error": error} if error else job.encode(value)
        out["name"] = job.name
        out["seconds"] = seconds
        encoded.append(out)
    record = {
        "setup_s": setup_end - float(spawn),
        "points": points,
        "sampling_s": end - setup_end - sum(r[3] for r in results),
        "jobs": encoded,
        "spans": recorder.spans if recorder else None,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
