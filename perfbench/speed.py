"""Host speed, sampled between jobs, so that times read at one fixed speed.

The shared machine this benchmark was built on changes speed under load from
other tenants: the same code runs up to about 1.9 times slower at times, in
states that switch within seconds and can last for minutes.  A 30 s run can
sit in a slow state from start to end, so raw sweep times of the same code
moved by 30 % and more between runs.

A *slice* is a fixed load of 5-25 ms, one for each kind of work the library
does, because the tenants slow each kind by a different amount:

* ``dict``: interpreted integer arithmetic and stores into a 40 000-entry
  dict, which stays in the CPU caches;
* ``memory``: interpreted random reads from a buffer larger than the
  last-level cache;
* ``numpy``: rolls and sums of a 1.7 MB int64 array, as in the congruence DP.

A *sample point* is two runs of each slice.  Slices never call the library,
so no change to the library moves them.  They run in a sampler process of
their own (this file run as a script), so that their buffer adds nothing to
the memory of the benchmark's other processes: a child's peak RSS counts the
pages of the process that spawned it.  A point is taken before every job and
after the last one, on the CPU that runs the jobs, while the jobs' process
waits; never inside a timed section.

    python perfbench/speed.py

reads one byte from stdin per point and answers with the point's times, in
the order of REF_S, on one line of stdout; it exits at the end of stdin.

A job's *factor* is the geometric mean, over the slices, of the slice's
REF_S over its mean time at the points before and after the job.  Every time
the benchmark reports is the measured time times its factor: the time the
work would take on a host where the slices take REF_S.  A set-up time, which
ends at the first point, takes that point's factor.  The raw times and the
factors are kept in the run's record.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

# reference seconds per slice, about the first quartile on the machine the
# benchmark was built on
REF_S = {"dict": 0.010, "memory": 0.016, "numpy": 0.0065}
ITERATIONS = 40_000
BUFFER_BYTES = 1 << 27  # 128 MiB, more than the 105 MiB last-level cache
ROLLS = 12


def pin() -> None:
    """Keep this process and its children on one CPU, so that the slices run
    where the timed work runs: the two CPUs need not be in one state."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """The sampler process.  ``fds`` are its request and answer pipes, which
    a child can use directly with ``ask``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.fds = (self.proc.stdin.fileno(), self.proc.stdout.fileno())

    def point(self) -> list[float]:
        return ask(*self.fds)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def ask(request: int, answer: int) -> list[float]:
    """One sample point from the sampler, through its pipes."""
    os.write(request, b"?")
    line = b""
    while not line.endswith(b"\n"):
        chunk = os.read(answer, 4096)
        if not chunk:
            raise RuntimeError("the speed sampler exited")
        line += chunk
    return [float(tok) for tok in line.split()]


def factor(points: list[list[float]]) -> float:
    logs = []
    for k, ref in enumerate(REF_S.values()):
        mean = statistics.fmean(p[i] for p in points for i in (2 * k, 2 * k + 1))
        logs.append(math.log(ref / mean))
    return math.exp(statistics.fmean(logs))


def job_factors(points: list[list[float]]) -> list[float]:
    """The factor of each job: job j ran between points j and j + 1."""
    return [factor(points[j:j + 2]) for j in range(len(points) - 1)]


def setup_factor(points: list[list[float]]) -> float:
    return factor(points[:1])


def main() -> int:
    import numpy as np

    buffer = bytearray(b"\x01") * BUFFER_BYTES  # filled, so its pages are resident
    cube = np.arange(60**3, dtype=np.int64).reshape(60, 60, 60)

    def dict_slice() -> None:
        table = {}
        x = 12345
        total = 0
        for i in range(ITERATIONS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            table[x] = i
            total += i * i

    def memory_slice() -> None:
        x = 12345
        total = 0
        for _ in range(ITERATIONS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            total += buffer[x >> 5]  # the top 27 bits index BUFFER_BYTES

    def numpy_slice() -> None:
        acc = np.zeros_like(cube)
        for x in range(ROLLS):
            acc += np.roll(cube, (x, 2 * x, 3 * x), axis=(0, 1, 2))

    def sample() -> list[float]:
        times = []
        for run in (dict_slice, memory_slice, numpy_slice):
            for _ in range(2):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
        return times

    sample()  # not kept: the first slices run cold
    while os.read(0, 1):
        os.write(1, (" ".join(map(repr, sample())) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
