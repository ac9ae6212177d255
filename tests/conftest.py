"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized paths: plain
nested loops and exact integer arithmetic only, so they stay valid reference
points for the fast implementations.  The opt-in ``--line-trace`` option
registers the plugin of ``line_trace.py``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from circlecount import DiagonalSystem, SetWindow, validate_system
from line_trace import LineTrace


@pytest.fixture
def sys_quad4() -> DiagonalSystem:
    """k=2, lambda=(1,1,-1,-1): pair sums and square sums."""
    return validate_system(2, (1, 1, -1, -1))


@pytest.fixture
def sys_lin3() -> DiagonalSystem:
    """k=1, lambda=(2,-1,-1)."""
    return validate_system(1, (2, -1, -1))


@pytest.fixture
def sys_quad6() -> DiagonalSystem:
    """k=2, lambda=(1,1,1,-1,-1,-1): the smallest system with nontrivial
    solutions in a short interval, e.g. (1,5,6,2,3,7)."""
    return validate_system(2, (1, 1, 1, -1, -1, -1))


def brute_force_tally(system: DiagonalSystem, window: SetWindow):
    """(total, trivial) by plain loops over the full tuple grid."""
    total = trivial = 0
    elems = window.elements()
    for tup in itertools.product(elems, repeat=system.arity):
        if all(v == 0 for v in system.equations_at(tup)):
            total += 1
            sums: dict[int, int] = {}
            for c, v in zip(system.coefficients, tup):
                sums[v] = sums.get(v, 0) + c
            if all(t == 0 for t in sums.values()):
                trivial += 1
    return total, trivial


def brute_force_moment(n: int, k: int, t: int) -> int:
    count = 0
    for x in itertools.product(range(1, n + 1), repeat=t):
        for y in itertools.product(range(1, n + 1), repeat=t):
            if all(
                sum(v**j for v in x) == sum(v**j for v in y)
                for j in range(1, k + 1)
            ):
                count += 1
    return count


def brute_force_congruence_count(system: DiagonalSystem, q: int) -> int:
    count = 0
    for tup in itertools.product(range(q), repeat=system.arity):
        if all(v % q == 0 for v in system.equations_at(tup)):
            count += 1
    return count


def random_system(rnd: random.Random, s: int, k: int) -> DiagonalSystem:
    """Random system with nonzero coefficients in [-3, 3] summing to zero."""
    while True:
        coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(s - 1)]
        last = -sum(coeffs)
        if last != 0 and abs(last) <= 3 * s:
            return validate_system(k, tuple(coeffs) + (last,))


def random_mirrored_system(rnd: random.Random, half: int, k: int) -> DiagonalSystem:
    """Random system whose coefficients are L and -L in shuffled order, with L
    drawn from the nonzero integers in [-3, 3]."""
    left = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(half)]
    coeffs = left + [-c for c in left]
    rnd.shuffle(coeffs)
    return validate_system(k, coeffs)


def random_window(rnd: random.Random, n: int, max_grid: int, s: int) -> SetWindow:
    """Random nonempty window with |A|^s capped for naive enumeration."""
    while True:
        mask = rnd.getrandbits(n)
        if mask == 0:
            continue
        w = SetWindow(n, mask)
        if w.cardinality**s <= max_grid:
            return w


def pytest_addoption(parser):
    parser.addoption(
        "--line-trace", action="store_true",
        help="list the function-body lines of src/circlecount that no test ran",
    )


def pytest_configure(config):
    if config.getoption("--line-trace"):
        config.pluginmanager.register(LineTrace(), "line-trace")
