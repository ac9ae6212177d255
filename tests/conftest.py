"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized paths: plain
nested loops and exact integer arithmetic only, so they stay valid reference
points for the fast implementations.  The opt-in ``--line-trace`` option
registers the plugin of ``line_trace.py``.
"""

from __future__ import annotations

import cmath
import itertools
import math
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


def trivial_count_bound(system: DiagonalSystem, cardinality: int) -> int:
    """The square floor(s/2)!^2 * cardinality^s of the upper bound
    floor(s/2)! * cardinality^(s/2) on the trivial-solution count, so that
    odd s needs no square root."""
    s = system.arity
    return math.factorial(s // 2) ** 2 * cardinality**s


def closed_form_w_linear(n: int, b: float) -> complex:
    """k = 1 oracle of w: integral_0^N e(b t) dt = (e(bN) - 1) / (2 pi i b)."""
    if b == 0.0:
        return complex(n)
    return (cmath.exp(2j * math.pi * b * n) - 1.0) / (2j * math.pi * b)


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


# acceptance criterion 11's commands, one per subcommand; "{name}" stands for
# the path of an input file that ``criterion_11_commands`` writes
CRITERION_11 = [
    ["validate", "--system", "{quad4}"],
    ["count", "--system", "{quad4}", "--n", "6"],
    ["stream", "--system", "{quad6}", "--n", "7", "--filter", "nontrivial"],
    ["moment", "--n", "12", "--k", "2", "--t", "2"],
    ["gowers", "--set", "{full16}", "--degree", "2"],
    ["expsum", "E", "--alpha", "0.25,0.125", "--set", "{evens}"],
    ["arcs", "--n", "100000", "--k", "2", "--alpha", "0.5,0.25",
     "--arc-exponent", "0.4"],
    ["--output", "csv", "series", "--system", "{quad4}", "--qmax", "8"],
    ["local", "--system", "{quad4}", "--prime", "3", "--hmax", "2"],
    ["lift", "--system", "{quad6}", "-p", "5", "-t", "3", "--seed", "1,0,1,2,3,2"],
    ["constants", "--k", "2", "--cs", "4"],
    ["predict", "--system", "{quad4}", "--n", "32", "--qmax", "20"],
    ["increment", "--delta", "1/2", "--loglogn", "50", "--y", "3", "--k", "2"],
    ["concentrate", "--set", "{evens}", "--min-len", "5"],
    ["--seed", "11", "gen-set", "--kind", "random_density", "--n", "64",
     "--density", "0.5"],
]


def subcommand(cmd: list[str]) -> str:
    """The subcommand of a CLI argument list, past its global options, each
    of which takes one value."""
    i = 0
    while cmd[i].startswith("-"):
        i += 2
    return cmd[i]


def criterion_11_commands(root) -> list[list[str]]:
    """``CRITERION_11`` with its input files written under ``root``."""
    files = {
        "quad4.json": '{"k": 2, "lambda": [1, 1, -1, -1]}',
        "quad6.json": '{"k": 2, "lambda": [1, 1, 1, -1, -1, -1]}',
        "full16.txt": "N 16\n" + "\n".join(map(str, range(1, 17))) + "\n",
        "evens.txt": "N 20\n" + "\n".join(map(str, range(2, 21, 2))) + "\n",
    }
    paths = {}
    for name, text in files.items():
        (root / name).write_text(text)
        paths[name.split(".")[0]] = root / name
    return [[arg.format(**paths) for arg in cmd] for cmd in CRITERION_11]


def pytest_addoption(parser):
    parser.addoption(
        "--line-trace", action="store_true",
        help="list the function-body lines of src/circlecount that no test ran",
    )


def pytest_configure(config):
    if config.getoption("--line-trace"):
        config.pluginmanager.register(LineTrace(), "line-trace")
