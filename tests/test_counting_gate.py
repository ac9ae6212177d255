"""Equivalence gate for the two counting engines of ``count_solutions``.

The naive scan and the MITM join each give the total and the trivial count
of solutions in A^s; both must equal ``brute_force_tally`` (plain loops over
the tuple grid) on seeded draws from the conftest generators:

* systems with k = 1, 2, 3 and s <= 6, from ``random_system`` (kept only when
  the coefficients are not L and -L) and from ``random_mirrored_system``, so
  that the MITM join runs both its two-half and its one-half forms, and it
  must build one half exactly when its right half negates its left half up
  to order;
* more ``random_system`` draws that are not L and -L but repeat a coefficient
  within a half, so that the join's two halves carry multiset weights; each
  half must pack prod_g C(|A|+m_g-1, m_g) keys, m_g the multiplicities of
  its distinct coefficients;
* ``random_window`` windows with |A|^s <= 2 * 10^4;
* int64 arrays, and ``object`` arrays of Python integers forced by patching
  ``enumeration.fits_int64``, the one dtype decision of both engines.

One more system, at k = 4 over a window up to 60, packs radices far past
int64, so that its int64 keys are renumbered between digits.
"""

from __future__ import annotations

import collections
import math
import random

import pytest

from circlecount import SetWindow, count_solutions, enumeration, validate_system

from conftest import (
    brute_force_tally,
    random_mirrored_system,
    random_system,
    random_window,
)


GRID = 2 * 10**4  # the cap on |A|^s, the brute-force tuples per draw


def is_mirrored(system) -> bool:
    # independent of system.mirrored, which the MITM join calls
    return sorted(system.coefficients) == sorted(-c for c in system.coefficients)


def halves_negate(system) -> bool:
    # the MITM split, tested apart from system.mirrored, which the join calls
    half = (system.arity + 1) // 2
    left, right = system.coefficients[:half], system.coefficients[half:]
    return sorted(left) == sorted(-c for c in right)


def join_halves(system) -> list[tuple[int, ...]]:
    # the halves the join builds, by the same rule as halves_negate
    half = (system.arity + 1) // 2
    left, right = system.coefficients[:half], system.coefficients[half:]
    neg = tuple(-c for c in right)
    return [left] if halves_negate(system) else [left, neg]


def weighted_halves(system) -> int:
    # halves of a two-half join that repeat a coefficient
    halves = join_halves(system)
    return sum(len(set(h)) < len(h) for h in halves) if len(halves) == 2 else 0


def multisets(half, n) -> int:
    return math.prod(math.comb(n + m - 1, m)
                     for m in collections.Counter(half).values())


def _draws():
    rnd = random.Random(20261019)
    systems = []
    for k in (1, 2, 3):
        for s in (3, 4, 5, 6):  # two coefficients summing to zero are (c, -c)
            system = random_system(rnd, s, k)
            while is_mirrored(system):
                system = random_system(rnd, s, k)
            systems.append(system)
        systems += [random_mirrored_system(rnd, half, k) for half in (1, 2, 3)]
        # one weighted half at s = 4 and 5, both at s = 6 (at s = 4 two
        # repeated halves (a, a) and (b, b) would make the system L and -L)
        for s, weighted in ((4, 1), (5, 1), (6, 2)):
            system = random_system(rnd, s, k)
            while is_mirrored(system) or weighted_halves(system) < weighted:
                system = random_system(rnd, s, k)
            systems.append(system)
    # windows of length 2 |A|max, where |A|max^s = 2 * 10^4, so that about
    # half of the masks drawn fill the grid up to the cap
    return [
        (system, random_window(rnd, 2 * round(GRID ** (1 / system.arity)), GRID,
                               system.arity))
        for system in systems
    ]


DRAWS = _draws()


@pytest.fixture(scope="module")
def cases():
    return [(system, window, brute_force_tally(system, window))
            for system, window in DRAWS]


def test_draws_cover_degrees_and_both_join_forms(cases):
    assert {system.degree for system, _ in DRAWS} == {1, 2, 3}
    assert {system.arity for system, _ in DRAWS} == {2, 3, 4, 5, 6}
    for degree in (1, 2, 3):
        kinds = {is_mirrored(system) for system, _ in DRAWS if system.degree == degree}
        assert kinds == {False, True}
    joins = [halves_negate(system) for system, _ in DRAWS]
    # mirrored draws whose MITM halves do not negate each other as well
    assert joins.count(True) >= 3
    assert sum(map(is_mirrored, (system for system, _ in DRAWS))) > joins.count(True)
    weighted = [weighted_halves(system) for system, _ in DRAWS]
    assert sum(w >= 1 for w in weighted) >= 9 and weighted.count(2) >= 3
    assert all(window.cardinality ** system.arity <= GRID for system, window in DRAWS)
    # enough solutions beyond the trivial ones for the totals to tell engines apart
    assert sum(total > trivial for _, _, (total, trivial) in cases) >= 8


@pytest.mark.parametrize("int64", [True, False], ids=["int64", "object"])
def test_naive_equals_mitm_equals_brute_force(int64, cases, monkeypatch):
    real = enumeration.fits_int64

    def decide(bound):
        assert real(bound)  # int64 arrays are exact at every size drawn here
        return int64

    keys_built = []
    real_keys = enumeration._packed_keys

    def spy(cols, radices):
        keys = real_keys(cols, radices)
        keys_built.append([key.size for key in keys])
        return keys

    monkeypatch.setattr(enumeration, "fits_int64", decide)
    monkeypatch.setattr(enumeration, "_packed_keys", spy)
    for system, window, expected in cases:
        for method in ("naive", "mitm"):
            tally = count_solutions(system, window, method)
            assert (tally.total, tally.trivial) == expected, (system, window, method)
        n = window.cardinality
        assert keys_built.pop() == [multisets(h, n) for h in join_halves(system)], system


def test_renumbered_multiset_keys(monkeypatch):
    # k = 4 radices over a window up to 60 pass int64 long before the last
    # digit: the int64 keys of the weighted left half (1, 1, -2) and of the
    # right half (-3, 3) are renumbered, and object keys never are
    system = validate_system(4, (1, 1, -2, 3, -3))
    window = SetWindow.from_elements(60, (1, 2, 7, 20, 33, 60))
    expected = brute_force_tally(system, window)
    real = enumeration.fits_int64
    for int64 in (True, False):
        decisions = []

        def decide(bound):
            decisions.append(real(bound))
            return int64 and decisions[-1]

        monkeypatch.setattr(enumeration, "fits_int64", decide)
        tally = count_solutions(system, window, "mitm")
        assert (tally.total, tally.trivial) == expected, int64
        # int64 keys whose radices pass int64: renumbered at least once
        assert not int64 or (decisions[0] and not all(decisions))
