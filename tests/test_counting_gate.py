"""Equivalence gate for the two counting engines of ``count_solutions``.

The naive scan and the MITM join each give the total and the trivial count
of solutions in A^s; both must equal ``brute_force_tally`` (plain loops over
the tuple grid) on seeded draws from the conftest generators:

* systems with k = 1, 2, 3 and s <= 6, from ``random_system`` (kept only when
  the coefficients are not L and -L) and from ``random_mirrored_system``, so
  that the MITM join runs both its two-half and its one-half forms; it must
  build the one half L, the positive coefficients, exactly when the system
  is L and -L up to order, also when its first and last halves do not negate
  each other, and else the first ceil(s/2) coefficients and the negation of
  the rest;
* more ``random_system`` draws that are not L and -L but repeat a coefficient
  within a half, so that the join's two halves carry multiset weights; each
  half must pack prod_g C(|A|+m_g-1, m_g) keys, m_g the multiplicities of
  its distinct coefficients;
* seeded shuffles of L and -L systems, which must count the same distinct
  keys with the same multiplicities as their sorted forms;
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
    # independent of system.split_halves, which the MITM join calls
    return sorted(system.coefficients) == sorted(-c for c in system.coefficients)


def positional_halves(system) -> list[tuple[int, ...]]:
    # the first ceil(s/2) coefficients and the negation of the rest
    half = (system.arity + 1) // 2
    return [system.coefficients[:half], tuple(-c for c in system.coefficients[half:])]


def join_halves(system) -> list[tuple[int, ...]]:
    # the halves the join builds: the positive coefficients alone when the
    # system is L and -L, else the positional halves
    if is_mirrored(system):
        return [tuple(c for c in system.coefficients if c > 0)]
    return positional_halves(system)


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
    # mirrored draws whose positional halves do not negate each other, which
    # a positional rule would build as two halves
    left, right = zip(*(positional_halves(system) for system, _ in DRAWS
                        if is_mirrored(system)))
    assert sum(sorted(a) != sorted(b) for a, b in zip(left, right)) >= 3
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

    def spy(cols, radices, shifts):
        keys = real_keys(cols, radices, shifts)
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


def test_shuffled_mirrored_systems_count_their_sorted_form_keys(monkeypatch):
    # the one half is the positive coefficients in any order, so every shuffle
    # packs as many keys as its sorted form and counts the same distinct keys
    # with the same multiplicities; (1, -1, 1, -1, 1, -1) at n = 60 packs the
    # C(62, 3) = 37,820 multisets of quad6
    packed, counted = [], []
    real_keys, real_counts = enumeration._packed_keys, enumeration._weighted_counts

    def keys_spy(cols, radices, shifts):
        keys = real_keys(cols, radices, shifts)
        packed.append([key.size for key in keys])
        return keys

    def counts_spy(keys, weights, bits):
        counted.append([a.tolist() for a in real_counts(keys, weights, bits)])
        return real_counts(keys, weights, bits)

    monkeypatch.setattr(enumeration, "_packed_keys", keys_spy)
    monkeypatch.setattr(enumeration, "_weighted_counts", counts_spy)
    rnd = random.Random(20261020)
    n = 60
    systems = [validate_system(2, (1, -1) * 3)]
    systems += [random_mirrored_system(rnd, half, k)
                for k, half in ((1, 3), (2, 3), (3, 2), (2, 4), (3, 3))]
    for system in systems:
        k, coeffs = system.degree, list(system.coefficients)
        expected = count_solutions(validate_system(k, sorted(coeffs)), SetWindow.full(n))
        positives = [c for c in coeffs if c > 0]
        assert packed == [[multisets(positives, n)]]
        [(keys, mults)] = counted
        assert sum(mults) == n ** len(positives)  # every ordered tuple once
        for _ in range(4):
            rnd.shuffle(coeffs)
            del packed[:], counted[:]
            tally = count_solutions(validate_system(k, coeffs), SetWindow.full(n))
            assert tally == expected, coeffs
            assert packed == [[multisets(positives, n)]], coeffs
            assert counted == [[keys, mults]], coeffs
        del packed[:], counted[:]
    assert multisets((1, 1, 1), n) == 37_820
