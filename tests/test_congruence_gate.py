"""Equivalence gate for the congruence counts M(q) and the series terms S(q).

Each fast path of ``local.congruence_count`` is checked against an oracle
that does not run through it, on int64 and on big-integer cells (forced by
patching ``local.fits_int64``), for quad6, cubic8 and seeded draws from the
conftest generators up to k = 3, mirrored (L and -L) and not:

* every count against an oracle with no symmetry: sum_v left(v) right(v)
  over ``_literal_dp`` of each full positional half (the first ceil(s/2)
  coefficients and the negated rest), at every q up to a size the suite
  affords, composite q and q with p <= k among them, and on (1, -1), whose
  halves lose their only variable to the symmetry;
* the product of prime-power counts (CRT) against one direct count at q
  (``local._dp_product`` at the single modulus q);
* the one-half read-out of an L and -L system (one DP over L less its first
  coefficient) against the two-half read-out over the positional halves,
  forced by patching ``local.split_halves``, at prime powers, with a spy
  asserting one stage fewer per half and one read-out per divisor of q;
* every shuffle of an L and -L system against its sorted form: the same
  counts, from a DP over L less the first positive coefficient;
* every count against ``brute_force_congruence_count`` wherever q^s <= 10^5
  on quad6 and cubic8, and on the draws for q = 2, 3, ... while the
  brute-force tuples total at most 3 * 10^4 per system;
* the product rule of ``series_term_moebius`` against the literal divisor
  sum sum_{d|q} mu(q/d) d^(k-s) M(d), built here from one direct count at
  each divisor and a trial-division mu, for q <= 60 on quad6 and cubic8 and
  as far as ``small`` allows on the draws;
* the exact series terms against the floating-point direct route
  ``series_term_direct`` at k = 3, on cubic8 and the degree-3 draws;
* the DP itself, whose first min(k, stages) stages are one bincount scatter,
  against ``_literal_dp``, the stage-by-stage np.roll recursion, on the
  halves of every system and on each half less its first coefficient, at
  every prime power up to 60 (30 for cubic8 on big integers), and on edge
  stages.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

import numpy as np
import pytest

from circlecount import (
    congruence_count,
    local,
    series_term_direct,
    series_term_moebius,
    validate_system,
)
from circlecount.budget import Budget
from circlecount.local import _factorize

from conftest import brute_force_congruence_count, random_mirrored_system, random_system

QUAD6 = validate_system(2, (1, 1, 1, -1, -1, -1))
CUBIC8 = validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1))


def is_mirrored(system) -> bool:
    # independent of system.split_halves, which the paths under test call
    return sorted(system.coefficients) == sorted(-c for c in system.coefficients)


def positional_halves(coefficients) -> list[tuple[int, ...]]:
    # the halves of a system that is not L and -L: the first ceil(s/2)
    # coefficients and the negation of the rest
    half = (len(coefficients) + 1) // 2
    return [tuple(coefficients[:half]), tuple(-c for c in coefficients[half:])]


def random_asymmetric_system(rnd: random.Random, s: int, k: int):
    while True:
        system = random_system(rnd, s, k)
        if not is_mirrored(system):
            return system


_rnd = random.Random(20261018)
# (s, k) and (|L|, k) sizes fixed so that every degree and both kinds are drawn
ASYMMETRIC = [random_asymmetric_system(_rnd, s, k)
              for s, k in ((3, 1), (4, 2), (5, 3), (6, 2), (4, 3), (5, 1))]
MIRRORED = [random_mirrored_system(_rnd, half, k)
            for half, k in ((1, 3), (2, 2), (3, 3), (2, 1), (3, 2), (4, 3))]

DTYPES = pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
# the DP itself, which a test below replaces by a spy
_DP = local._congruence_dp


def small(system, q: int) -> bool:
    # direct DP work s * q^(k+1) small enough for the whole gate to take seconds
    return system.arity * q ** (system.degree + 1) <= 4 * 10**6


def moduli(system, dtype, prime_powers: bool) -> list[int]:
    """Prime powers or composites (two or more primes) up to 60 for quad6 and
    cubic8 (30 for cubic8 on big integers, where q = 60 alone takes seconds),
    and as far as ``small`` allows for the draws."""
    qs = [q for q in range(2, 61) if (len(_factorize(q)) == 1) == prime_powers]
    if system == QUAD6 or (system == CUBIC8 and dtype is np.int64):
        return qs
    if system == CUBIC8:
        return [q for q in qs if q <= 30]
    return [q for q in qs if small(system, q)]


@contextlib.contextmanager
def dp_dtype(dtype):
    """Run every DP on ``dtype`` cells."""
    real = local.fits_int64

    def decide(bound):
        assert real(bound)  # int64 cells are exact at every size drawn here
        return dtype is np.int64

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local, "fits_int64", decide)
        yield


def test_draws_cover_both_kinds():
    assert not any(map(is_mirrored, ASYMMETRIC))
    assert all(map(is_mirrored, MIRRORED))
    for draws in (ASYMMETRIC, MIRRORED):
        assert {sys.degree for sys in draws} == {1, 2, 3}


# (1, -1): the symmetry fixes each half's only variable, so every DP is empty
EMPTY_RESTS = [validate_system(k, (1, -1)) for k in (1, 2, 3)]


def literal_count(system, q: int) -> int:
    """M(q) with no symmetry: sum_v left(v) right(v) over ``_literal_dp`` of
    each full positional half, summed in Python integers."""
    left, right = (_literal_dp(half, system.degree, q, np.int64).ravel().tolist()
                   for half in positional_halves(system.coefficients))
    return sum(a * b for a, b in zip(left, right))


@DTYPES
def test_count_equals_no_symmetry_oracle(dtype):
    for system in [QUAD6, CUBIC8] + ASYMMETRIC + MIRRORED + EMPTY_RESTS:
        # every q the oracle affords: prime powers, composites and p <= k
        qs = [q for q in range(2, 61) if small(system, q)]
        assert qs[:2] == [2, 3] and len(qs) >= 10
        with dp_dtype(dtype):
            for q in qs:
                assert congruence_count(system, q).count == literal_count(system, q), (
                    system, q)


@DTYPES
def test_crt_product_equals_direct_dp(dtype):
    for system in [QUAD6, CUBIC8] + ASYMMETRIC + MIRRORED:
        qs = moduli(system, dtype, prime_powers=False)
        assert qs
        with dp_dtype(dtype):
            for q in qs:
                crt = congruence_count(system, q).count
                assert crt == local._dp_product(system, [_factorize(q)], Budget()), (system, q)


@pytest.fixture
def dp_stages(monkeypatch):
    """Record the stages of every DP run."""
    runs = []

    def spy(stages, k, q, cells):
        runs.append(stages)
        return _DP(stages, k, q, cells)

    monkeypatch.setattr(local, "_congruence_dp", spy)
    return runs


@pytest.fixture
def read_outs(monkeypatch):
    """Count the read-outs, one ``np.dot`` each."""
    calls = []
    real = np.dot

    def spy(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(np, "dot", spy)
    return calls


def divisor_count(q: int) -> int:
    return sum(q % d == 0 for d in range(1, q + 1))


def rests(halves) -> list[tuple[int, ...]]:
    # x_a = 0 and x_b = g fix the first variable of each half
    return [half[1:] for half in halves]


@DTYPES
def test_one_half_dp_equals_two_half_dp(dtype, dp_stages, read_outs, monkeypatch):
    for system in [QUAD6, CUBIC8] + MIRRORED:
        qs = moduli(system, dtype, prime_powers=True)
        positives = tuple(c for c in system.coefficients if c > 0)
        with dp_dtype(dtype):
            one = [congruence_count(system, q).count for q in qs]
        assert dp_stages == [positives[1:]] * len(qs)
        assert len(read_outs) == sum(map(divisor_count, qs))
        del dp_stages[:], read_outs[:]
        with dp_dtype(dtype), monkeypatch.context() as mp:
            mp.setattr(local, "split_halves", positional_halves)
            two = [congruence_count(system, q).count for q in qs]
        assert dp_stages == rests(positional_halves(system.coefficients)) * len(qs)
        assert len(read_outs) == sum(map(divisor_count, qs))
        del dp_stages[:], read_outs[:]
        assert one == two, system


def test_shuffled_mirrored_systems_run_their_sorted_form_stages(dp_stages):
    rnd = random.Random(20261020)
    for system in [validate_system(2, (1, -1) * 3)] + MIRRORED:
        k, coeffs = system.degree, list(system.coefficients)
        qs = [q for q in range(2, 28) if len(_factorize(q)) == 1 and small(system, q)]
        expected = [congruence_count(validate_system(k, sorted(coeffs)), q).count
                    for q in qs]
        positives = sorted(c for c in coeffs if c > 0)
        assert dp_stages == [tuple(positives[1:])] * len(qs)
        for _ in range(4):
            rnd.shuffle(coeffs)
            del dp_stages[:]
            counts = [congruence_count(validate_system(k, coeffs), q).count for q in qs]
            assert counts == expected, coeffs
            # L less the first positive coefficient of the shuffled order
            first = next(c for c in coeffs if c > 0)
            assert [sorted(run + (first,)) for run in dp_stages] == [positives] * len(qs)
        del dp_stages[:]


def test_dp_equals_brute_force():
    for system in [QUAD6, CUBIC8] + ASYMMETRIC + MIRRORED:
        qs = [q for q in range(2, 13) if q**system.arity <= 10**5]
        if system not in (QUAD6, CUBIC8):
            qs = [q for q in qs if sum(d**system.arity for d in range(2, q + 1))
                  <= 3 * 10**4]
        assert len(qs) >= 2
        expected = [brute_force_congruence_count(system, q) for q in qs]
        for dtype in (np.int64, object):
            with dp_dtype(dtype):
                counts = [congruence_count(system, q).count for q in qs]
            assert counts == expected, (system, dtype)


def moebius(n: int) -> int:
    """mu(n) by its own trial division, apart from ``local._factorize``."""
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def literal_series_term(system, q: int) -> Fraction:
    """sum_{d|q} mu(q/d) d^(k-s) M(d), each M(d) from one direct DP at d."""
    return sum(
        (moebius(q // d) * local._dp_product(system, [_factorize(d)], Budget())
         * Fraction(d) ** (system.degree - system.arity)
         for d in range(1, q + 1) if q % d == 0 and moebius(q // d)),
        Fraction(0),
    )


def test_series_term_equals_literal_divisor_sum():
    for system in [QUAD6, CUBIC8] + ASYMMETRIC + MIRRORED:
        qs = [q for q in range(1, 61) if system in (QUAD6, CUBIC8) or small(system, q)]
        assert len(qs) >= 20
        for q in qs:
            assert series_term_moebius(system, q) == literal_series_term(system, q), (
                system, q)


def test_series_term_equals_direct_route_at_degree_three():
    # q <= 30: the direct route's table holds q^k complete sums of q terms
    draws = [system for system in ASYMMETRIC + MIRRORED if system.degree == 3]
    for system in [CUBIC8] + draws:
        for q in range(1, 31):
            exact = float(series_term_moebius(system, q))
            direct = series_term_direct(system, q)
            assert abs(direct - exact) <= 1e-9 * (1 + abs(exact)), (system, q)


def _literal_dp(stages, k: int, q: int, dtype) -> np.ndarray:
    """The DP one stage at a time from the zero vector: each stage, the first
    included, sums q rolls of the whole (Z/q)^k array, by lam x^j mod q for
    each residue x."""
    counts = np.zeros((q,) * k, dtype=dtype)
    counts[(0,) * k] = 1
    axes = tuple(range(k))
    for lam in stages:
        nxt = np.zeros_like(counts)
        for x in range(q):
            shifts = tuple(lam * pow(x, j, q) % q for j in range(1, k + 1))
            nxt += np.roll(counts, shifts, axis=axes)
        counts = nxt
    return counts


def dp_runs(system) -> set[tuple[int, ...]]:
    """The stages of the DPs a system can run, and its halves: its positional
    halves and, when it is L and -L, L, each in full and less its first
    coefficient."""
    runs = set(positional_halves(system.coefficients))
    if is_mirrored(system):
        runs.add(tuple(c for c in system.coefficients if c > 0))
    return runs | set(rests(runs))


@DTYPES
def test_dp_equals_literal_stage_by_stage_dp(dtype):
    for system in [QUAD6, CUBIC8] + ASYMMETRIC + MIRRORED:
        k = system.degree
        qs = moduli(system, dtype, prime_powers=True)
        assert qs
        for stages in dp_runs(system):
            for q in qs:
                assert _DP(stages, k, q, dtype).tolist() == _literal_dp(
                    stages, k, q, dtype).tolist(), (system, stages, q)


# head = min(k, stages) below, equal to and above k; a coefficient 0 mod 2;
# negative and int64-overflowing coefficients; k = 1
EDGE_STAGES = [
    ((1, 2), 3), ((2, -3, 5), 3), ((1, -1, 2, 3, -4), 2), ((2, 1, -1), 2),
    ((-3, 5, -1), 2), ((2**70 + 1, -(2**65)), 2), ((1, -1, 2), 1), ((7,), 1),
]


@DTYPES
@pytest.mark.parametrize("stages,k", EDGE_STAGES)
def test_dp_edge_stages_equal_literal_dp(dtype, stages, k):
    for q in range(1, 13 if k < 3 else 9):
        assert _DP(stages, k, q, dtype).tolist() == _literal_dp(
            stages, k, q, dtype).tolist(), q
