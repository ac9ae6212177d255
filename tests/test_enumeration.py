import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from circlecount import (
    SetWindow,
    congruence_count,
    count_solutions,
    enumeration,
    greedy_solution_free,
    is_trivial,
    series_term_direct,
    stream_solutions,
    trivial_count,
    validate_system,
    vinogradov_moment,
)
from circlecount.budget import INT64_SAFE, Budget
from circlecount.errors import BadParamsError, BudgetExceededError
from circlecount.mainterm import BigLogNumber, trivial_count_bound

from conftest import (
    brute_force_moment,
    brute_force_tally,
    random_mirrored_system,
    random_system,
    random_window,
)


class TestCountSolutions:
    def test_pair_system_full_interval(self):
        sys = validate_system(1, (1, -1))
        for n in (1, 5, 9):
            tally = count_solutions(sys, SetWindow.full(n), "naive")
            assert (tally.total, tally.trivial, tally.nontrivial) == (n, n, 0)

    def test_quad4_interval_three(self, sys_quad4):
        for method in ("naive", "mitm"):
            tally = count_solutions(sys_quad4, SetWindow.full(3), method)
            assert (tally.total, tally.trivial, tally.nontrivial) == (15, 15, 0)

    def test_quad6_has_nontrivial_in_seven(self, sys_quad6):
        tally = count_solutions(sys_quad6, SetWindow.full(7), "mitm")
        assert tally.nontrivial >= 1

    def test_mitm_matches_naive_random(self):
        rnd = random.Random(42)
        for _ in range(40):
            s = rnd.randint(2, 6)
            sys = random_system(rnd, s, rnd.randint(1, 2))
            w = random_window(rnd, rnd.randint(2, 12), 200_000, s)
            a = count_solutions(sys, w, "naive")
            b = count_solutions(sys, w, "mitm")
            assert a.total == b.total
            assert a.trivial == b.trivial

    def test_coefficient_negation_and_permutation_invariance(self, sys_quad6):
        w = SetWindow.full(7)
        base = count_solutions(sys_quad6, w, "naive")
        negated = validate_system(2, tuple(-c for c in sys_quad6.coefficients))
        permuted = validate_system(2, (1, -1, 1, -1, 1, -1))
        assert count_solutions(negated, w, "naive") == base
        assert count_solutions(permuted, w, "naive") == base

    def test_budget_refusal(self, sys_quad6):
        tiny = Budget(max_ops=10)
        with pytest.raises(BudgetExceededError):
            count_solutions(sys_quad6, SetWindow.full(7), "naive", tiny)
        with pytest.raises(BudgetExceededError):
            count_solutions(sys_quad6, SetWindow.full(7), "mitm", tiny)
        with pytest.raises(BudgetExceededError):
            vinogradov_moment(50, 2, 3, tiny)
        with pytest.raises(BudgetExceededError):
            list(stream_solutions(sys_quad6, SetWindow.full(7), "all", tiny))

    def test_unknown_method_rejected(self, sys_quad4):
        with pytest.raises(BadParamsError, match="unknown method"):
            count_solutions(sys_quad4, SetWindow.full(3), "scan")


def _set_partition_histogram(coeffs):
    """Reference histogram: list every set partition of the indices, growing
    blocks one index at a time and pruning when the open blocks' sums exceed
    what the remaining coefficients can cancel."""
    s = len(coeffs)
    suffix_abs = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        suffix_abs[i] = suffix_abs[i + 1] + abs(coeffs[i])
    hist = {}
    blocks = []

    def rec(i):
        if sum(abs(b) for b in blocks) > suffix_abs[i]:
            return
        if i == s:
            if all(b == 0 for b in blocks):
                hist[len(blocks)] = hist.get(len(blocks), 0) + 1
            return
        c = coeffs[i]
        for idx in range(len(blocks)):
            blocks[idx] += c
            rec(i + 1)
            blocks[idx] -= c
        blocks.append(c)
        rec(i + 1)
        blocks.pop()

    rec(0)
    return tuple(sorted(hist.items()))


def _all_distinct(s):
    """Arity-s system with s distinct coefficients: 1..s-1 and minus their sum."""
    return validate_system(1, tuple(range(1, s)) + (-s * (s - 1) // 2,))


class TestTrivialCount:
    def test_pair(self):
        sys = validate_system(1, (1, -1))
        assert trivial_count(sys, 5) == 5
        with pytest.raises(BadParamsError, match="cardinality"):
            trivial_count(sys, -1)

    def test_quad4(self, sys_quad4):
        # partitions {{1,2,3,4}}, {{1,3},{2,4}}, {{1,4},{2,3}}: 3 + 6 + 6
        assert trivial_count(sys_quad4, 3) == 15

    def test_lin3(self, sys_lin3):
        assert trivial_count(sys_lin3, 4) == 4

    def test_matches_streamed_classification(self):
        rnd = random.Random(9)
        for _ in range(25):
            s = rnd.randint(2, 8)
            sys = random_system(rnd, s, rnd.randint(1, 2))
            w = random_window(rnd, rnd.randint(2, 10), 400_000, s)
            streamed = sum(
                1 for t in stream_solutions(sys, w) if is_trivial(sys, t)
            )
            assert streamed == trivial_count(sys, w.cardinality)

    def test_dp_matches_set_partition_oracle(self):
        rnd = random.Random(17)
        systems = [random_system(rnd, rnd.randint(2, 10), 1) for _ in range(150)]
        systems += [random_mirrored_system(rnd, rnd.randint(1, 5), 1)
                    for _ in range(50)]
        systems += [validate_system(1, (1,) * 6 + (-1,) * 6),
                    validate_system(1, tuple(range(1, 7)) + tuple(range(-6, 0))),
                    validate_system(1, (3, -2, 2, 1, -1, -1, 1, -2, -3, 3, -1))]
        for sys in systems:
            got = enumeration._zero_sum_partition_histogram.__wrapped__(sys.coefficients)
            assert got == _set_partition_histogram(sys.coefficients), sys

    def test_paper_range_closed_form(self):
        # s = 42 = s0(2): over two values the trivial tuples are the solutions,
        # one for each choice of the 21 variables that take the smaller value
        sys = validate_system(2, (1,) * 21 + (-1,) * 21)
        tally = count_solutions(sys, SetWindow.from_elements(7, (3, 7)))
        assert tally.total == tally.trivial == math.comb(42, 21)
        assert tally.nontrivial == 0

    def test_within_the_trivial_solution_bound(self):
        rnd = random.Random(24)
        for s in range(2, 25):
            for _ in range(4):
                sys = random_system(rnd, s, 1)
                for c in (0, 1, 2, 3, 5, 10, 40, 1000):
                    got = BigLogNumber.from_int(trivial_count(sys, c))
                    assert got <= trivial_count_bound(sys, c), (sys, c)

    def test_estimate_is_checked_first(self, sys_quad6):
        # quad6: (3 + 1)(3 + 2)/2 pairs for each of its two coefficients
        with pytest.raises(BudgetExceededError, match="trivial count: estimated 100 "):
            trivial_count(sys_quad6, 2, Budget(max_ops=99))
        assert trivial_count(sys_quad6, 2, Budget(max_ops=100)) == 2 + 2 * 9
        # s distinct coefficients: 3^s, within the default budget up to s = 18
        assert trivial_count(_all_distinct(18), 7) == 7
        with pytest.raises(BudgetExceededError, match="trivial count"):
            trivial_count(_all_distinct(19), 7)


class TestStreamSolutions:
    def test_pair_listing(self):
        sys = validate_system(1, (1, -1))
        out = list(stream_solutions(sys, SetWindow.full(2)))
        assert out == [(1, 1), (2, 2)]

    def test_nontrivial_contains_classic(self, sys_quad6):
        out = list(stream_solutions(sys_quad6, SetWindow.full(7), "nontrivial"))
        assert (1, 5, 6, 2, 3, 7) in out

    def test_no_nontrivial_for_quad4_small(self, sys_quad4):
        assert list(stream_solutions(sys_quad4, SetWindow.full(3), "nontrivial")) == []

    def test_lexicographic_order(self, sys_quad4):
        out = list(stream_solutions(sys_quad4, SetWindow.full(4)))
        assert out == sorted(out)
        assert len(out) == count_solutions(sys_quad4, SetWindow.full(4)).total


class TestVinogradovMoment:
    def test_degree_one_forces_equality(self):
        for k in range(1, 5):
            for n in (1, 7, 50, 100):
                assert vinogradov_moment(n, k, 1) == n

    def test_known_values(self):
        assert vinogradov_moment(10, 2, 2) == 190
        assert vinogradov_moment(3, 2, 2) == 15

    def test_brute_force_small(self):
        for n, k, t in [(4, 2, 2), (5, 1, 2), (3, 3, 2), (6, 2, 2)]:
            assert vinogradov_moment(n, k, t) == brute_force_moment(n, k, t)

    def test_multiset_floor(self):
        # diagonal pairs alone: every x paired with each of its permutations
        n, k, t = 8, 2, 2
        multiset_pairs = 0
        for x in itertools.product(range(1, n + 1), repeat=t):
            for y in itertools.product(range(1, n + 1), repeat=t):
                if sorted(x) == sorted(y):
                    multiset_pairs += 1
        assert vinogradov_moment(n, k, t) >= multiset_pairs


def _recount_greedy(system, n):
    """The greedy builder written out literally: keep x whenever the naive
    scan finds no nontrivial solution in the window with x added."""
    window = SetWindow.empty(n)
    for x in range(1, n + 1):
        candidate = window.add(x)
        if count_solutions(system, candidate, "naive").nontrivial == 0:
            window = candidate
    return window


@pytest.fixture
def scan_calls(monkeypatch):
    """Record the stage name of every naive scan the engines start."""
    calls = []
    real = enumeration._solutions

    def spy(system, elems, budget, what):
        calls.append(what)
        return real(system, elems, budget, what)

    monkeypatch.setattr(enumeration, "_solutions", spy)
    return calls


class TestEngineChoice:
    def test_auto_never_scans(self, scan_calls):
        rnd = random.Random(16)
        for s in range(2, 17):
            sys = random_system(rnd, s, rnd.randint(1, 3))
            # size keeps the naive reference count below 10^5 tuples
            size = min(20, max(2, int((10**5) ** (1 / s))))
            w = SetWindow.from_elements(20, rnd.sample(range(1, 21), size))
            tally = count_solutions(sys, w, "auto")
            assert scan_calls == [], sys
            assert tally == count_solutions(sys, w, "naive")
            del scan_calls[:]

    def test_greedy_never_scans(self, scan_calls, sys_quad6):
        assert greedy_solution_free(sys_quad6, 30).cardinality < 30
        assert scan_calls == []

    def test_auto_joins_above_arity_12(self, scan_calls):
        rnd = random.Random(14)
        for sys in (validate_system(1, (3,) + (1,) * 5 + (-1,) * 8),
                    random_system(rnd, 14, 1), random_system(rnd, 14, 2)):
            w = SetWindow.from_elements(5, (2, 5))
            tally = count_solutions(sys, w, "auto")
            assert (tally.total, tally.trivial) == brute_force_tally(sys, w), sys
        assert scan_calls == []

    def test_trivial_count_refuses_before_the_join(self, monkeypatch):
        packed = []
        real = enumeration._packed_keys

        def spy(elems, halves, radices):
            packed.append(len(halves))
            return real(elems, halves, radices)

        monkeypatch.setattr(enumeration, "_packed_keys", spy)
        sys = validate_system(1, tuple(range(1, 11)) + tuple(range(-10, 0)))
        w = SetWindow.from_elements(2, (1, 2))
        # the join's 2^10 ops pass, the DP's 3^20 pairs do not
        with pytest.raises(BudgetExceededError, match="trivial count"):
            count_solutions(sys, w, "mitm", Budget(max_ops=10**6))
        assert packed == []


class TestGreedySolutionFree:
    def test_equals_recount_oracle(self):
        # n keeps every candidate grid the oracle scans below 10^7 tuples
        rnd = random.Random(16)
        for k in (1, 2, 3):
            for half in (1, 2, 3):
                for sys in (random_mirrored_system(rnd, half, k),
                            random_system(rnd, 2 * half + 1, k)):
                    n = min(24, int((10**7) ** (1 / sys.arity)))
                    got = greedy_solution_free(sys, n)
                    assert got == _recount_greedy(sys, n), (sys, n)

    def test_pair_system_keeps_everything(self):
        sys = validate_system(1, (1, -1))
        assert greedy_solution_free(sys, 10) == SetWindow.full(10)

    def test_quad4_keeps_everything(self, sys_quad4):
        assert greedy_solution_free(sys_quad4, 10) == SetWindow.full(10)

    def test_quad6_excludes_something(self, sys_quad6):
        w = greedy_solution_free(sys_quad6, 7)
        assert w.cardinality < 7
        assert count_solutions(sys_quad6, w, "naive").nontrivial == 0


def test_reproducible_counts(sys_quad6):
    w = SetWindow.full(7)
    runs = {count_solutions(sys_quad6, w, "mitm").total for _ in range(3)}
    assert len(runs) == 1


def test_tally_cross_check_against_loops(sys_quad4, sys_lin3):
    for sys, n in [(sys_quad4, 4), (sys_lin3, 6)]:
        w = SetWindow.full(n)
        total, trivial = brute_force_tally(sys, w)
        tally = count_solutions(sys, w, "naive")
        assert (tally.total, tally.trivial) == (total, trivial)


# Small inputs on which every counting path fits int64: the big-integer paths,
# forced below, must reproduce these results exactly.
FALLBACK_CASES = [
    # symmetric: the right half negates the left half up to order
    (2, (1, 1, 1, -1, -1, -1), (1, 2, 3, 5, 6, 7)),
    # asymmetric, even arity
    (2, (3, -1, -1, 2, -2, -1), (1, 2, 4, 5, 7)),
    # asymmetric, odd arity: the left half is the longer one
    (2, (2, 1, -1, -1, -1), (1, 3, 4, 6, 8, 9)),
    (3, (1, 1, 1, -1, -2), (2, 3, 5, 6, 8)),
]
MOMENT_CASES = [(6, 2, 2), (5, 3, 3), (4, 2, 3)]
# eight elements whose fifth powers times the weight pass the int64 limit
BIG_WINDOW = SetWindow.from_elements(
    10**4, random.Random(5).sample(range(1, 10**4 + 1), 8)
)


def _every_counting_path():
    out = []
    for k, coeffs, elems in FALLBACK_CASES:
        sys = validate_system(k, coeffs)
        w = SetWindow.from_elements(max(elems), elems)
        out.append((
            count_solutions(sys, w, "naive"),
            count_solutions(sys, w, "mitm"),
            list(stream_solutions(sys, w, "all")),
            list(stream_solutions(sys, w, "nontrivial")),
        ))
    out.append([vinogradov_moment(n, k, t) for n, k, t in MOMENT_CASES])
    return out


@pytest.fixture
def int64_decisions(monkeypatch):
    """Record (bound, verdict) of every int64 decision the engines make."""
    decisions = []
    real = enumeration.fits_int64

    def spy(bound):
        decisions.append((bound, real(bound)))
        return decisions[-1][1]

    monkeypatch.setattr(enumeration, "fits_int64", spy)
    return decisions


@pytest.fixture
def column_dtypes(monkeypatch):
    """Record the dtype of every power-sum grid the scan and the join build."""
    dtypes = []
    real = enumeration._power_sum_columns

    def spy(elems, coeffs, degree):
        dtypes.append(elems.dtype)
        return real(elems, coeffs, degree)

    monkeypatch.setattr(enumeration, "_power_sum_columns", spy)
    return dtypes


class TestInt64Fallbacks:
    def test_forced_big_integer_paths_agree(self, monkeypatch, column_dtypes):
        expected = _every_counting_path()
        assert set(column_dtypes) == {np.dtype(np.int64)}
        del column_dtypes[:]
        monkeypatch.setattr(enumeration, "fits_int64", lambda bound: False)
        assert _every_counting_path() == expected
        assert set(column_dtypes) == {np.dtype(object)}

    def test_renumbered_keys(self, int64_decisions):
        # radix products far above int64 over few keys: the keys are
        # renumbered between digits and the join stays on int64
        sys = validate_system(4, (1, 2, -3, 1, -1))
        w = SetWindow.from_elements(60, (1, 2, 7, 20, 33, 60))
        assert count_solutions(sys, w, "mitm").total == brute_force_tally(sys, w)[0]
        assert int64_decisions[0][1] and not all(ok for _, ok in int64_decisions)
        del int64_decisions[:]
        assert vinogradov_moment(12, 5, 2) == brute_force_moment(12, 5, 2)
        assert int64_decisions[0][1] and not all(ok for _, ok in int64_decisions)

    def test_key_bound_at_int64_limit(self, int64_decisions, column_dtypes):
        # over {1, 2, top} the join's key bound grows with top; the largest top
        # below the int64 limit packs int64 keys, the next one object keys
        sys = validate_system(4, (1, 1, -1, -1))

        def join_bound(top):
            del int64_decisions[:]
            count_solutions(sys, SetWindow.from_elements(top, (1, 2, top)), "mitm")
            return int64_decisions[0][0]

        lo, hi = 3, 2**20  # join_bound(lo) fits, join_bound(hi) does not
        assert join_bound(lo) < INT64_SAFE <= join_bound(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if join_bound(mid) < INT64_SAFE:
                lo = mid
            else:
                hi = mid
        for top, dtype in ((lo, np.int64), (hi, object)):
            w = SetWindow.from_elements(top, (1, 2, top))
            del column_dtypes[:]
            tally = count_solutions(sys, w, "mitm")
            assert set(column_dtypes) == {np.dtype(dtype)}
            assert tally == count_solutions(sys, w, "naive")
            assert (tally.total, tally.trivial) == brute_force_tally(sys, w)

    def test_scan_dtype_boundary(self, monkeypatch, column_dtypes):
        # weight * max(A)^k bounds every value the scan forms; one past the
        # bound this window's sums still fit, so int64 and big integers must
        # agree on both sides.  The window is the nontrivial solution
        # (1, 4, 5, 8, 2, 7) translated to end at the top.
        sys = validate_system(3, (1, 1, 1, 1, -2, -2))
        largest = 832255
        assert 8 * largest**3 < INT64_SAFE <= 8 * (largest + 1) ** 3
        real = enumeration.fits_int64
        for top, dtype, other in ((largest, np.int64, object),
                                  (largest + 1, object, np.int64)):
            w = SetWindow.from_elements(top, (top - d for d in (7, 6, 4, 3, 1, 0)))
            del column_dtypes[:]
            tally = count_solutions(sys, w, "naive")
            assert column_dtypes == [np.dtype(dtype)]
            assert tally.nontrivial > 0
            assert (tally.total, tally.trivial) == brute_force_tally(sys, w)
            monkeypatch.setattr(enumeration, "fits_int64",
                                lambda bound: other is np.int64)
            assert count_solutions(sys, w, "naive") == tally
            assert column_dtypes[-1] == np.dtype(other)
            monkeypatch.setattr(enumeration, "fits_int64", real)


@pytest.mark.parametrize(
    "count",
    [
        lambda b: count_solutions(validate_system(2, (1, 1, 1, -1, -1, -1)),
                                  SetWindow.full(60), "mitm", b),
        lambda b: count_solutions(validate_system(2, (2, 1, -1, -1, -1)),
                                  SetWindow.full(60), "mitm", b),
        lambda b: vinogradov_moment(60, 2, 3, b),
        lambda b: count_solutions(validate_system(2, (1, 1, 1, -1, -1, -1)),
                                  SetWindow.full(13), "naive", b),
        # above 2^62 from here: object scan and object keys
        lambda b: count_solutions(validate_system(5, (1, 1, 1, -1, -1, -1)),
                                  BIG_WINDOW, "naive", b),
        lambda b: count_solutions(validate_system(5, (2, 1, -1, -1, -1)),
                                  BIG_WINDOW, "mitm", b),
        # the congruence DP at prime powers, one DP per call, at moduli where
        # the arrays outweigh the free-list term: int64 cells, then object
        # cells past 89^12 > 2^62; these three systems are L and -L, so they
        # run the half DP with its squared counts
        lambda b: congruence_count(validate_system(2, (1, 1, 1, -1, -1, -1)), 211, b),
        lambda b: congruence_count(
            validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1)), 41, b),
        lambda b: congruence_count(validate_system(2, (1,) * 6 + (-1,) * 6), 89, b),
        # and the full-stage DP, on systems that are not L and -L: int64 cells
        # at a modulus where the arrays outweigh the free-list term, then
        # object cells past 37^12 > 2^62
        lambda b: congruence_count(validate_system(2, (2, 1, -1, -1, -1)), 289, b),
        lambda b: congruence_count(
            validate_system(2, (2, 2, 1, 1, 1, 1, -1, -1, -1, -1, -1, -3)), 37, b),
        # the direct series route: its q^k-row arrays, then at k = 1 a modulus
        # where one row block of complete sums outweighs them
        lambda b: series_term_direct(validate_system(2, (1, 1, 1, -1, -1, -1)), 60, b),
        lambda b: series_term_direct(
            validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1)), 30, b),
        lambda b: series_term_direct(validate_system(1, (2, -1, -1)), 1000, b),
    ],
    ids=["mitm_symmetric", "mitm_odd_asymmetric", "moment", "naive_int64",
         "naive_object", "mitm_object", "dp_int64", "dp_cubic_int64", "dp_object",
         "dp_full_int64", "dp_full_object", "direct_quad6", "direct_cubic8",
         "direct_linear_block"],
)
def test_key_byte_estimate_tracks_traced_peak(count):
    estimates = []

    class Recording(Budget):
        def check_bytes(self, nbytes, what):
            estimates.append(nbytes)
            super().check_bytes(nbytes, what)

    count(Budget())  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        count(Recording())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [estimate] = estimates
    assert peak <= estimate <= 4 * peak


def test_partition_cache_is_bounded():
    assert enumeration._zero_sum_partition_histogram.cache_info().maxsize is not None
