import collections
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
    local,
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

from conftest import (
    brute_force_moment,
    brute_force_tally,
    random_mirrored_system,
    random_system,
    random_window,
    trivial_count_bound,
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
                    got = trivial_count(sys, c)
                    assert got**2 <= trivial_count_bound(sys, c), (sys, c)

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


@pytest.mark.parametrize(
    "k, coeffs, extra",
    [(2, (1, 1, 1, -1, -1, -1), SetWindow.full(7)),
     # holds the nontrivial {1, 5, 8, 12} against {2, 3, 10, 11}
     (3, (1,) * 4 + (-1,) * 4, SetWindow.from_elements(12, (1, 2, 3, 5, 8, 10, 11, 12))),
     (1, (2, 1, -1, -1, -1), None), (2, (3, -1, -1, 2, -2, -1), None),
     (1, (10**19, -(10**19), 1, -1), None), (1, (10**19, -(10**19), 2, -1, -1), None)],
    ids=["quad6", "cubic8", "lin5", "quad6_mixed", "object", "object_nontrivial"],
)
def test_block_triviality_is_the_per_tuple_definition(k, coeffs, extra):
    """The scan's triviality mask equals ``is_trivial`` on every solution of
    seeded windows, and of a window with nontrivial solutions where those have
    none, and the stream and the naive count read the same blocks."""
    sys = validate_system(k, coeffs)
    rnd = random.Random(31)
    windows = [random_window(rnd, rnd.randint(3, 16), 200_000, sys.arity)
               for _ in range(6)]
    if extra is not None:
        windows.append(extra)
    for w in windows:
        blocks = list(enumeration._solutions(sys, w.elements(), Budget(), "stream"))
        assert all(block.dtype == (object if coeffs[0] > INT64_SAFE else np.int64)
                   for block, _ in blocks)
        rows = [tuple(row) for block, _ in blocks for row in block.tolist()]
        trivial = [bool(t) for _, mask in blocks for t in mask]
        assert trivial == [is_trivial(sys, row) for row in rows]
        everything = list(stream_solutions(sys, w, "all"))
        assert everything == rows
        assert all(a < b for a, b in zip(everything, everything[1:]))
        assert all(type(v) is int for row in everything for v in row)
        assert list(stream_solutions(sys, w, "nontrivial")) == [
            row for row, triv in zip(rows, trivial) if not triv]
        tally = count_solutions(sys, w, "naive")
        assert (tally.total, tally.trivial) == (len(rows), sum(trivial))


def test_matches_of_one_leading_value_span_several_blocks():
    # k = 1, (1^4, (-1)^4) over [1, 5]: blocks of 5^7 // (9 * 8^2) = 135 rows,
    # against 7,140 to 8,135 solutions for each leading value
    sys = validate_system(1, (1,) * 4 + (-1,) * 4)
    w = SetWindow.full(5)
    blocks = list(enumeration._solutions(sys, w.elements(), Budget(), "naive count"))
    leads = [block[0, 0] for block, _ in blocks]
    assert max(map(leads.count, set(leads))) > 1
    assert all(len(block) <= 135 for block, _ in blocks)
    rows = [tuple(row) for block, _ in blocks for row in block.tolist()]
    assert [bool(t) for _, mask in blocks for t in mask] == [
        is_trivial(sys, row) for row in rows]
    assert rows == list(stream_solutions(sys, w)) == sorted(set(rows))
    assert (len(rows), sum(is_trivial(sys, row) for row in rows)) == brute_force_tally(sys, w)


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

        def spy(cols, radices, shifts):
            packed.append(len(cols))
            return real(cols, radices, shifts)

        monkeypatch.setattr(enumeration, "_packed_keys", spy)
        sys = validate_system(1, tuple(range(1, 11)) + tuple(range(-10, 0)))
        w = SetWindow.from_elements(2, (1, 2))
        # the join's 2^10 ops pass, the DP's 3^20 pairs do not
        with pytest.raises(BudgetExceededError, match="trivial count"):
            count_solutions(sys, w, "mitm", Budget(max_ops=10**6))
        assert packed == []


def _expected_half_keys(coeffs, n):
    """prod_g C(n + m_g - 1, m_g) over the multiplicities m_g of the distinct
    coefficients of one half: its multisets, one per equal-coefficient group."""
    return math.prod(math.comb(n + m - 1, m)
                     for m in collections.Counter(coeffs).values())


@pytest.fixture
def half_keys(monkeypatch):
    """Record the number of keys the join packs for each half."""
    sizes = []
    real = enumeration._packed_keys

    def spy(cols, radices, shifts):
        keys = real(cols, radices, shifts)
        sizes.append([key.size for key in keys])
        return keys

    monkeypatch.setattr(enumeration, "_packed_keys", spy)
    return sizes


@pytest.fixture
def built_columns(monkeypatch):
    """Record the number of columns the builder hands over per call."""
    counts = []
    real = enumeration._power_sum_columns

    def spy(elems, groups, chunks):
        cols, weights = real(elems, groups, chunks)
        counts.append(len(cols))
        return cols, weights

    monkeypatch.setattr(enumeration, "_power_sum_columns", spy)
    return counts


class TestMultisetJoin:
    # work gate: each half packs one key per multiset of each group of equal
    # coefficients, so a fall back to the ordered grid fails here whatever the
    # host speed
    @pytest.mark.parametrize("coeffs, k, n, keys, tally", [
        ((1, 1, 1, -1, -1, -1), 2, 60, [37_820], (1_963_464, 1_263_840)),
        ((1,) * 4 + (-1,) * 4, 3, 30, [40_920], (17_856_234, 17_568_810)),
        ((2, 2, 1, -1, -1, -3), 2, 24, [7_200, 7_200], (11_476, 2_232)),
    ], ids=["quad6", "cubic8", "non_mirrored"])
    def test_keys_per_half(self, half_keys, coeffs, k, n, keys, tally):
        # tallies recorded from an ordered-grid join, which has no weights;
        # the positives alone when the negatives negate them, else by position
        half = (len(coeffs) + 1) // 2
        left, right = coeffs[:half], tuple(-c for c in coeffs[half:])
        positives = tuple(c for c in coeffs if c > 0)
        mirrored = sorted(positives) == sorted(-c for c in coeffs if c < 0)
        halves = (positives,) if mirrored else (left, right)
        assert keys == [_expected_half_keys(h, n) for h in halves]
        got = count_solutions(validate_system(k, coeffs), SetWindow.full(n), "mitm")
        assert (got.total, got.trivial) == tally
        assert half_keys == [keys]
        # fewer than the n^half ordered tuples per half: 5.7, 19.8 and 1.9 times
        assert all(n**half > size for size in keys)

    def test_one_packed_column_per_half(self, built_columns):
        # work gate: quad6 at n = 100 and cubic8 at n = 30 pack every degree
        # into one int64 chunk, so the builder hands over the packed keys
        # themselves and nothing is folded or renumbered; a fall back to one
        # column per degree fails here whatever the host speed
        quad6 = count_solutions(validate_system(2, (1, 1, 1, -1, -1, -1)),
                                SetWindow.full(100), "mitm")
        assert quad6.total == vinogradov_moment(100, 2, 3) == 10_022_752
        cubic8 = count_solutions(validate_system(3, (1,) * 4 + (-1,) * 4),
                                 SetWindow.full(30), "mitm")
        assert cubic8.total == 17_856_234
        assert built_columns == [1, 1, 1]

    def test_moment_keys(self, half_keys):
        assert vinogradov_moment(100, 2, 3) == 10_022_752
        assert half_keys == [[math.comb(102, 3)]] == [[171_700]]

    def test_naive_scan_builds_the_ordered_grid(self, monkeypatch):
        # the oracle engine never groups: one group of one per trailing
        # variable, |A|^(s-1) entries in lexicographic order
        grids = []
        real = enumeration._power_sum_columns

        def spy(elems, groups, chunks):
            cols, weights = real(elems, groups, chunks)
            grids.append((list(groups), cols[0].size))
            return cols, weights

        monkeypatch.setattr(enumeration, "_power_sum_columns", spy)
        sys = validate_system(2, (1, 1, 1, -1, -1, -1))
        count_solutions(sys, SetWindow.full(9), "naive")
        assert grids == [([(1, 1), (1, 1), (-1, 1), (-1, 1), (-1, 1)], 9**5)]

    def test_orderings_past_int64(self):
        # |A|^t passes 2^62 while the multisets stay few: the weights run on
        # Python integers; at (3, 2, 20) and (2, 1, 56) they fit int64 and only
        # the sum of squared multiplicities leaves it, C(112, 56) > 2^63 at
        # the latter
        for n, k, t in [(3, 2, 40), (2, 3, 70), (4, 2, 31), (3, 2, 20), (2, 1, 56)]:
            assert vinogradov_moment(n, k, t) == _moment_by_convolution(n, k, t)
        assert vinogradov_moment(2, 1, 56) == math.comb(112, 56)

    def test_ops_estimate_counts_multisets(self, sys_quad6):
        # k times the entries built: C(102, 3) for quad6 and the moment at
        # n = 100, both halves' prod_g C(n+m_g-1, m_g) for a non-mirrored system
        w = SetWindow.full(100)
        for what, count in (
                ("mitm count", lambda b: count_solutions(sys_quad6, w, "mitm", b)),
                ("vinogradov moment", lambda b: vinogradov_moment(100, 2, 3, b))):
            with pytest.raises(BudgetExceededError, match=f"{what}: estimated 343400 "):
                count(Budget(max_ops=343_399))
            assert count(Budget(max_ops=343_400)) == count(Budget())
        # two halves of C(101, 2) * 100 = 505,000 entries each, k = 2
        sys = validate_system(2, (2, 2, 1, -1, -1, -3))
        with pytest.raises(BudgetExceededError, match="mitm count: estimated 2020000 "):
            count_solutions(sys, w, "mitm", Budget(max_ops=2_019_999))


def _moment_by_convolution(n, k, t):
    """Sum of squared multiplicities of the power-sum vectors of t-tuples over
    [1, n], the vectors counted by a dictionary convolution, one variable at a
    time, with no multisets and no arrays."""
    counts = {(0,) * k: 1}
    for _ in range(t):
        nxt = collections.Counter()
        for key, c in counts.items():
            for x in range(1, n + 1):
                nxt[tuple(a + x**j for j, a in enumerate(key, 1))] += c
        counts = nxt
    return sum(c * c for c in counts.values())


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

    def spy(elems, groups, chunks):
        dtypes.append(elems.dtype)
        return real(elems, groups, chunks)

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

    def test_renumbered_keys(self, int64_decisions, built_columns):
        # radix products far above int64 over few keys: the keys are
        # renumbered between chunks of digits and the join stays on int64
        sys = validate_system(4, (1, 2, -3, 1, -1))
        w = SetWindow.from_elements(60, (1, 2, 7, 20, 33, 60))
        assert count_solutions(sys, w, "mitm").total == brute_force_tally(sys, w)[0]
        assert int64_decisions[0][1] and not all(ok for _, ok in int64_decisions)
        del int64_decisions[:]
        assert vinogradov_moment(12, 5, 2) == brute_force_moment(12, 5, 2)
        assert int64_decisions[0][1] and not all(ok for _, ok in int64_decisions)
        # two halves, then the moment's one half, each in two chunks or more
        assert len(built_columns) == 3 and min(built_columns) >= 2

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


def _weighted_counts_by_argsort(keys, weights):
    """The distinct keys and their summed weights through an indirect sort:
    the keys and the weights gathered in key order, then summed per run of
    equal keys."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(weights[order], starts)


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_weighted_counts_equal_the_argsort_reference(dtype):
    # one sort of key * 2^bits + weight; keys up to the int64 limit over
    # 2^bits, or to 2^100 on object keys, few distinct ones in some draws so
    # that runs of equal keys are long, and the ordered grid's view of one 1
    rnd = random.Random(26)
    for _ in range(60):
        size, bits = rnd.randint(1, 400), rnd.randint(1, 20)
        top = rnd.choice([3, size, INT64_SAFE >> bits if dtype is np.int64 else 2**100])
        keys = np.array([rnd.randrange(top) for _ in range(size)], dtype=dtype)
        if bits == 1:
            weights = np.broadcast_to(np.ones(1, dtype=dtype), keys.shape)
        else:
            weights = np.array([rnd.randrange(1, 2**bits) for _ in range(size)], dtype=dtype)
        before = keys.tolist(), weights.tolist()
        got = enumeration._weighted_counts(keys, weights, bits)
        want = _weighted_counts_by_argsort(keys, weights)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert all(a.dtype == dtype for a in got)
        assert (keys.tolist(), weights.tolist()) == before  # inputs left as they were


def on_object_cells(count):
    """``count`` with every congruence DP on ``object`` cells."""
    def run(budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local, "fits_int64", lambda bound: False)
            return count(budget)
    return run


@pytest.mark.parametrize(
    "count",
    [
        lambda b: count_solutions(validate_system(2, (1, 1, 1, -1, -1, -1)),
                                  SetWindow.full(60), "mitm", b),
        lambda b: count_solutions(validate_system(2, (2, 1, -1, -1, -1)),
                                  SetWindow.full(60), "mitm", b),
        lambda b: vinogradov_moment(60, 2, 3, b),
        # one group of four: 40,920 multisets for 810,000 ordered tuples
        lambda b: count_solutions(validate_system(3, (1,) * 4 + (-1,) * 4),
                                  SetWindow.full(30), "mitm", b),
        # two halves that each repeat a coefficient, both weighted
        lambda b: count_solutions(validate_system(2, (2, 2, 1, -1, -1, -3)),
                                  SetWindow.full(60), "mitm", b),
        lambda b: count_solutions(validate_system(2, (1, 1, 1, -1, -1, -1)),
                                  SetWindow.full(13), "naive", b),
        # 616,227 solutions, 201,643 to 212,941 for each leading value: the
        # scan classifies them in slices
        lambda b: count_solutions(validate_system(1, (1,) * 7 + (-1,) * 7),
                                  SetWindow.full(3), "naive", b),
        # above 2^62 from here: object scan and object keys
        lambda b: count_solutions(validate_system(5, (1, 1, 1, -1, -1, -1)),
                                  BIG_WINDOW, "naive", b),
        lambda b: count_solutions(validate_system(5, (2, 1, -1, -1, -1)),
                                  BIG_WINDOW, "mitm", b),
        # the congruence count at prime powers, one modulus per call; the
        # symmetry fixes the first variable of each half, so each DP runs its
        # half less that variable.  These three systems are L and -L, so they
        # run one DP: int64 cells, then object cells past 89^12 > 2^62
        lambda b: congruence_count(validate_system(2, (1, 1, 1, -1, -1, -1)), 211, b),
        lambda b: congruence_count(
            validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1)), 41, b),
        lambda b: congruence_count(validate_system(2, (1,) * 6 + (-1,) * 6), 89, b),
        # and two DPs, on systems that are not L and -L, the first half's
        # counts held while the second is built: int64 cells at a modulus
        # where the arrays outweigh the free-list term, then object cells past
        # 37^12 > 2^62, then halves of 4 and 3 stages at k = 3
        lambda b: congruence_count(validate_system(2, (2, 1, -1, -1, -1)), 289, b),
        lambda b: congruence_count(
            validate_system(2, (2, 2, 1, 1, 1, 1, -1, -1, -1, -1, -1, -3)), 37, b),
        lambda b: congruence_count(validate_system(3, (2, 1, 1, -1, -1, -1, -1)), 41, b),
        # the phases each of these sets the peak in: the second half's scatter
        # beside the first half's counts; the read-out of two halves and of
        # one half at k = 3, whose rests of 2 stages scatter into m^2 cells of
        # m^3; and a scatter's object copy beside its int64 bincount (k = 4,
        # cells forced to object)
        lambda b: congruence_count(validate_system(2, (2, 2, 1, -1, -1, -3)), 211, b),
        lambda b: congruence_count(validate_system(3, (3, 1, -1, -1, -1, -1)), 61, b),
        lambda b: congruence_count(validate_system(3, (1, 1, 1, -1, -1, -1)), 61, b),
        on_object_cells(lambda b: congruence_count(
            validate_system(4, (1,) * 5 + (-1,) * 5), 19, b)),
        # the direct series route: its q^k-row arrays, then at k = 1 a modulus
        # where one row block of complete sums outweighs them
        lambda b: series_term_direct(validate_system(2, (1, 1, 1, -1, -1, -1)), 60, b),
        lambda b: series_term_direct(
            validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1)), 30, b),
        lambda b: series_term_direct(validate_system(1, (2, -1, -1)), 1000, b),
    ],
    ids=["mitm_symmetric", "mitm_odd_asymmetric", "moment", "mitm_cubic_multisets",
         "mitm_non_mirrored_weighted", "naive_int64", "naive_dense_matches",
         "naive_object", "mitm_object", "dp_int64", "dp_cubic_int64", "dp_object",
         "dp_full_int64", "dp_full_object", "dp_two_halves_cubic", "dp_held_int64",
         "dp_read_out_int64", "dp_read_out_one_half", "dp_scatter_object",
         "direct_quad6", "direct_cubic8", "direct_linear_block"],
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sys: enumeration.SolutionTally(1, 0, 0),
         "tally invariant total = trivial + nontrivial broken"),
        (lambda sys: list(stream_solutions(sys, SetWindow.full(3), "odd")),
         "unknown filter 'odd'"),
        (lambda sys: vinogradov_moment(0, 2, 1), "need n, k, t >= 1"),
        (lambda sys: vinogradov_moment(3, 0, 1), "need n, k, t >= 1"),
        (lambda sys: vinogradov_moment(3, 2, 0), "need n, k, t >= 1"),
        (lambda sys: greedy_solution_free(sys, 0), "n must be >= 1"),
    ],
    ids=["tally_invariant", "stream_filter", "moment_n0", "moment_k0", "moment_t0",
         "greedy_n0"],
)
def test_input_checks(call, message, sys_quad4):
    with pytest.raises(BadParamsError) as info:
        call(sys_quad4)
    assert str(info.value) == message


def test_empty_window_scans_nothing(sys_quad4):
    window = SetWindow.empty(5)
    assert count_solutions(sys_quad4, window, "naive") == enumeration.SolutionTally(0, 0, 0)
    assert list(stream_solutions(sys_quad4, window)) == []


def test_tally_json_dict():
    tally = enumeration.SolutionTally(2**70, 3, 2**70 - 3)
    assert tally.to_json_dict() == {
        "total": str(2**70), "trivial": "3", "nontrivial": str(2**70 - 3)}


def test_partition_cache_is_bounded():
    assert enumeration._zero_sum_partition_histogram.cache_info().maxsize is not None
