import itertools
import operator
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from circlecount import (
    SetWindow,
    balanced_function,
    difference_sum,
    difference_sum_naive,
    gowers,
    random_density_window,
    uniformity_parameter,
    weyl_chain_check,
)
from circlecount.budget import FLOAT64_EXACT, INT64_SAFE, Budget, fits_float64, fits_int64
from circlecount.errors import BadParamsError, BudgetExceededError


class TestBalancedFunction:
    def test_full_interval_vanishes(self):
        assert all(v == 0 for v in balanced_function(SetWindow.full(9)))

    def test_empty_set_vanishes(self):
        assert all(v == 0 for v in balanced_function(SetWindow.empty(5)))

    def test_singleton(self):
        assert balanced_function(SetWindow.from_elements(2, [1])) == (-1, 1)


class TestDifferenceSum:
    @pytest.mark.parametrize("fn", [difference_sum, difference_sum_naive],
                             ids=["collapse", "naive"])
    def test_degree_below_one_refused(self, fn):
        with pytest.raises(BadParamsError) as info:
            fn(SetWindow.full(6), 0)
        assert str(info.value) == "degree must be >= 1, got 0"

    def test_full_interval_zero(self):
        for k in (1, 2):
            assert difference_sum(SetWindow.full(6), k) == 0

    def test_singleton_hand_value(self):
        assert difference_sum(SetWindow.from_elements(2, [1]), 1) == Fraction(3, 8)

    def test_singleton_reflection_pairs(self):
        # the interval-based sum is not translation invariant (the balanced
        # function's constant part stays pinned to [1, N]); the true symmetry
        # pairs x0 with its mirror N + 1 - x0
        n = 9
        for x0 in (1, 2, 4):
            a = difference_sum(SetWindow.from_elements(n, [x0]), 2)
            b = difference_sum(SetWindow.from_elements(n, [n + 1 - x0]), 2)
            assert a == b
        assert difference_sum(
            SetWindow.from_elements(n, [1]), 2
        ) != difference_sum(SetWindow.from_elements(n, [4]), 2)

    def test_reflection_invariance(self):
        rnd = random.Random(3)
        for _ in range(10):
            n = rnd.randint(3, 12)
            mask = rnd.getrandbits(n) or 1
            w = SetWindow(n, mask)
            mirrored = SetWindow.from_elements(
                n, [n + 1 - x for x in w.elements()]
            )
            assert difference_sum(w, 1) == difference_sum(mirrored, 1)

    def test_nonnegative(self):
        rnd = random.Random(5)
        for _ in range(20):
            n = rnd.randint(2, 14)
            w = SetWindow(n, rnd.getrandbits(n) or 1)
            assert difference_sum(w, 1) >= 0

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            difference_sum(SetWindow.full(4096), 2, Budget(max_ops=10**6))


class TestCollapseIdentity:
    def test_exhaustive_tiny_k1(self):
        n = 8
        for mask in range(1, 1 << n):
            w = SetWindow(n, mask)
            assert difference_sum(w, 1) == difference_sum_naive(w, 1)

    def test_random_k2(self):
        rnd = random.Random(11)
        for _ in range(12):
            n = rnd.randint(3, 12)
            w = SetWindow(n, rnd.getrandbits(n) or 1)
            assert difference_sum(w, 2) == difference_sum_naive(w, 2)

    def test_random_k3(self):
        rnd = random.Random(13)
        for _ in range(4):
            n = rnd.randint(3, 8)
            w = SetWindow(n, rnd.getrandbits(n) or 1)
            assert difference_sum(w, 3) == difference_sum_naive(w, 3)

    def test_exhaustive_tiny_k3(self):
        n = 4
        for mask in range(1, 1 << n):
            w = SetWindow(n, mask)
            assert difference_sum(w, 3) == difference_sum_naive(w, 3)

    def test_random_k4(self):
        # k = 4 is the first degree whose sorted shifts have runs of 2 + 2,
        # 3 + 1 and 4 equal shifts, so every multinomial weight is used
        rnd = random.Random(17)
        for n in (3, 3, 4, 5):
            w = SetWindow(n, rnd.getrandbits(n) or 1)
            assert difference_sum(w, 4) == difference_sum_naive(w, 4)


@pytest.fixture
def collapse_dtypes(monkeypatch):
    """Record the dtype of every collapse recursion difference_sum starts."""
    dtypes = []
    real = gowers._collapse_scaled

    def spy(values, k, dtype):
        dtypes.append(dtype)
        return real(values, k, dtype)

    monkeypatch.setattr(gowers, "_collapse_scaled", spy)
    return dtypes


def _half_window(n: int, seed: int) -> SetWindow:
    """Exactly floor(n/2) elements, so every balanced value has magnitude
    about N/2 and their absolute sum is the largest any window reaches."""
    return SetWindow.from_elements(n, random.Random(seed).sample(range(1, n + 1), n // 2))


def _forced(monkeypatch, window, degree, dtype):
    """difference_sum with the tiers above ``dtype`` (int64 or object) refused."""
    with monkeypatch.context() as m:
        m.setattr(gowers, "fits_float64", lambda bound: False)
        if dtype is object:
            m.setattr(gowers, "fits_int64", lambda bound: False)
        return difference_sum(window, degree)


class TestBigIntegerPath:
    @pytest.mark.parametrize("degree, sizes", [
        (1, (2, 9, 30)), (2, (3, 8, 20)), (3, (3, 6, 12)), (4, (3, 4, 12)),
    ], ids=["k1", "k2", "k3", "k4"])
    def test_forced_object_path_agrees(self, monkeypatch, collapse_dtypes,
                                       degree, sizes):
        # the default tier, forced int64 and forced big integers agree
        rnd = random.Random(degree)
        windows = [SetWindow(n, rnd.getrandbits(n) or 1) for n in sizes]
        expected = [difference_sum(w, degree) for w in windows]
        assert collapse_dtypes == [
            np.float64 if w.length ** (2**degree + 1) < FLOAT64_EXACT else np.int64
            for w in windows
        ]
        for dtype in (np.int64, object):
            del collapse_dtypes[:]
            got = [_forced(monkeypatch, w, degree, dtype) for w in windows]
            assert got == expected
            assert set(collapse_dtypes) == {dtype}
        for w, ds in zip(windows, expected):
            if w.length ** (degree + 1) <= 10**4:
                assert ds == difference_sum_naive(w, degree)

    @pytest.mark.parametrize("degree, largest", [(3, 59), (4, 8), (2, 1552)])
    def test_float64_boundary(self, collapse_dtypes, degree, largest):
        # float64 holds N^(2^k + 1) exactly up to ``largest``; one past it, a
        # density-1/2 window's sums still fit, so every tier must agree on
        # both sides (big integers only where they finish quickly)
        assert largest ** (2**degree + 1) < FLOAT64_EXACT
        assert (largest + 1) ** (2**degree + 1) >= FLOAT64_EXACT
        for n, dtype in ((largest, np.float64), (largest + 1, np.int64)):
            w = _half_window(n, seed=n)
            ds = difference_sum(w, degree)
            assert collapse_dtypes.pop() is dtype
            values = balanced_function(w)
            others = {np.float64, np.int64, object} - {dtype}
            if degree == 2:
                others.discard(object)
            for other in others:
                scaled = gowers._collapse_scaled(values, degree, other)
                assert ds == Fraction(scaled, n ** (2 ** (degree + 1)))

    @pytest.mark.parametrize("degree, largest", [(3, 118), (4, 12)])
    def test_dtype_boundary(self, collapse_dtypes, degree, largest):
        # N^(2^k + 1) bounds every value the int64 recursion forms; one past
        # the bound, a density-1/2 window's values still fit, so int64 and
        # big integers must agree on both sides
        assert largest ** (2**degree + 1) < INT64_SAFE
        assert (largest + 1) ** (2**degree + 1) >= INT64_SAFE
        for n, dtype, other in ((largest, np.int64, object),
                                (largest + 1, object, np.int64)):
            w = random_density_window(n, 0.5, seed=n)
            ds = difference_sum(w, degree)
            assert collapse_dtypes.pop() is dtype
            values = balanced_function(w)
            scaled = gowers._collapse_scaled(values, degree, other)
            assert ds == Fraction(scaled, n ** (2 ** (degree + 1)))

    def test_benchmark_sizes_run_on_float64(self, collapse_dtypes):
        # work gate: the sizes of the uniformity sweep stay on the float64
        # tier, so a fall back to int64 fails here on any host
        difference_sum(random_density_window(768, 0.5, seed=1), 2)
        weyl_chain_check(random_density_window(4096, 0.5, seed=2), 1, [(0.25,)])
        assert collapse_dtypes == [np.float64, np.float64]


def _sign_only_collapse(values, k: int, dtype) -> int:
    """The collapse recursion that uses only the sign symmetry of the shifts:
    each product level runs over w >= 0 and doubles the w > 0 terms, and the
    leaf squares its full autocorrelation."""

    def rec(c, depth):
        if depth == 1:
            ac = np.correlate(c, c, "full")[len(c) - 1 :]
            if ac.dtype == np.float64:
                ac = ac.astype(np.int64)
            ac = ac.tolist()
            return 2 * sum(map(operator.mul, ac, ac)) - ac[0] ** 2
        n = len(c)
        shifted = sum(rec(c[w:] * c[: n - w], depth - 1) for w in range(1, n))
        return rec(c * c, depth - 1) + 2 * shifted

    return rec(np.asarray(values, dtype=dtype), k)


def _admissible_dtypes(n: int, k: int) -> list:
    bound = n ** (2**k + 1)
    dtypes = [object]
    if fits_int64(bound):
        dtypes.append(np.int64)
    if fits_float64(bound):
        dtypes.append(np.float64)
    return dtypes


@pytest.fixture
def correlations(monkeypatch):
    """Record (len(a), len(v)) of every np.correlate call."""
    sizes = []
    real = np.correlate

    def spy(a, v, mode):
        sizes.append((len(a), len(v)))
        return real(a, v, mode)

    monkeypatch.setattr(np, "correlate", spy)
    return sizes


def _leaf_sizes(n: int, k: int) -> list:
    """Leaf length p = n - (k u_1 + (k-1) u_2 + ... + 2 u_{k-1}) wherever it is
    positive, over the gaps u_j = w_j - w_{j-1} >= 0 of the sorted shifts."""
    sizes = (n - sum(map(operator.mul, range(k, 1, -1), gaps))
             for gaps in itertools.product(range(n), repeat=k - 1))
    return [p for p in sizes if p >= 1]


class TestSortedShiftCollapse:
    @pytest.mark.parametrize("degree, sizes", [
        (1, (1, 2, 17, 60)), (2, (1, 3, 12, 40)), (3, (2, 7, 20, 59, 60)),
        (4, (2, 5, 8, 9)),
    ], ids=["k1", "k2", "k3", "k4"])
    def test_equals_sign_only_recursion(self, degree, sizes):
        # empty, full, singleton and seeded windows on every admissible dtype;
        # 59 at k = 3 and 8 at k = 4 are the last float64 sizes
        rnd = random.Random(100 + degree)
        for n in sizes:
            windows = [SetWindow.empty(n), SetWindow.full(n),
                       SetWindow.from_elements(n, [rnd.randint(1, n)]),
                       SetWindow(n, rnd.getrandbits(n)),
                       random_density_window(n, 0.5, seed=n)]
            for w in windows:
                values = balanced_function(w)
                for dtype in _admissible_dtypes(n, degree):
                    assert gowers._collapse_scaled(values, degree, dtype) == (
                        _sign_only_collapse(values, degree, dtype)), (n, dtype)

    @pytest.mark.parametrize("degree, n", [(2, 200), (3, 40)])
    def test_leaf_work(self, correlations, degree, n):
        # work gate: one leaf correlation of two length-p slices per sorted
        # shift tuple, so a fall back to the sign-only recursion fails here
        # whatever the host speed
        w = random_density_window(n, 0.5, seed=n)
        difference_sum(w, degree)
        leaves = _leaf_sizes(n, degree)
        assert all(a == v for a, v in correlations)
        assert len(correlations) == len(leaves)
        assert sum(a * v for a, v in correlations) == sum(p * p for p in leaves)
        if degree == 2:
            # N/2 leaves of lengths N, N - 2, ..., 2 at even N
            assert len(leaves) == n // 2
            assert sum(p * p for p in leaves) == n * (n + 1) * (n + 2) // 6
        else:
            # the sign-only recursion has N(N+1)/2 leaves at k = 3
            sorted_calls = len(correlations)
            del correlations[:]
            _sign_only_collapse(balanced_function(w), degree, np.float64)
            assert len(correlations) == n * (n + 1) // 2
            assert 3 * sorted_calls <= len(correlations)

    @pytest.mark.parametrize("degree, n", [(2, 200), (3, 100)])
    def test_buffer_flushes_during_the_call(self, monkeypatch, degree, n):
        # the leaves hold more lags than two chunks, so the buffer is squared
        # in batches during the call, each below _CHUNK + N lags, and every
        # lag is squared once
        batches = []
        real = gowers._square_sum

        def spy(a):
            batches.append(len(a))
            return real(a)

        monkeypatch.setattr(gowers, "_square_sum", spy)
        leaves = sum(_leaf_sizes(n, degree))
        assert leaves > 2 * (gowers._CHUNK + n)
        values = balanced_function(random_density_window(n, 0.5, seed=n))
        for dtype in (np.float64, np.int64):
            del batches[:]
            assert gowers._collapse_scaled(values, degree, dtype) == (
                _sign_only_collapse(values, degree, dtype)), dtype
            assert sum(batches) == leaves
            assert max(batches) < gowers._CHUNK + n

    def test_oracles_do_not_call_the_square_sum(self, monkeypatch):
        def refused(a):
            raise AssertionError("an oracle squared through the fast path")

        w = random_density_window(9, 0.5, seed=1)
        expected = difference_sum(w, 2)
        monkeypatch.setattr(gowers, "_square_sum", refused)
        assert difference_sum_naive(w, 2) == expected
        values = balanced_function(w)
        assert Fraction(_sign_only_collapse(values, 2, np.float64), 9**8) == expected


def test_collapse_memory_is_bounded_by_the_chunk():
    # the leaf buffer holds under _CHUNK + N lags, not all the leaves' lags
    # (N^2/4 at k = 2): from N = 768 to 1,552 those grow 4-fold, and the
    # traced peak about 1.3-fold
    difference_sum(random_density_window(64, 0.5, seed=1), 2)  # warm outside the trace
    peaks = []
    for n in (768, 1552):
        w = random_density_window(n, 0.5, seed=n)
        tracemalloc.start()
        try:
            difference_sum(w, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 8 * sum(_leaf_sizes(1552, 2)) / 10


def _bit_length_steps(top: int) -> list:
    """Lengths 2^j - 1 and 2^j, either side of each step of bit_length(len)."""
    return sorted({n for j in range(top + 1) for n in (2**j - 1, 2**j) if n})


class TestSquareSum:
    @pytest.mark.parametrize("n", _bit_length_steps(19))
    def test_equals_python_integers(self, n):
        # b = floor((62 - bit_length(n)) / 2) is the limb width at this length;
        # magnitudes below 2^b take one limb, the others two or three
        b = (62 - n.bit_length()) // 2
        magnitudes = [0, 2**b - 1, 2**b, 2**52, 2**53, 2**62 - 1]
        rng = np.random.default_rng(n)
        signs = rng.choice([-1, 1], size=n)
        cases = [
            np.full(n, 2**62 - 1) * signs,
            np.array([magnitudes[1]] * n) * signs,
            rng.choice(magnitudes[:2], size=n) * signs,
            rng.choice(magnitudes, size=n) * signs,
            rng.integers(-(2**62) + 1, 2**62, size=n),
        ]
        for a in cases:
            assert a.dtype == np.int64
            assert gowers._square_sum(a) == sum(x * x for x in a.tolist())


class TestUniformityParameter:
    def test_full_interval(self):
        rep = uniformity_parameter(SetWindow.full(16), 2)
        assert rep.parameter == 0

    def test_singleton_value(self):
        rep = uniformity_parameter(SetWindow.from_elements(2, [1]), 1)
        assert rep.parameter == Fraction(3, 64)

    def test_random_half_density_in_range(self):
        for seed in range(5):
            w = random_density_window(64, 0.5, seed=seed)
            rep = uniformity_parameter(w, 2)
            assert 0 < rep.parameter <= 1


class TestWeylChain:
    def test_full_interval_all_zero(self):
        rep = weyl_chain_check(SetWindow.full(16), 2, [(0.3, 0.7), (0.1, 0.9)])
        assert rep.max_ratio == 0.0
        assert rep.chain_holds and rep.supnorm_holds

    def test_singleton_at_zero_phase(self):
        rep = weyl_chain_check(SetWindow.from_elements(2, [1]), 1, [(0.0,)])
        assert rep.chain_holds and rep.supnorm_holds
        assert rep.max_ratio == 0.0  # E(0) = 0 always

    def test_random_phases_bounded(self):
        rng = np.random.default_rng(17)
        w = random_density_window(48, 0.4, seed=2)
        phases = rng.uniform(0.0, 1.0, size=(200, 2)).tolist()
        rep = weyl_chain_check(w, 2, phases)
        assert rep.chain_holds and rep.supnorm_holds
        assert rep.max_ratio <= 1.0

    def test_violations_are_reported(self, monkeypatch):
        # sums above the chain's root ((2N)^(p-k-2) D)^(1/p), p = 8, then
        # above the sup-norm bound: the chain bound is the sharper of the
        # two, so the first sums break it alone
        w = random_density_window(48, 0.4, seed=2)
        par = uniformity_parameter(w, 2)
        chain_root = (96.0 ** 4 * float(par.difference_sum)) ** (1 / 8)
        bound = 2.0 * float(par.parameter) ** (1 / 8) * 48
        assert chain_root < bound
        for values, sup in (([0j, 1.01j * chain_root], True),
                            ([1.01 * bound + 0j, 0.5j * bound], False)):
            monkeypatch.setattr(gowers, "eval_E_batch", lambda window, phases: values)
            rep = weyl_chain_check(w, 2, [(0.1, 0.2)] * len(values))
            assert not rep.chain_holds and rep.supnorm_holds == sup
            assert rep.max_ratio == max(abs(v) for v in values) / bound

    @pytest.mark.parametrize("degree", [7, 8])
    def test_chain_past_the_float_range(self, monkeypatch, degree):
        # (2N)^(p-k-2) and |E|^p overflow a float from degree 7 on, so the
        # chain is compared in logarithms; its root ((2N)^(p-k-2) D)^(1/p)
        # is formed here in Decimal
        w = random_density_window(16, 0.5, seed=1)
        phases = np.random.default_rng(degree).uniform(size=(20, degree)).tolist()
        rep = weyl_chain_check(w, degree, phases)
        assert rep.chain_holds and rep.supnorm_holds and 0 < rep.max_ratio <= 1
        p = 2 ** (degree + 1)
        ds = uniformity_parameter(w, degree).difference_sum
        root = float((Decimal(32) ** (p - degree - 2) * Decimal(ds.numerator)
                      / Decimal(ds.denominator)) ** (Decimal(1) / p))
        for scale, holds in ((0.99, True), (1.01, False)):
            values = [0j, scale * root + 0j]
            monkeypatch.setattr(gowers, "eval_E_batch", lambda window, phases: values)
            assert weyl_chain_check(w, degree, phases[:2]).chain_holds == holds

    def test_parameter_below_the_float_range(self):
        # at degree 10 and N = 8 the parameter is below 2^-1074, so float()
        # of it is 0; the sup-norm bound 2 a^(1/p) N still holds
        w = random_density_window(8, 0.5, seed=1)
        phases = np.random.default_rng(10).uniform(size=(5, 10)).tolist()
        rep = weyl_chain_check(w, 10, phases)
        assert float(rep.parameter) == 0.0 < rep.parameter
        assert rep.chain_holds and rep.supnorm_holds
        bound = 16 * (Decimal(rep.parameter.numerator) / Decimal(rep.parameter.denominator)) ** (
            Decimal(1) / 2**11)
        largest = max(abs(e) for e in gowers.eval_E_batch(w, phases))
        assert rep.max_ratio == pytest.approx(largest / float(bound), rel=1e-12)
