import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from circlecount import (
    SetWindow,
    classify_arc,
    complete_sum,
    delta_exponent,
    eval_E,
    eval_E_batch,
    eval_f,
    eval_g,
    expsums,
    major_arc_approx_check,
    oscillatory_w,
    random_density_window,
    sigma_exponent,
    weyl_chain_check,
)
from circlecount.budget import Budget
from circlecount.errors import BadDegreeError, BadParamsError, BudgetExceededError
from circlecount.expsums import (
    _ARC_ROWS,
    TWO_PI,
    ArcLabel,
    complete_sums,
    reduce_phase,
)
from circlecount.gowers import uniformity_parameter

from conftest import closed_form_w_linear


class TestEvalG:
    def test_zero_phase(self):
        assert eval_g(7, (0.0,)) == 7

    def test_half_phase_cancels(self):
        assert abs(eval_g(2, (0.5,))) < 1e-12

    def test_triangle_inequality(self):
        rnd = random.Random(1)
        for _ in range(50):
            n = rnd.randint(1, 40)
            alpha = (rnd.random(), rnd.random())
            assert abs(eval_g(n, alpha)) <= n + 1e-9


class TestEvalFAndE:
    def test_f_at_zero_is_cardinality(self):
        w = SetWindow.from_elements(10, [2, 3, 5, 7])
        assert eval_f(w, (0.0, 0.0)) == 4

    def test_full_window_matches_g(self):
        w = SetWindow.full(9)
        alpha = (0.123, 0.456)
        assert eval_f(w, alpha) == eval_g(9, alpha)

    def test_empty_window(self):
        assert eval_f(SetWindow.empty(5), (0.1,)) == 0

    def test_E_at_zero(self):
        w = SetWindow.from_elements(12, [1, 4, 9])
        assert abs(eval_E(w, (0.0, 0.0))) < 1e-12

    def test_E_full_window_identically_zero(self):
        w = SetWindow.full(8)
        for alpha in [(0.3, 0.7), (0.99, 0.01)]:
            assert eval_E(w, alpha) == 0

    def test_E_singleton_half_phase(self):
        # delta*g(1/2) - e(1/2) = 0 - (-1) = 1
        w = SetWindow.from_elements(2, [1])
        assert eval_E(w, (0.5,)) == pytest.approx(1.0)

    def test_E_matches_balanced_sum(self):
        # identity: the balanced-function sum E equals delta g - f,
        # at 10^4 random (window, alpha) pairs
        rnd = random.Random(23)
        windows = [
            random_density_window(rnd.randint(2, 32), rnd.random(), seed=i)
            for i in range(100)
        ]
        for _ in range(100):
            w = rnd.choice(windows)
            for _ in range(100):
                alpha = (rnd.random(), rnd.random())
                lhs = eval_E(w, alpha)
                rhs = (w.cardinality / w.length) * eval_g(w.length, alpha) - eval_f(w, alpha)
                assert abs(lhs - rhs) <= 1e-9 * w.length


def _literal_exp_sum(points, alpha, weights=None):
    """One phase point, written out.  A linear row on integer points (every
    component past alpha_1 zero) is ``_literal_linear_sum``; any other row
    forms the whole row's phase, its terms from the term kernel, and one
    pairwise tree over all of them (adjacent pairs, a zero appended to odd
    levels)."""
    x = np.asarray(points)
    if x.size and x.dtype.kind in "iu" and not any(alpha[1:]):
        return _literal_linear_sum(x, alpha[0] if alpha else 0.0, weights)
    x = x.astype(np.float64)
    phase = np.zeros(len(x), dtype=np.float64)
    for j, aj in enumerate(alpha, start=1):
        if aj != 0.0:
            phase += aj * x**j
    a = expsums._e_terms(phase)
    if weights is not None:
        a = weights * a
    return _literal_tree(a)


def _literal_linear_sum(x, a1, weights=None):
    """sum w(x) e(a1 x) over integer points, written out: x = 64 a + b, the
    weights (or ones) at row a, column b of a zero grid, U[a] = e(64 a1 a)
    and V[b] = e(a1 b) from the term kernel, one tree over b per grid row,
    each sum times U[a], and one tree over a."""
    top = int(x.max()) // 64 + 1
    grid = np.zeros((top, 64))
    for i, xi in enumerate(x.tolist()):
        grid[xi // 64, xi % 64] = 1.0 if weights is None else weights[i]
    u = expsums._e_terms(a1 * (64.0 * np.arange(top)))
    v = expsums._e_terms(a1 * np.arange(64.0))
    rows = np.array([_literal_tree(grid[a] * v) for a in range(top)])
    return _literal_tree(rows * u)


def _literal_tree(a):
    """One pairwise tree over all terms: adjacent pairs, a zero appended to
    odd levels."""
    if a.size == 0:
        return 0j
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a, np.zeros(1, dtype=np.complex128)])
        a = a[0::2] + a[1::2]
    return complex(a[0])


def _literal_complete_sum(q, a, lam):
    """S(q, lam a) as a per-m loop: the exact residue of each term from
    running powers of m mod q, one root of unity each, then one tree."""
    b = [lam * aj % q for aj in a]
    roots = [cmath.exp(TWO_PI * 1j * r / q) for r in range(q)]
    terms = []
    for m in range(1, q + 1):
        r = 0
        mp = 1
        for bj in b:
            mp = mp * m % q
            r = (r + bj * mp) % q
        terms.append(roots[r])
    return _literal_tree(np.array(terms, dtype=np.complex128))


def _literal_E(window, alpha):
    """E at one phase point as its definition: the weights
    (|A| - N 1_A(x)) / N times the terms over 1..N, in one tree."""
    n = window.length
    weights = np.array(
        [window.cardinality - n * (window.mask >> (x - 1) & 1) for x in range(1, n + 1)],
        dtype=np.float64,
    ) / n
    return _literal_exp_sum(np.arange(1, n + 1), reduce_phase(alpha), weights)


def _arc_membership_brute_force(alpha, n, k, exponent_override=None):
    """Set-theoretic major-arc membership: every q up to N^delta and every
    numerator vector in [0, q]^k coprime to q, tested against the box
    |q alpha_j - a_j| <= N^(delta - j)."""
    delta = exponent_override if exponent_override is not None else delta_exponent(k)
    a_red = reduce_phase(alpha)
    for q in range(1, max(1, math.floor(n**delta + 1e-12)) + 1):
        for nums in itertools.product(range(q + 1), repeat=k):
            if math.gcd(q, *nums) == 1 and all(
                abs(q * aj - aq) <= float(n) ** (delta - j) + 1e-15
                for j, (aj, aq) in enumerate(zip(a_red, nums), start=1)
            ):
                return True
    return False


def _literal_classify_arc(alpha, n, k, exponent_override=None):
    """The arc scan one q at a time: round each q alpha_j, test the box
    |q alpha_j - a_j| <= N^(delta - j), and reduce the first pair that passes."""
    delta = exponent_override if exponent_override is not None else delta_exponent(k)
    a_red = reduce_phase(alpha)
    qmax = max(1, math.floor(float(n) ** delta + 1e-12))
    for q in range(1, qmax + 1):
        nums = [round(q * aj) for aj in a_red]
        if all(abs(q * aj - aq) <= float(n) ** (delta - j) + 1e-15
               for j, (aj, aq) in enumerate(zip(a_red, nums), start=1)):
            beta = tuple(aj - aq / q for aj, aq in zip(a_red, nums))
            g = math.gcd(q, *(abs(x) for x in nums)) if nums else q
            return ArcLabel(q // g, tuple((x // g) % (q // g) for x in nums), beta)
    return None


def _hex(z):
    return (z.real.hex(), z.imag.hex())


class TestTermKernel:
    def test_within_four_ulps_of_complex_exp(self):
        # e(theta) against exp(i t) at t = fl(2 pi theta), the angle the
        # kernel reduces, for |t| from 2^-10 to 2^52
        rng = np.random.default_rng(28)
        worst = 0.0
        for e in range(-10, 53):
            theta = rng.uniform(-1.0, 1.0, 4096) * 2.0**e / TWO_PI
            want = np.exp(1j * (TWO_PI * theta))
            worst = max(worst, float(np.abs(expsums._e_terms(theta) - want).max()))
        assert worst <= 4 * 2.0**-53


class TestBatchedSums:
    """The batched sum runs in blocks of at most 4096 terms; every value must
    be bit-for-bit the one-phase literal sum."""

    @staticmethod
    def _phases(rnd, count, k):
        # about a third of the components are exactly zero
        return [tuple(rnd.choice([0.0, rnd.random(), rnd.uniform(-2.0, 2.0)])
                      for _ in range(k)) for _ in range(count)]

    def test_batch_equals_literal_per_phase(self):
        rnd = random.Random(53)
        cases = [
            (random_density_window(1000, 0.4, seed=1), 1, 23),  # linear rows
            (random_density_window(9000, 0.5, seed=2), 1, 3),  # linear rows
            (random_density_window(1000, 0.4, seed=1), 2, 23),  # 4 rows a block
            (random_density_window(9000, 0.5, seed=2), 2, 3),  # 3 column blocks
            (random_density_window(4096, 0.5, seed=5), 1, 23),  # 3 linear rows a block
            (random_density_window(40000, 0.5, seed=6), 1, 2),  # 3 grid blocks a row, one partial
            (random_density_window(700, 0.3, seed=3), 3, 17),
            (SetWindow.empty(300), 2, 5),
            (SetWindow.full(300), 2, 5),
            (SetWindow.full(1), 3, 4),
            (random_density_window(17, 0.5, seed=4), 2, 6),  # odd length
        ]
        for w, k, count in cases:
            phases = self._phases(rnd, count, k) + [(0.0,) * k]
            got = eval_E_batch(w, phases)
            assert [_hex(z) for z in got] == [_hex(_literal_E(w, a)) for a in phases]
        assert eval_E_batch(SetWindow.full(5), []) == []

    def test_one_row_calls_equal_literal(self):
        rnd = random.Random(59)
        for n in (1, 17, 4096, 4097, 10000):
            w = random_density_window(n, rnd.random(), seed=n)
            for alpha in self._phases(rnd, 3, 3):
                red = reduce_phase(alpha)
                xs = np.arange(1, n + 1)
                assert _hex(eval_g(n, alpha)) == _hex(_literal_exp_sum(xs, red))
                assert _hex(eval_f(w, alpha)) == _hex(_literal_exp_sum(w.elements(), red))
                assert _hex(eval_E(w, alpha)) == _hex(_literal_E(w, alpha))

    def test_empty_rows_sum_to_exact_zero(self):
        # the padded tree of an empty row is one exact zero, so pairwise_sum
        # of an empty array is 0j with no branch of its own
        for width in (1, 2, 8):
            got = expsums._tree_sums(np.zeros((3, 0), dtype=np.complex128), width)
            assert got.tolist() == [0j] * 3
        assert expsums.pairwise_sum(np.array([])) == 0j

    def test_E_batch_is_one_weighted_pass(self, monkeypatch):
        # one phase sum over 1..N with the balanced weights, not g and f
        calls, real = [], expsums._exp_sum

        def spy(points, phases, weights=None):
            calls.append((points, weights))
            return real(points, phases, weights)

        monkeypatch.setattr(expsums, "_exp_sum", spy)
        w = random_density_window(300, 0.4, seed=5)
        eval_E_batch(w, self._phases(random.Random(67), 9, 2))
        assert len(calls) == 1
        points, weights = calls[0]
        assert points.tolist() == list(range(1, 301))
        assert weights.tolist() == [(w.cardinality - 300 * (w.mask >> (x - 1) & 1)) / 300
                                    for x in range(1, 301)]
        assert not hasattr(expsums, "eval_E_balanced")

    def test_weyl_chain_equals_per_phase_loop(self):
        rnd = random.Random(61)
        for n, k in ((5000, 1), (300, 2)):
            w = random_density_window(n, 0.5, seed=k)
            phases = self._phases(rnd, 20, k)
            rep = weyl_chain_check(w, k, phases)
            par = uniformity_parameter(w, k)
            p = 2 ** (k + 1)
            chain_rhs = float(2 * n) ** (p - k - 2) * float(par.difference_sum)
            bound = 2.0 * float(par.parameter) ** (1.0 / p) * n
            e_abs = [abs(eval_E(w, a)) for a in phases]
            slack = 1.0 + 1e-9
            assert rep.samples == len(phases) and rep.parameter == par.parameter
            assert rep.chain_holds == all(e**p <= chain_rhs * slack + 1e-12 for e in e_abs)
            assert rep.supnorm_holds == all(e <= bound * slack + 1e-12 for e in e_abs)
            assert rep.max_ratio.hex() == max(e / bound for e in e_abs).hex()


def _exact_linear_sum(points, alpha, weights=None):
    """sum w(x) e(alpha x) with every phase reduced exactly: alpha = m/d as
    a Fraction, m x mod d in integers, then one correctly rounded division,
    cos and sin, and math.fsum.  Its own error is a few 2^-53 per term."""
    frac = Fraction(alpha)
    m, d = frac.numerator, frac.denominator
    re, im = [], []
    for i, x in enumerate(points):
        t = TWO_PI * (m * x % d / d)
        w = 1.0 if weights is None else float(weights[i])
        re.append(w * math.cos(t))
        im.append(w * math.sin(t))
    return complex(math.fsum(re), math.fsum(im))


def _linear_bound(points, alpha, weights=None):
    """The error that ``_linear_sums`` states, plus the oracle's: per term
    12 * 2^-53 |w| for the two kernel terms and the two products, an angle
    rounding of 3 * 2^-53 |2 pi alpha x| (phase, 2 pi and t) summed over the
    two angles, and 2 * 2^-53 |w| per level of the two trees, plus 8 * 2^-53
    |w| for the oracle."""
    x = np.asarray(points, dtype=np.float64)
    w = np.ones(len(x)) if weights is None else np.abs(np.asarray(weights))
    levels = 6 + (int(x.max()) // 64).bit_length()
    per_term = 12 + 2 * levels + 8 + 3 * TWO_PI * abs(alpha) * x
    return 2.0**-53 * float((w * per_term).sum())


class TestLinearRows:
    """Degree-1 rows on integer points: x = 64 a + b, e(alpha x) = U[a] V[b]."""

    SIZES = (1, 63, 64, 65, 4096, 4097, 10**5)

    def test_within_stated_bound_of_exact_phases(self):
        rnd = random.Random(31)
        for n in self.SIZES:
            if n == 10**5:  # a seeded 1% subsample of 1..N as the window
                w = SetWindow.from_elements(n, rnd.sample(range(1, n + 1), 1000))
            else:
                w = random_density_window(n, 0.5, seed=n)
            xs = range(1, n + 1)
            weights = [(w.cardinality - n * (w.mask >> (x - 1) & 1)) / n for x in xs]
            phases = [(rnd.random(),), (rnd.uniform(-3.0, 3.0),), (0.5,), (1.0 / 3.0,)]
            for alpha in phases[: 2 if n == 10**5 else 4]:
                a = reduce_phase(alpha)[0]
                elems = w.elements()
                for got, want, bound in (
                    (eval_g(n, alpha), _exact_linear_sum(xs, a), _linear_bound(xs, a)),
                    (eval_f(w, alpha), _exact_linear_sum(elems, a),
                     _linear_bound(elems, a) if elems else 0.0),
                    (eval_E(w, alpha), _exact_linear_sum(xs, a, weights),
                     _linear_bound(xs, a, weights)),
                ):
                    assert abs(got - want) <= bound, (n, alpha, abs(got - want), bound)

    def test_row_has_the_same_bits_in_a_mixed_block(self):
        rnd = random.Random(37)
        w = random_density_window(5000, 0.5, seed=9)
        for _ in range(5):
            a, b, c = rnd.random(), rnd.random(), rnd.uniform(-2.0, 2.0)
            block = [(b, c, 0.0), (a, 0.0, 0.0), (0.0, 0.0, c), (a, b, c), (c, 0.0, 0.0)]
            got = eval_E_batch(w, block)
            assert _hex(got[1]) == _hex(eval_E(w, (a, 0.0, 0.0))) == _hex(eval_E(w, (a,)))
            assert _hex(got[4]) == _hex(eval_E(w, (c,)))
            assert [_hex(z) for z in got] == [_hex(_literal_E(w, p)) for p in block]

    def test_blocking_leaves_bits_unchanged(self, monkeypatch):
        w = random_density_window(40000, 0.5, seed=11)
        phases = [(random.Random(41).random(),) for _ in range(3)]
        want = [_hex(z) for z in eval_E_batch(w, phases)]
        for block in (64, 64 * 7, 64 * 1000):  # one grid row, 7 rows, a whole row
            monkeypatch.setattr(expsums, "_LINEAR_BLOCK", block)
            assert [_hex(z) for z in eval_E_batch(w, phases)] == want

    def test_memory_does_not_grow_with_rows(self):
        # 3,000 rows at N = 4,096: one block of grid cells at a time, and
        # besides it only the grid and one complex result per row
        x = np.arange(1, 4097)
        alpha = np.random.default_rng(43).random(3000)
        tracemalloc.start()
        try:
            expsums._linear_sums(x, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * expsums._LINEAR_BLOCK + 8 * 65 * 64 + 16 * len(alpha)

    def test_sparse_window_follows_the_linear_rule(self, monkeypatch):
        w = SetWindow.from_elements(20000, [3, 64, 700, 7001, 19999])
        calls, real = [], expsums._linear_sums
        monkeypatch.setattr(expsums, "_linear_sums",
                            lambda *args: calls.append(args[0].tolist()) or real(*args))
        for alpha in ((0.1234,), (0.75, 0.0)):
            got = eval_f(w, alpha)
            assert _hex(got) == _hex(_literal_linear_sum(np.array(w.elements()), alpha[0]))
        assert calls == [list(w.elements())] * 2

    def test_quadrature_sums_on_float_nodes(self, monkeypatch):
        # oscillatory_w at k = 1 keeps the direct phase sum on its float nodes
        seen = []
        real = expsums._power_sums
        monkeypatch.setattr(expsums, "_linear_sums", None)  # any call would raise
        monkeypatch.setattr(expsums, "_power_sums",
                            lambda x, *rest: seen.append(x.dtype) or real(x, *rest))
        got = oscillatory_w(50, (0.37,))
        assert abs(got - closed_form_w_linear(50, 0.37)) <= 1e-10 * 50
        assert seen and set(seen) == {np.dtype(np.float64)}


class TestCompleteSum:
    def test_q_one(self):
        assert complete_sum(1, (0, 0)) == 1

    def test_equals_literal_loop_bit_for_bit(self):
        # every b, one row at a time and as one table
        for k, qmax in ((1, 30), (2, 30), (3, 15)):
            for q in range(1, qmax + 1):
                vecs = np.indices((q,) * k).reshape(k, -1).T
                for lam in (1, -3):
                    table = complete_sums(q, lam * vecs % q).tolist()
                    for b, row in zip(vecs.tolist(), table):
                        want = _hex(_literal_complete_sum(q, b, lam))
                        got = complete_sum(q, [lam * bj % q for bj in b])
                        assert _hex(got) == want, (q, b, lam)
                        assert _hex(row) == want, (q, b, lam)

    def test_refuses_residues_past_int64(self):
        # k q^2 = 2^63 at k = 2: refused before the powers and roots are formed
        with pytest.raises(BudgetExceededError):
            complete_sum(2**31, (1, 1))

    def test_quadratic_gauss_sum_q3(self):
        s = complete_sum(3, (0, 1))  # phase m^2 / 3
        expected = 1 + 2 * cmath.exp(2j * math.pi / 3)
        assert abs(s - expected) < 1e-12
        assert abs(s) == pytest.approx(math.sqrt(3))

    def test_q2_all_ones(self):
        assert complete_sum(2, (1, 1)) == pytest.approx(2.0)

    def test_magnitude_bound_and_shift_invariance(self):
        rnd = random.Random(4)
        for _ in range(40):
            q = rnd.randint(1, 30)
            a = tuple(rnd.randint(-10, 10) for _ in range(2))
            s = complete_sum(q, a)
            assert abs(s) <= q + 1e-9
            shifted = tuple(x + q * rnd.randint(-2, 2) for x in a)
            assert abs(s - complete_sum(q, shifted)) < 1e-12

    def test_gauss_modulus_odd_primes(self):
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97]
        for p in primes:
            for a in (1, 2, p - 1):
                s = complete_sum(p, (0, a))
                assert abs(s) == pytest.approx(math.sqrt(p), rel=1e-9)

    def test_conjugation(self):
        rnd = random.Random(6)
        for _ in range(30):
            q = rnd.randint(1, 25)
            a = tuple(rnd.randint(0, q) for _ in range(3))
            s = complete_sum(q, a)
            neg = complete_sum(q, tuple(-x for x in a))
            assert abs(neg - s.conjugate()) <= 1e-12 * q


class TestOscillatoryW:
    def test_zero_beta_exact(self):
        assert oscillatory_w(137, (0.0, 0.0)) == 137

    def test_linear_closed_form(self):
        rnd = random.Random(8)
        for _ in range(40):
            n = rnd.randint(1, 120)
            b = rnd.uniform(-2.0, 2.0)
            got = oscillatory_w(n, (b,))
            assert abs(got - closed_form_w_linear(n, b)) <= 1e-10 * n

    def test_riemann_sum_oracle_k2(self):
        rnd = random.Random(12)
        n = 100
        ts = (np.arange(10**6) + 0.5) * (n / 10**6)
        for _ in range(5):
            beta = (rnd.uniform(-0.01, 0.01), rnd.uniform(-0.001, 0.001))
            oracle = np.exp(
                2j * np.pi * (beta[0] * ts + beta[1] * ts**2)
            ).sum() * (n / 10**6)
            got = oscillatory_w(n, beta)
            assert abs(got - oracle) <= 1e-6 * n

    def test_table_is_leggauss_12_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        for table, expected in ((expsums._GL_NODES, nodes), (expsums._GL_WEIGHTS, weights)):
            assert table.dtype == expected.dtype and table.shape == expected.shape
            assert table.tobytes() == expected.tobytes()


class TestArcs:
    def test_exact_rational_center(self):
        # alpha = (1/2, 1/3) with override exponent large enough to admit q=6
        label = classify_arc((0.5, 1 / 3), 100, 2, exponent_override=0.5)
        assert label is not None
        assert label.q == 6
        assert label.numerators == (3, 2)
        assert max(abs(b) for b in label.beta) < 1e-12

    def test_zero_is_major(self):
        label = classify_arc((0.0, 0.0), 10**6, 2)
        assert label is not None
        assert label.q == 1 and label.numerators == (0, 0)

    def test_generic_point_is_minor_at_paper_exponent(self):
        # N^(delta(2)) < 2 at N = 10^6, so only q = 1 boxes exist
        assert (10**6) ** delta_exponent(2) < 2
        assert classify_arc((math.sqrt(2) - 1, math.pi - 3), 10**6, 2) is None

    def test_reduced_center_found_first(self):
        # the q=2 representative of (1/2, 1/2) wins over (2, 2)/4
        label = classify_arc((0.5, 0.5), 100, 2, exponent_override=0.5)
        assert label is not None
        assert label.q == 2 and label.numerators == (1, 1)

    def test_wraparound_near_one(self):
        # alpha close to 1 rounds to a_j = q; the center is 0 mod 1 and the
        # stored offset stays small
        label = classify_arc((1 - 1e-7, 0.0), 10**6, 2)
        assert label is not None
        assert label.q == 1 and label.numerators == (0, 0)
        assert label.beta[0] == pytest.approx(-1e-7)

    def test_brute_force_agreement(self):
        # uniform phases, nearly all minor, then phases a/q plus an offset
        # inside the box, drawn as perfbench's near_rational_phase draws them
        rnd = random.Random(31)
        for n, override in [(50, 0.35), (200, 0.3), (10**4, None)]:
            delta = override if override is not None else delta_exponent(2)
            qmax = max(1, math.floor(n**delta))
            phases = [(rnd.random(), rnd.random()) for _ in range(40)]
            for _ in range(20):
                q = rnd.randint(1, qmax)
                phases.append(tuple(
                    (rnd.randrange(q) / q
                     + rnd.uniform(-0.9, 0.9) * n ** (delta - j) / q) % 1.0
                    for j in (1, 2)))
            members = 0
            for alpha in phases:
                got = classify_arc(alpha, n, 2, override) is not None
                want = _arc_membership_brute_force(alpha, n, 2, override)
                assert got == want, (alpha, n, override)
                members += want
            assert members >= 1, (n, override)

    @staticmethod
    def _label_key(label):
        if label is None:
            return None
        return label.q, label.numerators, tuple(b.hex() for b in label.beta)

    @staticmethod
    def _phases(rnd, n, k, override):
        """Uniform phases, phases near a rational a/q, dyadic phases whose
        q alpha_j are exact half-integers (ties), and phases on the q = 1 box
        boundary and one ulp outside it."""
        yield from ([rnd.random() for _ in range(k)] for _ in range(15))
        for _ in range(15):
            q = rnd.randrange(1, 60)
            yield [(rnd.randrange(q) / q + rnd.uniform(-2, 2) * n ** (-j)) % 1.0
                   for j in range(1, k + 1)]
        for e in range(4):
            yield [rnd.randrange(1, 2 ** (e + 1), 2) / 2 ** (e + 1) for _ in range(k)]
        delta = override if override is not None else delta_exponent(k)
        edge = [float(n) ** (delta - j) + 1e-15 for j in range(1, k + 1)]
        if max(edge) < 0.5:
            yield edge
            for j in range(k):
                yield edge[:j] + [math.nextafter(edge[j], 1.0)] + edge[j + 1:]

    def test_block_scan_equals_literal_scan_bit_for_bit(self):
        rnd = random.Random(20261018)
        cases = majors = 0
        for k in (1, 2, 3):
            for n in (10**3, 10**6):
                for override in ([None] if k > 1 else []) + [0.3, 0.45, 0.6, 0.9]:
                    if n ** (override or delta_exponent(k)) > 5000:
                        continue
                    for alpha in self._phases(rnd, n, k, override):
                        want = _literal_classify_arc(alpha, n, k, override)
                        got = classify_arc(alpha, n, k, override)
                        assert self._label_key(got) == self._label_key(want), (alpha, n, k)
                        cases += 1
                        majors += want is not None
        assert cases > 600 and 0.2 * cases < majors < 0.8 * cases

    def test_ties_round_half_to_even(self):
        # q alpha_1 = 0.5 is a tie at q = 1 (k = 1, a box wider than 1/2) and
        # at q = 2 (k = 2, q = 1 fails the narrow second box); a_1 = 0, even
        for alpha, k, override, want in [((0.5,), 1, 0.95, (1, (0,), (0.5,))),
                                         ((0.25, 0.5), 2, 1.5, (2, (0, 1), (0.25, 0.0)))]:
            label = classify_arc(alpha, 1000, k, override)
            assert label == _literal_classify_arc(alpha, 1000, k, override)
            assert (label.q, label.numerators, label.beta) == want

    def test_memory_is_one_block(self):
        # q alpha for all q <= 10^(9 * 0.75) would take 90 MB at k = 2
        alpha = (math.sqrt(2) - 1, math.pi - 3)
        qmax = math.floor(1e9**0.75)
        block = 8 * 2 * _ARC_ROWS
        assert 8 * 2 * qmax > 20 * block
        tracemalloc.start()
        try:
            assert classify_arc(alpha, 10**9, 2, 0.75) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block

    def test_budget_refuses_before_work(self):
        qmax = math.floor(1e9**0.9)
        with pytest.raises(BudgetExceededError):
            classify_arc((0.1, 0.2), 10**9, 2, 0.9, Budget(max_ops=2 * qmax - 1))
        assert classify_arc((0.0, 0.0), 10**9, 2, 0.9, Budget(max_ops=2 * qmax)).q == 1

    @pytest.mark.parametrize("exponent", [400.0, math.inf])
    def test_overflowing_height_refused(self, exponent):
        with pytest.raises(BudgetExceededError, match="overflows a float"):
            classify_arc((0.1, 0.2), 10**6, 2, exponent)

    def test_nan_exponent_is_bad_params(self):
        with pytest.raises(BadParamsError):
            classify_arc((0.1, 0.2), 10**6, 2, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_bad_params(self, bad):
        with pytest.raises(BadParamsError):
            classify_arc((0.1, bad), 10**6, 2)

    def test_sigma_value(self):
        assert sigma_exponent(2) == pytest.approx(0.0124507, abs=1e-6)


class TestMajorArcApprox:
    def test_origin_endpoint_discrepancy(self):
        rep = major_arc_approx_check(50, 1, (0, 0), (0.0, 0.0))
        assert rep.numerator <= 1.0 + 1e-9  # g(0) = N = w(0), S(1) = 1

    def test_q3_quadratic_center(self):
        rep = major_arc_approx_check(300, 3, (0, 1), (0.0, 0.0))
        assert rep.ratio >= 0.0
        assert math.isfinite(rep.ratio)
        assert rep.ratio < 10.0

    def test_with_offset(self):
        rep = major_arc_approx_check(200, 2, (1, 1), (1e-4, 1e-6))
        assert math.isfinite(rep.ratio) and rep.ratio >= 0.0


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: eval_g(0, (0.5,)), BadParamsError, "n must be >= 1"),
        (lambda: complete_sum(0, (1,)), BadParamsError, "q must be >= 1"),
        (lambda: oscillatory_w(0, (0.5,)), BadParamsError, "n must be >= 1"),
        (lambda: oscillatory_w(10, (0.5, math.inf)), BadParamsError, "beta must be finite"),
        (lambda: oscillatory_w(10, (1e308, 1e308)), BudgetExceededError,
         "quadrature: the variation overflows at N = 10"),
        (lambda: sigma_exponent(1), BadDegreeError, "sigma exponent needs k >= 2"),
        (lambda: classify_arc((0.5,), 1, 1), BadParamsError, "n must be >= 2"),
        (lambda: classify_arc((0.5,), 100, 2), BadParamsError,
         "alpha must have 2 components"),
        (lambda: major_arc_approx_check(100, 3, (1, 2), (0.0,)), BadParamsError,
         "a and beta must have equal length"),
    ],
    ids=["g_n0", "complete_q0", "w_n0", "w_beta_infinite", "w_variation_overflow",
         "sigma_k1", "arcs_n1", "arcs_alpha_length", "approx_lengths"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
