import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from circlecount import (
    congruence_count,
    euler_factor,
    hensel_lift,
    jacobian,
    local,
    multiplicativity_check,
    series_term_direct,
    series_term_moebius,
    truncated_singular_series,
    validate_system,
)
from circlecount.budget import Budget
from circlecount.errors import (
    BadIndicesError,
    BadParamsError,
    BudgetExceededError,
    HypothesisViolatedError,
    NotCoprimeError,
    SingularJacobianError,
)
from circlecount.local import _factorize
from circlecount.system import _det_bareiss, jacobian_matrix

from conftest import brute_force_congruence_count, random_system


class TestCongruenceCount:
    def test_modulus_one(self, sys_quad4):
        assert congruence_count(sys_quad4, 1).count == 1

    def test_known_values(self, sys_quad4):
        assert congruence_count(sys_quad4, 2).count == 8
        assert congruence_count(sys_quad4, 3).count == 15

    def test_brute_force_agreement(self, sys_quad4, sys_lin3):
        rnd = random.Random(2)
        systems = [sys_quad4, sys_lin3] + [
            random_system(rnd, rnd.randint(2, 4), rnd.randint(1, 2))
            for _ in range(4)
        ]
        for sys in systems:
            for q in (2, 3, 4, 5, 6):
                if q**sys.arity <= 10**6:
                    assert (
                        congruence_count(sys, q).count
                        == brute_force_congruence_count(sys, q)
                    )

    def test_crt_multiplicativity(self, sys_quad4):
        # the left side is one DP at qr itself, never the product it checks
        for q in range(2, 8):
            for r in range(2, 61 // q):
                if math.gcd(q, r) == 1:
                    assert (
                        local._dp_product(sys_quad4, [_factorize(q * r)], Budget())
                        == congruence_count(sys_quad4, q).count
                        * congruence_count(sys_quad4, r).count
                    )

    def test_bounds(self, sys_lin3):
        for q in range(1, 12):
            m = congruence_count(sys_lin3, q).count
            assert 0 <= m <= q**sys_lin3.arity

    def test_forced_big_integer_dp_agrees(self, monkeypatch):
        systems = (
            validate_system(2, (1, 1, 1, -1, -1, -1)),
            validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1)),
        )
        moduli = range(2, 13)
        expected = [congruence_count(sys, q).count for sys in systems for q in moduli]
        decisions = []

        def big_integers(bound):
            decisions.append(bound)
            return False

        monkeypatch.setattr(local, "fits_int64", big_integers)
        forced = [congruence_count(sys, q).count for sys in systems for q in moduli]
        # one decision per prime-power DP
        assert len(decisions) == len(systems) * sum(len(_factorize(q)) for q in moduli)
        assert forced == expected

    def test_dp_exact_past_int64(self):
        # one linear congruence with a unit coefficient has q^(s-1) solutions;
        # q^13 passes 2^62 from q = 28 on, and from q = 29 the read-out's sum
        # of products of the halves' counts passes 2^63, where an int64 DP
        # would wrap around; 28 and 40 are one DP only when counted directly
        sys = validate_system(1, (1,) * 7 + (-1,) * 5 + (-2,))
        for q in (27, 28, 29, 40):
            assert congruence_count(sys, q).count == q**12
            assert local._dp_product(sys, [_factorize(q)], Budget()) == q**12
        # L and -L: the one half's cells stay below q^7, but its sum of squares
        # is q^13 and passes 2^63 at the prime 29
        mirrored = validate_system(1, (1,) * 7 + (-1,) * 7)
        for q in (27, 29):
            assert congruence_count(mirrored, q).count == q**13

    def test_ops_estimate_per_half(self):
        # head * k * m^head + (stages - head) * m^(k+1) per half less its first
        # coefficient, and m^k per divisor of m for the read-outs: the halves
        # (2, 1, -1) and (1, 1) run (1, -1) and (1,), at m = 53 taking 11,236
        # and 106, and the read-outs at g = 1 and 53 take 2 * 2,809
        sys = validate_system(2, (2, 1, -1, -1, -1))
        with pytest.raises(BudgetExceededError, match="estimated 16960 "):
            congruence_count(sys, 53, Budget(max_ops=16_959))
        assert congruence_count(sys, 53, Budget(max_ops=16_960)).count == (
            congruence_count(sys, 53).count)
        # at m = 997 one DP of all five stages was estimated at 2.98 * 10^9,
        # the two halves' five stages at 998,979,045
        with pytest.raises(BudgetExceededError, match="estimated 5966048 "):
            congruence_count(sys, 997, Budget(max_ops=5_966_047))

    def test_budget_refusal(self, sys_quad4):
        from circlecount.budget import Budget
        from circlecount.errors import BudgetExceededError

        tiny = Budget(max_ops=10)
        with pytest.raises(BudgetExceededError):
            congruence_count(sys_quad4, 97, tiny)
        with pytest.raises(BudgetExceededError):
            series_term_direct(sys_quad4, 97, tiny)

    def test_modulus_is_factorized_once(self, sys_quad6, monkeypatch):
        # the refusal of a prime near 10^12 costs one trial division to 10^6,
        # the divisors of the symmetry read-out coming from the same one
        calls = []
        real = local._factorize

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(local, "_factorize", spy)
        q = 1_000_000_000_039
        with pytest.raises(BudgetExceededError, match="^congruence count: estimated "
                           "6000000000468000000009126 elementary operations"):
            congruence_count(sys_quad6, q)
        assert calls == [q]


class TestSeriesTerms:
    def test_q_one(self, sys_quad4):
        assert series_term_moebius(sys_quad4, 1) == 1
        assert series_term_direct(sys_quad4, 1) == 1

    def test_known_exact_values(self, sys_quad4):
        assert series_term_moebius(sys_quad4, 2) == 1
        assert series_term_moebius(sys_quad4, 3) == Fraction(2, 3)

    def test_direct_matches_known(self, sys_quad4):
        assert abs(series_term_direct(sys_quad4, 2) - 1.0) < 1e-9
        assert abs(series_term_direct(sys_quad4, 3) - 2 / 3) < 1e-9

    def test_direct_equals_moebius(self, sys_quad4, sys_lin3):
        for sys in (sys_quad4, sys_lin3):
            for q in range(1, 51):
                direct = series_term_direct(sys, q)
                exact = float(series_term_moebius(sys, q))
                assert abs(direct - exact) <= 1e-9 * (1 + abs(exact))

    def test_direct_reduces_huge_coefficients_mod_q(self):
        # lam * b would wrap int64 before its reduction mod q
        big = 2 * 10**18 + 1
        sys = validate_system(2, (big, big, -big, -big))
        for q in range(1, 13):
            exact = float(series_term_moebius(sys, q))
            assert abs(series_term_direct(sys, q) - exact) <= 1e-9 * (1 + abs(exact)), q

    def test_imaginary_parts_negligible(self, sys_quad4):
        for q in range(1, 26):
            s = series_term_direct(sys_quad4, q)
            assert abs(s.imag) <= 1e-9 * (1 + abs(s))

    def test_divisor_identity(self, sys_quad4, sys_lin3):
        # sum of series terms over divisors recovers the normalized count
        for sys in (sys_quad4, sys_lin3):
            k, s = sys.degree, sys.arity
            for q in range(1, 25):
                divisors = [d for d in range(1, q + 1) if q % d == 0]
                lhs = sum(series_term_direct(sys, d) for d in divisors)
                rhs = congruence_count(sys, q).count * Fraction(1, q ** (s - k))
                assert abs(lhs - float(rhs)) <= 1e-9 * (1 + abs(float(rhs)))


class TestMultiplicativity:
    def test_with_one(self, sys_quad4):
        rep = multiplicativity_check(sys_quad4, 1, 9)
        assert rep.passed and rep.residual == 0

    def test_known_product(self, sys_quad4):
        rep = multiplicativity_check(sys_quad4, 2, 3)
        assert rep.s_qr == Fraction(2, 3)
        assert rep.passed

    def test_random_coprime_pairs(self, sys_quad4, sys_lin3):
        for sys in (sys_quad4, sys_lin3):
            for q in range(2, 30):
                for r in range(2, 30):
                    if q * r <= 30 and math.gcd(q, r) == 1:
                        assert multiplicativity_check(sys, q, r).passed

    def test_qr_is_counted_directly(self, sys_quad4, monkeypatch):
        # S(qr) must not come from the prime-power products it is checked against
        dp_moduli = []
        real = local._congruence_dp

        def spy(stages, k, q, dtype):
            dp_moduli.append(q)
            return real(stages, k, q, dtype)

        monkeypatch.setattr(local, "_congruence_dp", spy)
        assert multiplicativity_check(sys_quad4, 4, 15).passed
        assert 60 in dp_moduli

    def test_not_coprime_rejected(self, sys_quad4):
        with pytest.raises(NotCoprimeError):
            multiplicativity_check(sys_quad4, 4, 6)


class TestEulerFactor:
    def test_h_zero(self, sys_quad4):
        assert euler_factor(sys_quad4, 5, 0).partial_sum == 1

    def test_p2_h1(self, sys_quad4):
        assert euler_factor(sys_quad4, 2, 1).partial_sum == 2

    def test_partial_sums_equal_normalized_counts(self, sys_quad4, sys_lin3):
        for sys, p, hmax in [
            (sys_quad4, 2, 3),
            (sys_quad4, 3, 2),
            (sys_lin3, 5, 2),
        ]:
            rep = euler_factor(sys, p, hmax)
            running = Fraction(0)
            for h, term in enumerate(rep.series_terms):
                running += term
                assert running == rep.normalized_counts[h]

    def test_series_terms_equal_direct_route(self, sys_quad4, sys_lin3):
        # the terms are differences of the counts, so check them off that rule
        cubic8 = validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1))
        for sys, p, hmax in [
            (sys_quad4, 2, 3),
            (sys_quad4, 3, 2),
            (sys_lin3, 5, 2),
            (cubic8, 2, 3),
        ]:
            rep = euler_factor(sys, p, hmax)
            for h, term in enumerate(rep.series_terms):
                direct = series_term_direct(sys, p**h)
                assert abs(direct - float(term)) <= 1e-9 * (1 + abs(float(term)))

    def test_composite_rejected(self, sys_quad4):
        with pytest.raises(BadParamsError):
            euler_factor(sys_quad4, 6, 1)


class TestTruncatedSeries:
    def test_cutoff_one(self, sys_quad4):
        assert truncated_singular_series(sys_quad4, 1).partial_sum == 1

    def test_cutoff_three(self, sys_quad4):
        trunc = truncated_singular_series(sys_quad4, 3)
        assert trunc.partial_sum == Fraction(8, 3)

    def test_prefix_consistency(self, sys_quad4):
        t10 = truncated_singular_series(sys_quad4, 10)
        t6 = truncated_singular_series(sys_quad4, 6)
        tail = sum((term.value for term in t10.terms[6:]), Fraction(0))
        assert t10.partial_sum - t6.partial_sum == tail

    def test_both_method_records_residuals(self, sys_quad4):
        trunc = truncated_singular_series(sys_quad4, 6, method="both")
        assert all(t.residual is not None and t.residual < 1e-9 for t in trunc.terms)

    def test_series_counts_each_prime_power_once(self, sys_quad4, monkeypatch):
        # the counts live for one call: each prime power <= 60 is counted once
        # per series, a repeat call counts them again, and an earlier count
        # never lets a later call skip its budget check
        cubic8 = validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1))
        dp_moduli = []
        real = local._congruence_dp

        def spy(stages, k, q, dtype):
            dp_moduli.append(q)
            return real(stages, k, q, dtype)

        monkeypatch.setattr(local, "_congruence_dp", spy)
        prime_powers = [q for q in range(2, 61) if len(_factorize(q)) == 1]
        assert len(prime_powers) == 25
        values = []
        for _ in range(2):
            values.append(truncated_singular_series(cubic8, 60))
            assert sorted(dp_moduli) == prime_powers
            del dp_moduli[:]
        assert values[0] == values[1]
        congruence_count(sys_quad4, 97)
        with pytest.raises(BudgetExceededError):
            congruence_count(sys_quad4, 97, Budget(max_ops=10))


class TestHenselLift:
    def test_already_exact_seed_unchanged(self, sys_quad4):
        # the constant tuple solves exactly over Z, but is singular; use a
        # two-value seed instead: (1, 2, 2, 1) solves exactly
        lift = hensel_lift(sys_quad4, (1, 2, 2, 1), 5, 3)
        assert lift.values == (1, 2, 2, 1)
        assert lift.certified and lift.u == 1

    def test_classic_seed_lift(self, sys_quad6):
        seed = (1, 0, 1, 2, 3, 2)  # reduction of (1,5,6,2,3,7) mod 5
        lift = hensel_lift(sys_quad6, seed, 5, 2)
        mod = 25
        assert all(v % mod == 0 for v in sys_quad6.equations_at(lift.values))
        assert all((a - b) % 5 == 0 for a, b in zip(lift.values, seed))

    def test_singular_constant_seed(self, sys_quad4):
        with pytest.raises(SingularJacobianError):
            hensel_lift(sys_quad4, (3, 3, 3, 3), 5, 2)

    def test_singular_free_choice(self, sys_quad4):
        # forcing the free variables onto a repeated value kills the minor
        with pytest.raises(SingularJacobianError):
            hensel_lift(sys_quad4, (1, 2, 2, 1), 5, 2, free_indices=(2, 3))

    def test_hypothesis_violation(self, sys_quad4):
        with pytest.raises(HypothesisViolatedError):
            hensel_lift(sys_quad4, (1, 2, 3, 3), 5, 2)

    def test_nonunit_jacobian_valuation(self, sys_lin3):
        # the k=1 Jacobian on x1 is the coefficient 2: valuation 1 at p=2,
        # so the hypothesis depth is u = 3 and the lift is found by the
        # valuation-aware Newton step
        lift = hensel_lift(sys_lin3, (5, 1, 1), 2, 3, free_indices=(1,))
        assert lift.u == 3
        assert all(v % 8 == 0 for v in sys_lin3.equations_at(lift.values))
        assert (lift.values[0] - 5) % 2 == 0
        with pytest.raises(HypothesisViolatedError):
            hensel_lift(sys_lin3, (2, 1, 1), 2, 3, free_indices=(1,))

    def test_degree_three_lifts(self):
        # 3x3 Newton steps: pinned lifts of a symmetric and an asymmetric system
        cubic8 = validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1))
        lift = hensel_lift(cubic8, (10, 3, 7, 3, 2, 5, 1, 4), 11, 5)
        assert lift.values == (154472, 3, 6585, 3, 2, 5, 1, 4)
        assert lift.free_indices == (1, 2, 3)
        cubic6 = validate_system(3, (1, 2, -3, 1, -2, 1))
        for seed, values, free in [
            ((0, 1, 3, 2, 6, 3), (2205, 1569, 178, 2, 6, 3), (1, 2, 3)),
            ((0, 1, 0, 4, 2, 5), (182, 1597, 0, 1425, 2, 5), (1, 2, 4)),
        ]:
            lift = hensel_lift(cubic6, seed, 7, 4)
            assert (lift.values, lift.free_indices, lift.u) == (values, free, 1)
            assert all(v % 7**4 == 0 for v in cubic6.equations_at(values))

    def test_free_indices_match_first_unit_jacobian(self):
        # oracle: the lexicographically first k-subset whose exact (Bareiss)
        # Jacobian is a unit mod p, scanned with no cap
        rnd = random.Random(21)
        pool = (-14, -10, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 11, 22)
        small_p = divides_lam = found = 0
        for _ in range(600):
            s = rnd.randint(2, 9)
            k = rnd.randint(1, min(4, s))
            coeffs = [rnd.choice(pool) for _ in range(s - 1)]
            if sum(coeffs) == 0:
                continue
            system = validate_system(k, coeffs + [-sum(coeffs)])
            p = rnd.choice((2, 3, 5, 7, 11))
            seed = [rnd.randrange(p) for _ in range(s)]
            expected = next(
                (
                    sub
                    for sub in itertools.combinations(range(1, s + 1), k)
                    if jacobian(system, seed, sub) % p != 0
                ),
                None,
            )
            small_p += p <= k
            divides_lam += any(c % p == 0 for c in system.coefficients)
            if expected is None:
                with pytest.raises(SingularJacobianError):
                    local._pick_free_indices(system, seed, p)
            else:
                found += 1
                assert local._pick_free_indices(system, seed, p) == expected
        assert min(small_p, divides_lam, found) >= 50

    def test_free_indices_past_thousands_of_singular_subsets(self):
        # lam_1 = lam_2 = 7: the 8,721 five-subsets holding x1 or x2 are all
        # singular mod 7 and precede (3, 4, 5, 6, 7) in lexicographic order
        system = validate_system(5, (7, 7) + (1,) * 8 + (-1,) * 10 + (-12,))
        seed = (0, 0, 0, 1, 2, 3, 4, 5, 6, 2) + (0,) * 9 + (2, 0)
        lift = hensel_lift(system, seed, 7, 3)
        assert lift.free_indices == (3, 4, 5, 6, 7)
        assert all(v % 7**3 == 0 for v in system.equations_at(lift.values))
        assert all((a - b) % 7 == 0 for a, b in zip(lift.values, seed))

    def test_randomized_seeds(self, sys_quad6):
        rnd = random.Random(14)
        made = 0
        while made < 30:
            p = rnd.choice([3, 5, 7])
            t = rnd.randint(2, 4)
            seed = tuple(rnd.randrange(p) for _ in range(6))
            if any(v % p != 0 for v in sys_quad6.equations_at(seed)):
                continue
            if len(set(seed)) < 2:
                continue
            try:
                lift = hensel_lift(sys_quad6, seed, p, t)
            except SingularJacobianError:
                continue
            mod = p**t
            assert all(v % mod == 0 for v in sys_quad6.equations_at(lift.values))
            assert all((a - b) % p == 0 for a, b in zip(lift.values, seed))
            made += 1


def _newton_with_rechecks(system, seed, p, t, free):
    """The lift by the Newton loop of ``hensel_lift``, with the valuation
    checks inside the loop that the lifting hypothesis makes redundant as
    asserts: the Jacobian keeps valuation v and p^v divides every Cramer
    numerator.  Returns the values and v."""
    x = [val % p for val in seed]
    v = local._v_p(jacobian(system, x, free), p)
    work_mod, target = p ** (t + 2 * v + 2), p**t
    for _ in range(64):
        lvals = list(system.equations_at(x))
        if all(val % target == 0 for val in lvals):
            break
        jmat = jacobian_matrix(system, x, free)
        det = _det_bareiss(jmat)
        assert det != 0 and local._v_p(det, p) == v
        nums = [
            _det_bareiss([r[:i] + [val] + r[i + 1:] for r, val in zip(jmat, lvals)])
            for i in range(system.degree)
        ]
        assert all(num % p**v == 0 for num in nums)
        inv_unit = pow(det // p**v % work_mod, -1, work_mod)
        for idx, num in zip(free, nums):
            x[idx - 1] = (x[idx - 1] - num // p**v * inv_unit) % work_mod
    else:
        raise AssertionError("Newton iteration did not reach the target level")
    return tuple(val % target for val in x), v


def test_hypothesis_keeps_every_newton_step_integral():
    # seeded draws: k <= 3, coefficients in +-{1, 2, 3, 4, 6}, p in {2, 3, 5}, a
    # free k-subset and a seed in [0, p)^s that meets the hypothesis; every
    # step then keeps the Jacobian's valuation v and is 0 mod p^(v+1)
    rnd = random.Random(20)
    mags = (1, 2, 3, 4, 6)
    by_v = collections.Counter()
    for _ in range(600):
        k = rnd.randint(1, 3)
        s = rnd.randint(k + 1, 6)
        coeffs = [rnd.choice(mags) * rnd.choice((1, -1)) for _ in range(s - 1)]
        if abs(sum(coeffs)) not in mags:
            continue
        system = validate_system(k, coeffs + [-sum(coeffs)])
        p = rnd.choice((2, 3, 5))
        free = tuple(sorted(rnd.sample(range(1, s + 1), k)))
        for _ in range(50):
            seed = [rnd.randrange(p) for _ in range(s)]
            delta = jacobian(system, seed, free)
            if delta and all(
                val % p ** (1 + 2 * local._v_p(delta, p)) == 0
                for val in system.equations_at(seed)
            ):
                break
        else:
            continue
        t = rnd.randint(1, 40)
        values, v = _newton_with_rechecks(system, seed, p, t, free)
        lift = hensel_lift(system, seed, p, t, free)
        assert (lift.values, lift.free_indices, lift.u) == (values, free, 1 + 2 * v)
        assert all(val % p**t == 0 for val in system.equations_at(values))
        assert all((a - b) % p ** min(v + 1, t) == 0 for a, b in zip(values, seed))
        by_v[min(v, 2)] += 1
    assert by_v[0] >= 80 and by_v[1] >= 30 and by_v[2] >= 10, by_v


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sys: congruence_count(sys, 0), "q must be >= 1"),
        (lambda sys: series_term_moebius(sys, 0), "q must be >= 1"),
        (lambda sys: series_term_direct(sys, -1), "q must be >= 1"),
        (lambda sys: euler_factor(sys, 3, -1), "h_max must be >= 0"),
        (lambda sys: truncated_singular_series(sys, 0), "cutoff must be >= 1"),
        (lambda sys: truncated_singular_series(sys, 3, method="direct"),
         "unknown method 'direct'"),
        (lambda sys: local._v_p(0, 5), "valuation of zero"),
        (lambda sys: hensel_lift(sys, (1, 2, 2, 1), 4, 2), "4 is not prime"),
        (lambda sys: hensel_lift(sys, (1, 2, 2, 1), 5, 0), "target level must be >= 1"),
    ],
    ids=["congruence_q0", "moebius_q0", "direct_q_negative", "euler_h_negative",
         "series_cutoff0", "series_method", "valuation_of_zero", "lift_composite_p",
         "lift_level0"],
)
def test_input_checks(call, message, sys_quad4):
    with pytest.raises(BadParamsError) as info:
        call(sys_quad4)
    assert str(info.value) == message


@pytest.mark.parametrize("free", [(1, 1), (2,), (1, 2, 3), (0, 1), (4, 5)])
def test_lift_free_indices_are_checked_by_jacobian(free, sys_quad4):
    # not a 2-subset of 1..4: jacobian raises, and hensel_lift has no check of
    # its own
    with pytest.raises(BadIndicesError, match=r"indices must be a k-subset of 1\.\.4"):
        hensel_lift(sys_quad4, (1, 2, 2, 1), 5, 2, free_indices=free)


def test_factorize_helper():
    assert _factorize(1) == []
    assert _factorize(12) == [(2, 2), (3, 1)]
    assert _factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert _factorize(97) == [(97, 1)]
    for n in range(1, 300):
        factors = _factorize(n)
        assert math.prod(p**e for p, e in factors) == n
        assert all(len(_factorize(p)) == 1 for p, _ in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_moebius_helper():
    moebius = [
        0 if any(e > 1 for _, e in _factorize(n)) else (-1) ** len(_factorize(n))
        for n in range(1, 13)
    ]
    assert moebius == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisors_helper():
    def divisors(n):
        factors = _factorize(n)
        return sorted(
            math.prod(p**a for (p, _), a in zip(factors, exps))
            for exps in itertools.product(*(range(e + 1) for _, e in factors))
        )

    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
