import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from circlecount import (
    SetWindow,
    constants,
    estimate_singular_integral_constant,
    find_nonsingular_real_solution,
    increment_iteration,
    predicted_count,
    progression_concentration_search,
    progression_window,
    random_density_window,
    uniformity_threshold,
    validate_system,
)
from circlecount import mainterm
from circlecount.budget import Budget
from circlecount.errors import (
    BadDegreeError,
    BadParamsError,
    BudgetExceededError,
    NoRealSolutionError,
)
from circlecount.mainterm import BigLogNumber, Progression


TWO = mpmath.mpf(2)


class TestBigLogNumber:
    def test_exact_roundtrip(self):
        x = BigLogNumber.from_fraction(18)
        assert x.exact == 18
        assert x.to_json_dict()["level"] == 0
        assert x.to_json_dict()["exact"] == "18"

    def test_multiplication(self):
        a = BigLogNumber.from_fraction(6)
        b = BigLogNumber.from_fraction(Fraction(3, 2))
        product = a * b
        assert product.exact == 9
        assert product.log2_magnitude == pytest.approx(math.log2(9))
        # without a payload on either side only the log2 magnitudes add
        bare = BigLogNumber(5000) * a
        assert bare.exact is None
        assert bare.log2_magnitude == pytest.approx(5000 + math.log2(6))

    def test_negative_sign_rules(self):
        # the value is positive by construction: zero and negatives are refused
        for value in (0, -2, Fraction(-1, 2)):
            with pytest.raises(BadParamsError, match="positive"):
                BigLogNumber.from_fraction(value)

    def test_doubly_exponential_level(self):
        huge = BigLogNumber(mpmath.mpf(2) ** 200).to_json_dict()
        assert huge["level"] == 2
        assert huge["log2_of_abs_log2"] == "200.0"

    def test_exact_payload_boundary(self):
        # the exact payload is kept up to 4096-bit numerators and denominators
        def assert_kept(x, value):
            assert x.to_json_dict()["level"] == 0
            assert x.to_json_dict()["exact"] == str(value)

        def assert_dropped(x):
            assert x.to_json_dict()["level"] == 1
            assert "exact" not in x.to_json_dict()

        assert_kept(BigLogNumber.from_fraction(2**4095), 2**4095)
        assert_dropped(BigLogNumber.from_fraction(2**4096))
        assert_kept(BigLogNumber.from_fraction(Fraction(1, 2**4095)),
                    Fraction(1, 2**4095))
        assert_dropped(BigLogNumber.from_fraction(Fraction(1, 2**4096)))
        half = BigLogNumber.from_fraction(2**2048)
        assert_kept(half * BigLogNumber.from_fraction(2**2047), 2**4095)
        assert_dropped(half * half)
        # (2^64 - 1)^64 has exactly 4096 bits
        base = BigLogNumber.from_fraction(2**64 - 1)
        assert_kept(base.power(64), (2**64 - 1) ** 64)
        assert_dropped(base.power(65))

    def test_power_agrees_with_constructor(self):
        # x^e keeps its payload exactly when the constructor keeps x^e itself
        for base, exponent, level in [
            (3, 2100, 0),  # 3^2100 has 3,329 bits
            (2, 4095, 0),
            (2, 4096, 1),
            (Fraction(2, 3), 2100, 0),
            (Fraction(2, 3), -2100, 0),
            (2, -4096, 1),
        ]:
            powered = BigLogNumber.from_fraction(base).power(exponent)
            direct = BigLogNumber.from_fraction(Fraction(base) ** exponent)
            levels = {x.to_json_dict()["level"] for x in (powered, direct)}
            assert levels == {level}
            assert powered.exact == direct.exact

    def test_zero_power(self):
        # x^0 is the exact 1 while x has a payload, else log2 magnitude 0
        one = BigLogNumber.from_fraction(Fraction(2, 3)).power(0)
        assert (one.exact, one.log2_magnitude) == (1, 0)
        bare = BigLogNumber(5000).power(0)
        assert (bare.exact, bare.log2_magnitude) == (None, 0)

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: BigLogNumber(0).to_json_dict(),
             {"sign": 1, "level": 1, "log2_magnitude": "0.0"}),
            (lambda: BigLogNumber(-3).to_json_dict(),
             {"sign": 1, "level": 1, "log2_magnitude": "-3.0"}),
            # a tiny value is doubly exponential too, read through |log2 x|
            (lambda: BigLogNumber(-TWO**200).to_json_dict()["log2_of_abs_log2"],
             "200.0"),
            (lambda: BigLogNumber(TWO**48 - 1).to_json_dict().get("log2_of_abs_log2"),
             None),
            (lambda: BigLogNumber(TWO**48).to_json_dict()["level"], 2),
        ],
    )
    def test_edge_branches(self, make, expected):
        assert make() == expected


class TestConstants:
    def test_s0_k3(self):
        assert constants(3).s0 == 114

    def test_sigma_k2(self):
        sheet = constants(2)
        assert sheet.sigma == pytest.approx(0.0124507, abs=1e-6)
        assert sheet.delta_exp == pytest.approx(2 * 0.0124507, abs=2e-6)

    def test_c_exponent_exact(self):
        assert constants(2).c_exp.log2_magnitude == -2048

    def test_floor_vs_trunc_at_k2(self):
        # the bracket argument is negative at k=2 only
        assert constants(2, bracket="floor").s0 == 42
        assert constants(2, bracket="trunc").s0 == 46
        assert constants(3, bracket="trunc").s0 == constants(3).s0

    def test_gamma_log2(self):
        assert constants(2).gamma.log2_magnitude == 2**10 + 3

    def test_k_const_at_cs_four_is_one(self):
        sheet = constants(2, cs_value=4.0)
        assert sheet.K_const.log2_magnitude == 0

    def test_deterministic(self):
        a, b = constants(4), constants(4)
        assert a.s0 == b.s0 and a.sigma == b.sigma

    def test_monotonicity(self):
        s0s = [constants(k).s0 for k in range(3, 9)]
        assert all(a < b for a, b in zip(s0s, s0s[1:]))
        sigmas = [constants(k).sigma for k in range(2, 9)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_rejects_k1(self):
        with pytest.raises(BadDegreeError):
            constants(1)


class TestUniformityThreshold:
    def test_delta_one_returns_k(self):
        k_const = BigLogNumber.from_fraction(5)
        th = uniformity_threshold(2, 42, k_const, 1)
        assert th.exact == 5

    def test_exponent_arithmetic(self):
        k_const = constants(2, cs_value=4.0).K_const  # log2 K = 0
        th = uniformity_threshold(2, 42, k_const, Fraction(1, 2))
        assert th.log2_magnitude == -352  # 2^3 * 44

    def test_monotone_in_delta(self):
        k_const = BigLogNumber.from_fraction(3)
        ths = [
            uniformity_threshold(2, 42, k_const, d).log2_magnitude
            for d in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1)
        ]
        for a, b in zip(ths, ths[1:]):
            assert a < b


class TestPredictedCount:
    def test_unit_case(self, sys_quad4):
        assert predicted_count(sys_quad4, 1, 10, 1.0, 1.0) == pytest.approx(10.0)

    def test_density_power_law(self, sys_quad4):
        full = predicted_count(sys_quad4, 1.0, 64, 0.9, 2.0)
        half = predicted_count(sys_quad4, 0.5, 64, 0.9, 2.0)
        assert half / full == pytest.approx(0.5**4)

    def test_rejects_nonpositive(self, sys_quad4):
        with pytest.raises(BadParamsError):
            predicted_count(sys_quad4, 0, 10, 1.0, 1.0)


class TestRealSolutionSearch:
    def test_finds_nonsingular_point(self, sys_quad6):
        x = find_nonsingular_real_solution(sys_quad6)
        assert x is not None
        assert all(0 < v < 1 for v in x)

    def test_singular_only_system(self):
        # x + y = 2z and x^2 + y^2 = 2z^2 force x = y = z: diagonal only
        sys = validate_system(2, (1, 1, -2))
        assert find_nonsingular_real_solution(sys) is None

    def test_fewer_variables_than_degree(self):
        # no point of R^2 has three distinct coordinates
        assert find_nonsingular_real_solution(validate_system(3, (1, -1))) is None

    def test_diverging_starts_do_not_warn(self):
        # some of the 64 starts diverge until their powers overflow to inf
        sys = validate_system(4, (1, 3, -2, -2, 3, -2, 2, 1, 3, -7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = find_nonsingular_real_solution(sys, seed=0)
        assert x is not None
        assert all(0 < v < 1 for v in x)


class TestCEstimators:
    def test_no_real_solution_error(self):
        sys = validate_system(2, (1, 1, -2))
        with pytest.raises(NoRealSolutionError):
            estimate_singular_integral_constant(sys, "band_volume")

    def test_budget_refuses_before_real_solution_search(self, sys_quad4, monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("the Newton search ran before the budget check")

        monkeypatch.setattr(mainterm, "find_nonsingular_real_solution", searched)
        with pytest.raises(BudgetExceededError, match="band volume sampling"):
            estimate_singular_integral_constant(
                sys_quad4, "band_volume", budget=Budget(max_ops=1000)
            )
        # a system with no real solution is refused on budget too
        with pytest.raises(BudgetExceededError):
            estimate_singular_integral_constant(
                validate_system(2, (1, 1, -2)), "band_volume", budget=Budget(max_ops=1000)
            )

    def test_band_and_ratio_agree_within_spreads(self, sys_quad4):
        band = estimate_singular_integral_constant(
            sys_quad4, "band_volume", samples=400_000, eps=0.04, seed=1
        )
        ratio = estimate_singular_integral_constant(
            sys_quad4, "count_ratio", n_values=(32, 64), series_cutoff=50
        )
        assert abs(band.value - ratio.value) <= band.spread + ratio.spread

    def test_band_eps_consistency(self, sys_quad4):
        a = estimate_singular_integral_constant(
            sys_quad4, "band_volume", samples=300_000, eps=0.04, seed=3
        )
        b = estimate_singular_integral_constant(
            sys_quad4, "band_volume", samples=300_000, eps=0.08, seed=3
        )
        assert abs(a.value - b.value) <= 3 * (a.spread + b.spread)


class TestIncrementIteration:
    def _k_for_target_d(self, c_exp, delta0, d_target):
        # log2 K = log2 d_target - C log2 delta0; needs precision covering
        # C's full magnitude so the O(1) target survives the cancellation
        prec = int(c_exp.log2_magnitude) + 200
        with mpmath.workprec(prec):
            c_val = mpmath.power(2, c_exp.log2_magnitude)
            log2k = mpmath.log(d_target, 2) - c_val * mpmath.log(
                mpmath.mpf(delta0.numerator) / delta0.denominator, 2
            )
        return BigLogNumber(log2k)

    def test_density_one_immediate(self):
        sheet = constants(2, cs_value=4.0)
        trace = increment_iteration(1, 10.0, 3, sheet.K_const, sheet.C_exp)
        assert trace.outcome == "density_reached_one"
        assert trace.iterations_used == 0

    def test_big_d_two_steps(self):
        c_exp = constants(2).C_exp
        delta0 = Fraction(2, 5)
        k_const = self._k_for_target_d(c_exp, delta0, 0.55)
        trace = increment_iteration(delta0, 50.0, 3, k_const, c_exp)
        assert trace.outcome == "density_reached_one"
        assert trace.iterations_used == 2
        assert trace.cumulative_exponent >= 0.25

    def test_tiny_d_collapses_ambient(self):
        sheet = constants(2, cs_value=4.0)  # K = 1, C astronomically large
        trace = increment_iteration(
            Fraction(1, 2), 100.0, 3, sheet.K_const, sheet.C_exp
        )
        assert trace.outcome == "ambient_below_Y"
        assert trace.iterations_used == 1

    def test_density_nondecreasing_along_trace(self):
        c_exp = constants(2).C_exp
        delta0 = Fraction(1, 10)
        k_const = self._k_for_target_d(c_exp, delta0, 0.2)
        trace = increment_iteration(delta0, 1000.0, 3, k_const, c_exp)
        dens = [d for d, _ in trace.steps]
        assert all(a <= b + 1e-15 for a, b in zip(dens, dens[1:]))
        assert trace.iterations_used <= trace.max_iterations_bound

    def test_rejects_bad_inputs(self):
        sheet = constants(2, cs_value=4.0)
        with pytest.raises(BadParamsError):
            increment_iteration(0, 10.0, 3, sheet.K_const, sheet.C_exp)
        with pytest.raises(BadParamsError):
            increment_iteration(Fraction(1, 2), 10.0, 2, sheet.K_const, sheet.C_exp)

    def test_k_without_a_cs_value_is_refused(self):
        sheet = constants(2)
        assert sheet.K_const is None
        with pytest.raises(BadParamsError) as info:
            increment_iteration(0.5, 100.0, 3, sheet.K_const, sheet.C_exp)
        assert str(info.value) == "K needs a CS value"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: constants(2, bracket="round"), "unknown bracket convention 'round'"),
        (lambda: constants(2, cs_value=0.0), "CS value must be positive"),
        (lambda: uniformity_threshold(2, 10, constants(2, cs_value=4.0).K_const, 0),
         "delta must be in (0, 1]"),
        (lambda: estimate_singular_integral_constant(validate_system(2, (1, 1, -1, -1)),
                                                     "median"),
         "unknown method 'median'"),
        (lambda: progression_concentration_search(SetWindow.full(5), 0),
         "need 1 <= min_length <= N"),
        (lambda: progression_concentration_search(SetWindow.full(5), 6),
         "need 1 <= min_length <= N"),
    ],
    ids=["bracket", "cs_value", "threshold_delta", "c_method", "min_length_0",
         "min_length_above_n"],
)
def test_input_checks(call, message):
    with pytest.raises(BadParamsError) as info:
        call()
    assert str(info.value) == message


def _reference_progression_search(window, min_length):
    """Independent reference: the literal triple loop over step, start and
    length, counting each progression's members from its start.  Returns the
    progression that maximises (density, -step, -start, length), with its
    density."""
    n = window.length
    best = None
    for step in range(1, n + 1):
        for start in range(1, n + 1):
            count = 0
            for length, x in enumerate(range(start, n + 1, step), start=1):
                count += window.mask >> (x - 1) & 1
                if length >= min_length:
                    cand = (Fraction(count, length), -step, -start, length)
                    if best is None or cand > best:
                        best = cand
    dens, neg_step, neg_start, length = best
    return Progression(-neg_start, -neg_step, length), dens


class TestProgressionSearch:
    def test_full_interval(self):
        prog, dens = progression_concentration_search(SetWindow.full(12), 3)
        assert prog == Progression(1, 1, 12)
        assert dens == 1

    def test_even_numbers(self):
        w = progression_window(20, 2, 2)
        prog, dens = progression_concentration_search(w, 5)
        assert dens == 1
        assert prog.step == 2 and prog.start == 2

    def test_random_beats_mean(self):
        for seed in range(4):
            w = random_density_window(60, 0.5, seed=seed)
            _, dens = progression_concentration_search(w, 5)
            assert dens >= w.density

    def test_against_reference(self):
        rnd = random.Random(19)
        for _ in range(6):
            n = rnd.randint(10, 40)
            w = SetWindow(n, rnd.getrandbits(n) or 1)
            min_len = rnd.randint(2, max(2, n // 3))
            got = progression_concentration_search(w, min_len)
            assert got == _reference_progression_search(w, min_len)

    def test_reference_n200(self):
        w = random_density_window(200, 0.35, seed=4)
        got = progression_concentration_search(w, 40)
        assert got == _reference_progression_search(w, 40)

    def test_every_min_length_at_small_n(self):
        # the empty and full windows tie everywhere, so the tie key alone
        # picks the winner; sparse masks give many equal-density candidates
        rnd = random.Random(29)
        windows = [SetWindow.empty(9), SetWindow.full(9), SetWindow(1, 1), SetWindow(1, 0)]
        for _ in range(40):
            n = rnd.randint(1, 14)
            windows.append(SetWindow(n, rnd.getrandbits(n) & rnd.getrandbits(n)))
        for w in windows:
            for min_len in range(1, w.length + 1):
                got = progression_concentration_search(w, min_len)
                assert got == _reference_progression_search(w, min_len), (w, min_len)

    def test_seeded_windows_up_to_n300(self):
        rnd = random.Random(31)
        cases = [(random_density_window(300, 0.5, seed=3), 10)]
        for seed in range(12):
            n = rnd.randint(15, 60)
            w = random_density_window(n, rnd.random(), seed=seed)
            cases.append((w, rnd.randint(1, n)))
        for w, min_len in cases:
            got = progression_concentration_search(w, min_len)
            assert got == _reference_progression_search(w, min_len), (w, min_len)

    def test_ops_estimate_tracks_entries_formed(self):
        # literal count: at each step d that fits min_len terms (d = 1 always),
        # one entry per start of each length that fits, and the padded
        # indicator and its prefix counts, at least N + d entries each
        estimates = []

        class Recording(Budget):
            def check_ops(self, ops, what):
                estimates.append(ops)
                raise BudgetExceededError(what)

        for n in range(1, 61):
            for min_len in range(1, n + 1):
                steps = [d for d in range(1, n) if (min_len - 1) * d <= n - 1] or [1]
                literal = sum(
                    sum(n - (l - 1) * d for l in range(min_len, n + 1)
                        if n - (l - 1) * d >= 1) + 2 * (n + d)
                    for d in steps
                )
                with pytest.raises(BudgetExceededError):
                    progression_concentration_search(
                        SetWindow.full(n), min_len, Recording())
                assert literal <= estimates.pop() <= 2 * literal, (n, min_len)

    def test_refuses_before_work(self):
        w = random_density_window(1000, 0.5, seed=1)
        with pytest.raises(BudgetExceededError, match="progression search"):
            progression_concentration_search(w, 20, Budget(max_ops=10**6))
        with pytest.raises(BudgetExceededError, match="progression search"):
            progression_concentration_search(w, 20, Budget(max_key_bytes=8 * 3000))
