import decimal
import json
import math
import random
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
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
from circlecount.cli import main as cli_main
from circlecount.errors import (
    BadDegreeError,
    BadParamsError,
    BudgetExceededError,
    NoRealSolutionError,
    ToleranceNotMetError,
)
from circlecount.mainterm import BigLogNumber, Progression


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
        assert float(product.log2_magnitude) == pytest.approx(math.log2(9))
        # without a payload on either side only the log2 magnitudes add
        bare = BigLogNumber(5000) * a
        assert bare.exact is None
        assert float(bare.log2_magnitude) == pytest.approx(5000 + math.log2(6))

    def test_negative_sign_rules(self):
        # the value is positive by construction: zero and negatives are refused
        for value in (0, -2, Fraction(-1, 2)):
            with pytest.raises(BadParamsError, match="positive"):
                BigLogNumber.from_fraction(value)

    def test_doubly_exponential_level(self):
        huge = BigLogNumber(2**200).to_json_dict()
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
            (lambda: BigLogNumber(-(2**200)).to_json_dict()["log2_of_abs_log2"],
             "200.0"),
            (lambda: BigLogNumber(2**48 - 1).to_json_dict().get("log2_of_abs_log2"),
             None),
            (lambda: BigLogNumber(2**48).to_json_dict()["level"], 2),
        ],
    )
    def test_edge_branches(self, make, expected):
        assert make() == expected


def _mpmath_json(mag, exact=None):
    """A log2 magnitude's JSON as 120-bit mpmath values print it."""
    level = 0 if exact is not None else 1 if abs(mag) < mpmath.mpf(2) ** 48 else 2
    out = {"sign": 1, "level": level, "log2_magnitude": mpmath.nstr(mag, 20)}
    if level == 2:
        out["log2_of_abs_log2"] = mpmath.nstr(mpmath.log(abs(mag), 2), 20)
    if exact is not None:
        out["exact"] = str(exact)
    return out


def _mpmath_sheet(k, s0, cs):
    """gamma, C, c and (with a CS value) K of the sheet, each evaluated at 120
    bits in mpmath: 2^gamma, (s0 + 2) 2^gamma, 2^(-2^(k+9)) and
    (cs/4)^(2^gamma), with the exact payloads of at most 4096 bits."""
    gamma, c_log2 = 2 ** (k + 8) + k + 1, 2 ** (k + 9)
    with mpmath.workprec(120):
        sheet = [
            _mpmath_json(mpmath.mpf(gamma), 2**gamma if gamma < 4096 else None),
            _mpmath_json(mpmath.log(s0 + 2, 2) + gamma),
            _mpmath_json(mpmath.mpf(-c_log2),
                         Fraction(1, 2**c_log2) if c_log2 < 4096 else None),
        ]
        if cs is not None:
            sheet.append(_mpmath_json(
                mpmath.power(2, gamma) * mpmath.log(mpmath.mpf(cs) / 4, 2)))
    return sheet


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
        assert sheet.K_const == (1, 2**10 + 3, 0)
        assert sheet.K_const.as_big_log().log2_magnitude == 0

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

    @pytest.mark.parametrize("bracket", ["floor", "trunc"])
    def test_sheet_matches_the_mpmath_strings(self, bracket):
        for k in [*range(2, 13), 20, 30, 54, 60]:
            for cs in (None, 4.0, 0.5, 3.0, 1e-300, 123.456, 4.000000001):
                sheet = constants(k, cs, bracket)
                got = [sheet.gamma, sheet.C_exp, sheet.c_exp]
                if cs is not None:
                    got.append(sheet.K_const.as_big_log())
                expected = _mpmath_sheet(k, sheet.s0, cs)
                assert [x.to_json_dict() for x in got] == expected, (k, cs)

    @pytest.mark.parametrize("k", [112, 300])
    def test_k_digits_past_k111_match_a_2000_bit_evaluation(self, k):
        # log10 |log2 K| = gamma log10 2 + log10 |log2(cs/4)|, split into its
        # integer part and the 20 digits of 10^fraction
        gamma = 2 ** (k + 8) + k + 1
        with mpmath.workprec(2000):
            lg = gamma * mpmath.log10(2) + mpmath.log10(abs(mpmath.log(mpmath.mpf(0.5) / 4, 2)))
            exponent = int(mpmath.floor(lg))
            digits = mpmath.nstr(mpmath.power(10, lg - exponent), 20)
        assert "e" not in digits and not digits.startswith("10")
        magnitude = constants(k, 0.5).K_const.as_big_log().to_json_dict()["log2_magnitude"]
        assert magnitude == f"-{digits}e+{exponent}"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_exponent_past_the_int_to_str_digit_limit(self):
        # -2^(2^2200) has a decimal exponent of 663 digits, past a 640-digit limit
        scale = 2**2200
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            magnitude = BigLogNumber(-1, scale=scale).to_json_dict()["log2_magnitude"]
        finally:
            sys.set_int_max_str_digits(limit)
        with mpmath.workprec(2600):
            lg = scale * mpmath.log10(2)
            exponent = int(mpmath.floor(lg))
            digits = mpmath.nstr(mpmath.power(10, lg - exponent), 20)
        assert magnitude == f"-{digits}e+{exponent}"

    @pytest.mark.parametrize("prec", [1, 2, 28, 61, 62, 200, 1500])
    def test_log10_2_equals_decimal_log10(self, prec):
        ctx = decimal.Context(prec=prec)
        assert mainterm._log10_2(ctx) == ctx.log10(2)

    @pytest.mark.parametrize("k", [30000, 50000])
    def test_k_digits_at_large_k_match_mpmath_quickly(self, k):
        # K's digits read log10 2 to 0.30103 (k + 9) + 61 digits: at k = 30,000
        # libmpdec's own log10 took about 13 s on a 2-core host, and the series
        # takes 0.14 s; at k = 50,000 a precision of 0.3 digits per bit of
        # gamma would leave fewer than 20 digits of lg's fraction
        start = time.perf_counter()
        magnitude = constants(k, 0.5).K_const.as_big_log().to_json_dict()["log2_magnitude"]
        assert time.perf_counter() - start < 4.0
        gamma = 2 ** (k + 8) + k + 1
        with mpmath.workprec(k + 200):
            lg = gamma * mpmath.log10(2) + mpmath.log10(abs(mpmath.log(mpmath.mpf(0.5) / 4, 2)))
            exponent = int(mpmath.floor(lg))
            digits = mpmath.nstr(mpmath.power(10, lg - exponent), 20)
        assert magnitude == f"-{digits}e+{decimal.Decimal(exponent)}"


class TestUniformityThreshold:
    def test_delta_one_returns_k(self):
        k_const = BigLogNumber.from_fraction(5)
        th = uniformity_threshold(2, 42, k_const, 1)
        assert th.exact == 5

    def test_exponent_arithmetic(self):
        k_const = constants(2, cs_value=4.0).K_const.as_big_log()  # log2 K = 0
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

    def test_byte_check_refuses_before_real_solution_search(self, sys_quad4, monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("the Newton search ran before the budget check")

        monkeypatch.setattr(mainterm, "find_nonsingular_real_solution", searched)
        with pytest.raises(BudgetExceededError, match="band volume points"):
            estimate_singular_integral_constant(
                sys_quad4, "band_volume", budget=Budget(max_key_bytes=10**6)
            )
        # one chunk of 250,000 points, not the whole sample, sets the estimate
        monkeypatch.setattr(mainterm, "find_nonsingular_real_solution", lambda *a, **kw: None)
        chunk_bytes = 8 * 250_000 * (sys_quad4.arity + 3)
        for max_key_bytes, error in ((chunk_bytes, NoRealSolutionError),
                                     (chunk_bytes - 1, BudgetExceededError)):
            with pytest.raises(error):
                estimate_singular_integral_constant(
                    sys_quad4, "band_volume", samples=10**8,
                    budget=Budget(max_ops=10**10, max_key_bytes=max_key_bytes),
                )

    def test_band_volume_peak_memory(self):
        # one chunk of points, its |L_1| and the slab test's temporaries; the
        # degree 2..k values are formed on the rows within eps only
        cubic8 = validate_system(3, (1, 1, 1, 1, -1, -1, -1, -1))
        estimate_singular_integral_constant(cubic8, "band_volume", seed=1)
        tracemalloc.start()
        try:
            estimate_singular_integral_constant(cubic8, "band_volume", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 250_000 * (cubic8.arity + 3)

    @pytest.mark.parametrize(
        "k, lam, seeds",
        [
            (1, (2, -1, -1), (1, 7)),
            (2, (1, 1, -1, -1), (1, 3, 20)),
            (2, (1, 1, 1, -1, -1, -1), (0, 11)),
            (3, (1, 1, 1, 1, -1, -1, -1, -1), (1, 2, 31)),
        ],
        ids=["lin3", "quad4", "quad6", "cubic8"],
    )
    def test_band_volume_matches_every_degree_at_every_point(self, k, lam, seeds):
        # oracle: every L_j at every point of each 250,000-row chunk; the
        # 400,000 samples also run the 150,000-row tail chunk
        system, samples, eps = validate_system(k, lam), 400_000, 0.04
        coeffs = np.array(lam, dtype=np.float64)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            hits = [0, 0]
            for take in (250_000, samples - 250_000):
                pts = rng.uniform(0.0, 1.0, size=(take, system.arity))
                dev = np.max(np.abs([(pts**j) @ coeffs for j in range(1, k + 1)]), axis=0)
                hits[0] += int(np.count_nonzero(dev <= eps))
                hits[1] += int(np.count_nonzero(dev <= eps / 2))
            vols = [h / samples / (2.0 * e) ** k for h, e in zip(hits, (eps, eps / 2.0))]
            std = math.sqrt(max(hits[1], 1)) / samples / (2.0 * (eps / 2.0)) ** k
            est = estimate_singular_integral_constant(
                system, "band_volume", samples=samples, eps=eps, seed=seed
            )
            assert est.details["volumes"] == vols
            assert est.value == 2.0 * vols[1] - vols[0]
            assert est.spread == max(abs(vols[1] - vols[0]), 3.0 * std)

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


def _k_for_target_d(sheet, delta0, d_target):
    """The sheet's K with base (1/delta0)^(s0 + 2), so that x_0 = 1 exactly, and
    shift log2 d_target: D_0 = d_target at delta0."""
    return sheet.K_const._replace(
        base=(1 / Fraction(delta0)) ** (sheet.s0 + 2), shift=math.log2(d_target)
    )


def _reference_trace(delta0, loglog_n0, y, k, cs):
    """Independent reference: the recurrences on log2 K and log2 C rounded to
    120 bits, worked at C's magnitude plus 80 bits, as the trace ran before it
    used K's factors.  The rounding of its inputs moves log2 D by about
    2^(gamma - 110), so it is right only where log2 x_0 is far from 0."""
    gamma = 2 ** (k + 8) + k + 1
    with mpmath.workprec(120):
        k_log2 = mpmath.power(2, gamma) * mpmath.log(mpmath.mpf(cs) / 4, 2)
        c_log2 = mpmath.log(constants(k).s0 + 2, 2) + gamma
    with mpmath.workprec(int(c_log2) + 80):
        c_val = mpmath.power(2, c_log2)
        delta = mpmath.mpf(delta0.numerator) / delta0.denominator
        loglog = mpmath.mpf(loglog_n0)
        d0 = min(mpmath.power(2, k_log2 + c_val * mpmath.log(delta, 2)), 1)
        steps = [(float(delta), float(loglog))]
        cumulative, iterations, outcome = mpmath.mpf(1), 0, "density_reached_one"
        while delta < 1:
            if iterations == 10_000:
                outcome = "budget"
                break
            d_r = min(mpmath.power(2, k_log2 + c_val * mpmath.log(delta, 2)), 1)
            delta = min(delta + d_r, 1)
            loglog += mpmath.log(d_r)
            cumulative *= d_r
            iterations += 1
            steps.append((float(delta), float(loglog)))
            if delta < 1 and loglog < mpmath.log(mpmath.log(y)):
                outcome = "ambient_below_Y"
                break
        return (tuple(steps), iterations, outcome, float(cumulative),
                float(1 / (2 * d0)), float(mpmath.ceil(1 / d0)))


class TestIncrementIteration:
    def test_density_one_immediate(self):
        sheet = constants(2, cs_value=4.0)
        trace = increment_iteration(1, 10.0, 3, sheet.K_const, sheet.s0)
        assert trace.outcome == "density_reached_one"
        assert trace.iterations_used == 0

    def test_big_d_two_steps(self):
        sheet = constants(2, cs_value=4.0)
        delta0 = Fraction(2, 5)
        k_const = _k_for_target_d(sheet, delta0, 0.55)
        trace = increment_iteration(delta0, 50.0, 3, k_const, sheet.s0)
        assert trace.outcome == "density_reached_one"
        assert trace.iterations_used == 2
        assert trace.cumulative_exponent >= 0.25

    def test_tiny_d_collapses_ambient(self):
        sheet = constants(2, cs_value=4.0)  # K = 1, C astronomically large
        trace = increment_iteration(Fraction(1, 2), 100.0, 3, sheet.K_const, sheet.s0)
        assert trace.outcome == "ambient_below_Y"
        assert trace.iterations_used == 1

    def test_density_nondecreasing_along_trace(self):
        sheet = constants(2, cs_value=4.0)
        delta0 = Fraction(1, 10)
        k_const = _k_for_target_d(sheet, delta0, 0.2)
        trace = increment_iteration(delta0, 1000.0, 3, k_const, sheet.s0)
        dens = [d for d, _ in trace.steps]
        assert all(a <= b + 1e-15 for a, b in zip(dens, dens[1:]))
        assert trace.iterations_used <= trace.max_iterations_bound

    def test_rejects_bad_inputs(self):
        sheet = constants(2, cs_value=4.0)
        with pytest.raises(BadParamsError):
            increment_iteration(0, 10.0, 3, sheet.K_const, sheet.s0)
        with pytest.raises(BadParamsError):
            increment_iteration(Fraction(1, 2), 10.0, 2, sheet.K_const, sheet.s0)

    def test_k_without_a_cs_value_is_refused(self):
        sheet = constants(2)
        assert sheet.K_const is None
        with pytest.raises(BadParamsError) as info:
            increment_iteration(0.5, 100.0, 3, sheet.K_const, sheet.s0)
        assert str(info.value) == "K needs a CS value"

    def test_exact_cancellation_reaches_density_one(self, capsys):
        # cs/4 = 2^44 and s0 + 2 = 44 at k = 2, so x_0 = 2^44 (1/2)^44 = 1 and
        # D_0 = 1, which 120-bit magnitudes of K and C got wrong
        assert cli_main(["increment", "--k", "2", "--cs", "70368744177664",
                         "--delta", "1/2", "--loglogn", "100", "--y", "3"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["outcome"], result["iterations_used"]) == ("density_reached_one", 1)
        assert result["steps"] == [[0.5, 100.0], [1.0, 100.0]]

    def test_x_near_one_is_refused(self):
        sheet = constants(2, cs_value=4.0)
        # |log2 x_0| = log2(1 + 2^-120) at a rational delta
        near = sheet.K_const._replace(base=Fraction(2**44) * (1 + Fraction(1, 2**120)))
        with pytest.raises(ToleranceNotMetError, match="< 2\\^-100"):
            increment_iteration(Fraction(1, 2), 100.0, 3, near, sheet.s0)
        # x_0 = 1 and D_0 = 2^-1000 leave delta_1 irrational, its x_1 - 1
        # about 2^-994, which 60 digits cannot tell from 0
        tiny_step = _k_for_target_d(sheet, Fraction(1, 2), 2.0**-1000)
        with pytest.raises(ToleranceNotMetError):
            increment_iteration(Fraction(1, 2), 1000.0, 3, tiny_step, sheet.s0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_the_c_sized_precision_route(self, k):
        # seeded inputs with |log2 x_0| >= 1/1000, where the reference is right
        rnd = random.Random(16 + k)
        s0 = constants(k).s0
        compared = 0
        while compared < 40:
            cs = rnd.choice([4.0, 0.5, 3.0, 5.0, 123.456, 1e-300, rnd.uniform(0.01, 10)])
            delta0 = Fraction(rnd.randint(1, 999), rnd.choice([1000, 997, 64]))
            if not 0 < delta0 <= 1:
                continue
            if abs(math.log2(cs / 4) + (s0 + 2) * math.log2(delta0)) < 1e-3:
                continue
            loglog = rnd.choice([rnd.uniform(0.0, 200.0), 1e300])
            y = rnd.randint(3, 1000)
            trace = increment_iteration(delta0, loglog, y, constants(k, cs).K_const, s0)
            assert (
                trace.steps, trace.iterations_used, trace.outcome,
                trace.cumulative_exponent, trace.threshold_loglog,
                trace.max_iterations_bound,
            ) == _reference_trace(delta0, loglog, y, k, cs), (cs, delta0, loglog, y)
            compared += 1

    def test_fast_up_to_k20_and_past_decimal_range(self, capsys):
        for k in range(2, 21):
            start = time.perf_counter()
            assert cli_main(["increment", "--delta", "1/2", "--loglogn", "100",
                             "--y", "3", "--k", str(k)]) == 0
            assert time.perf_counter() - start < 0.1, k
        # from k = 54 on 2^gamma is Decimal's Infinity: only the sign of log2 x
        close = Fraction(10**9 - 1, 10**9)
        for k, cs, delta0, last in [(54, 4.0, Fraction(1, 2), (0.5, -math.inf)),
                                    (60, 5.0, close, (1.0, 100.0))]:
            sheet = constants(k, cs_value=cs)
            trace = increment_iteration(delta0, 100.0, 3, sheet.K_const, sheet.s0)
            assert (trace.iterations_used, trace.steps[-1]) == (1, last)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: constants(2, bracket="round"), "unknown bracket convention 'round'"),
        (lambda: constants(2, cs_value=0.0), "CS value must be positive"),
        (lambda: uniformity_threshold(2, 10, BigLogNumber.from_fraction(1), 0),
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
