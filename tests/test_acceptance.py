"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Exact identities are asserted as exact equalities of
integers/rationals; analytic cross-checks use the stated tolerances.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from circlecount import (
    SetWindow,
    congruence_count,
    constants,
    count_solutions,
    difference_sum,
    difference_sum_naive,
    estimate_singular_integral_constant,
    eval_E,
    hensel_lift,
    increment_iteration,
    is_trivial,
    multiplicativity_check,
    oscillatory_w,
    random_density_window,
    series_term_direct,
    series_term_moebius,
    stream_solutions,
    trivial_count,
    truncated_singular_series,
    uniformity_parameter,
    validate_system,
    vinogradov_moment,
)
from circlecount.errors import SingularJacobianError
from circlecount.mainterm import IncrementConstant

from conftest import (
    closed_form_w_linear,
    criterion_11_commands,
    random_system,
    random_window,
)

SYS_QUAD4 = validate_system(2, (1, 1, -1, -1))
SYS_LIN3 = validate_system(1, (2, -1, -1))
SYS_QUAD6 = validate_system(2, (1, 1, 1, -1, -1, -1))
SYS_VINO8 = validate_system(2, (1, 1, 1, 1, -1, -1, -1, -1))


def test_criterion_01_divisor_identity():
    """sum_{d|q} S(d) = q^(k-s) M(q), direct route vs DP counts, q <= 50."""
    for system in (SYS_QUAD4, SYS_LIN3):
        k, s = system.degree, system.arity
        direct = {q: series_term_direct(system, q) for q in range(1, 51)}
        for q in range(1, 51):
            lhs = sum(direct[d] for d in range(1, q + 1) if q % d == 0)
            rhs = float(
                congruence_count(system, q).count * Fraction(1, q ** (s - k))
            )
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs)), (system, q)
    print("PASS criterion 1: divisor identity, both systems, q <= 50")


def test_criterion_02_multiplicativity():
    for system in (SYS_QUAD4, SYS_LIN3):
        for q in range(1, 61):
            for r in range(q, 61):
                if q * r <= 60 and math.gcd(q, r) == 1:
                    rep = multiplicativity_check(system, q, r)
                    assert rep.passed, (system, q, r)
    assert series_term_moebius(SYS_QUAD4, 2) == 1
    assert series_term_moebius(SYS_QUAD4, 3) == Fraction(2, 3)
    assert series_term_moebius(SYS_QUAD4, 6) == Fraction(2, 3)
    print("PASS criterion 2: multiplicativity for qr <= 60 plus spot values")


def test_criterion_03_counting_oracles():
    rnd = random.Random(2024)
    for i in range(200):
        s = rnd.randint(2, 6)
        system = random_system(rnd, s, rnd.randint(1, 2))
        window = random_window(rnd, rnd.randint(2, 12), 300_000, s)
        naive = count_solutions(system, window, "naive")
        mitm = count_solutions(system, window, "mitm")
        assert naive.total == mitm.total, (system, window, i)
        assert naive.trivial == mitm.trivial
    for i in range(100):
        s = rnd.randint(2, 8)
        system = random_system(rnd, s, rnd.randint(1, 2))
        window = random_window(rnd, rnd.randint(2, 10), 2_000_000, s)
        streamed = sum(
            1 for t in stream_solutions(system, window) if is_trivial(system, t)
        )
        assert streamed == trivial_count(system, window.cardinality), (system, i)
    print("PASS criterion 3: MITM = naive on 200 instances; "
          "trivial formula = streamed classification on 100 instances")


def test_criterion_04_vinogradov_moment():
    def brute(n):
        xs = np.arange(1, n + 1)
        s1 = (xs[:, None] + xs[None, :]).ravel()
        s2 = (xs[:, None] ** 2 + xs[None, :] ** 2).ravel()
        keys = {}
        for a, b in zip(s1.tolist(), s2.tolist()):
            keys[(a, b)] = keys.get((a, b), 0) + 1
        return sum(m * m for m in keys.values())

    for n in range(1, 41):
        assert vinogradov_moment(n, 2, 2) == 2 * n * n - n
        if n <= 12:
            assert brute(n) == 2 * n * n - n
    for k in range(1, 5):
        for n in (1, 2, 3, 10, 50, 100):
            assert vinogradov_moment(n, k, 1) == n
    print("PASS criterion 4: moment(N,2,2) = 2N^2 - N up to 40; "
          "moment(N,k,1) = N for k <= 4")


def test_criterion_05_gowers_collapse():
    n = 12
    for mask in range(1, 1 << n):
        w = SetWindow(n, mask)
        assert difference_sum(w, 1) == difference_sum_naive(w, 1), mask
    rnd = random.Random(77)
    for i in range(200):
        size = rnd.randint(2, 16)
        w = SetWindow(size, rnd.getrandbits(size) or 1)
        assert difference_sum(w, 2) == difference_sum_naive(w, 2), (size, w.mask)
    assert uniformity_parameter(SetWindow.full(16), 2).parameter == 0
    print("PASS criterion 5: collapse identity, 4095 windows k=1 and "
          "200 random windows k=2; full interval parameter 0")


def test_criterion_06_weyl_bound():
    rng = np.random.default_rng(99)
    violations = 0
    for i in range(50):
        w = random_density_window(256, float(rng.uniform(0.2, 0.8)), seed=1000 + i)
        a = uniformity_parameter(w, 2).parameter
        bound = 2.0 * float(a) ** (1.0 / 8.0) * 256
        for alpha in rng.uniform(0.0, 1.0, size=(1000, 2)):
            if abs(eval_E(w, alpha)) > bound:
                violations += 1
    assert violations == 0
    print("PASS criterion 6: |E(alpha)| <= 2 a^(1/8) N at 50 x 1000 samples, "
          "zero violations")


def test_criterion_07_hensel():
    rnd = random.Random(4096)
    lifted = 0
    attempts = 0
    while lifted < 100 and attempts < 100_000:
        attempts += 1
        p = rnd.choice([3, 5, 7])
        t = rnd.randint(2, 4)
        system = rnd.choice([SYS_QUAD6, SYS_VINO8])
        seed = tuple(rnd.randrange(p) for _ in range(system.arity))
        if any(v % p != 0 for v in system.equations_at(seed)):
            continue
        try:
            lift = hensel_lift(system, seed, p, t)
        except SingularJacobianError:
            continue
        mod = p**t
        assert all(v % mod == 0 for v in system.equations_at(lift.values))
        assert all((a - b) % p == 0 for a, b in zip(lift.values, seed))
        lifted += 1
    assert lifted == 100
    for system in (SYS_QUAD4, SYS_QUAD6):
        with pytest.raises(SingularJacobianError):
            hensel_lift(system, (2,) * system.arity, 5, 2)
    print("PASS criterion 7: 100 certified lifts verified mod p^t; "
          "singular seeds rejected")


def test_criterion_08_oscillatory():
    for n in (1, 17, 137):
        assert oscillatory_w(n, (0.0, 0.0)) == n
    rnd = random.Random(8)
    for _ in range(100):
        n = rnd.randint(1, 200)
        b = rnd.uniform(-2.0, 2.0)
        assert abs(oscillatory_w(n, (b,)) - closed_form_w_linear(n, b)) <= 1e-10 * n
    n = 100
    ts = (np.arange(10**6) + 0.5) * (n / 10**6)
    for _ in range(20):
        beta = (rnd.uniform(-0.5, 0.5), rnd.uniform(-0.005, 0.005))
        oracle = np.exp(
            2j * np.pi * (beta[0] * ts + beta[1] * ts**2)
        ).sum() * (n / 10**6)
        assert abs(oscillatory_w(n, beta) - oracle) <= 1e-6 * n
    print("PASS criterion 8: w(0) = N exact; k=1 closed form at 1e-10 N; "
          "Riemann oracle at 1e-6 N")


def test_criterion_09_main_term_trend():
    r16 = count_solutions(SYS_VINO8, SetWindow.full(16), "mitm").total / 16**5
    r32 = count_solutions(SYS_VINO8, SetWindow.full(32), "mitm").total / 32**5
    assert 0.8 <= r32 / r16 <= 1.25
    s_tr = float(truncated_singular_series(SYS_VINO8, 50).partial_sum)
    band = estimate_singular_integral_constant(
        SYS_VINO8, "band_volume", samples=400_000, eps=0.04, seed=1
    )
    predicted = band.value * s_tr
    assert predicted / 2 <= r32 <= predicted * 2
    print(f"PASS criterion 9: r(32)/r(16) = {r32 / r16:.4f} in [0.8, 1.25]; "
          f"r(32) = {r32:.3f} vs band prediction {predicted:.3f} within factor 2")


def test_criterion_10_constants_sheet():
    assert constants(3).s0 == 114
    sheet2 = constants(2)
    assert abs(sheet2.sigma - 0.0124507) <= 1e-6
    assert sheet2.c_exp.log2_magnitude == -2048
    delta0 = Fraction(2, 5)
    # K = (5/2)^C 0.55 = ((5/2)^(s0+2))^(2^gamma) 2^(log2 0.55): x_0 = 1
    # exactly, so D_0 = 0.55 > 1/2 at delta0
    k_const = IncrementConstant(
        Fraction(5, 2) ** (sheet2.s0 + 2), 2**10 + 3, math.log2(0.55)
    )
    trace = increment_iteration(delta0, 50.0, 3, k_const, sheet2.s0)
    assert trace.outcome == "density_reached_one"
    assert trace.iterations_used <= 2
    assert trace.cumulative_exponent >= 0.25
    print("PASS criterion 10: s0(3) = 114, sigma(2), log2 c(2) = -2048 exact, "
          "D > 1/2 branch reaches density 1 in <= 2 steps with exponent >= 1/4")


def test_criterion_11_cli_determinism(tmp_path):
    for cmd in criterion_11_commands(tmp_path):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "circlecount.cli"] + cmd,
                capture_output=True,
                timeout=600,
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], cmd
    print("PASS criterion 11: all 15 subcommands byte-identical across "
          "two runs")
