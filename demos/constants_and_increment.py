#!/usr/bin/env python3
"""Constant arithmetic, main-term prediction, and the density increment.

The headline constants are doubly exponential in the degree, so they live on
the log2 scale.  The demo prints the constant sheet, predicts the main term
of the solution count against exact enumeration, and traces the
density-increment iteration in its two regimes.
"""

import math
from fractions import Fraction

from circlecount import (
    SetWindow,
    constants,
    count_solutions,
    estimate_singular_integral_constant,
    increment_iteration,
    predicted_count,
    progression_concentration_search,
    random_density_window,
    truncated_singular_series,
    uniformity_threshold,
    validate_system,
)
from circlecount.mainterm import IncrementConstant

print("== constant sheet for small degrees ==")
for k in (2, 3, 4):
    sheet = constants(k, cs_value=4.0)
    print(f"  k={k}: s0={sheet.s0:4d}  sigma={sheet.sigma:.6f}  "
          f"log2 gamma={float(sheet.gamma.log2_magnitude):.0f}  "
          f"log2 c={float(sheet.c_exp.log2_magnitude):.0f}")
sheet2 = constants(2, cs_value=4.0)
threshold = uniformity_threshold(2, 42, sheet2.K_const.as_big_log(), Fraction(1, 2))
print(f"  threshold at k=2, s0=42, delta=1/2: log2 = "
      f"{float(threshold.log2_magnitude):.0f}")

print("\n== main-term prediction vs exact counts (8 variables, degree 2) ==")
system = validate_system(2, (1, 1, 1, 1, -1, -1, -1, -1))
c_est = estimate_singular_integral_constant(
    system, "band_volume", samples=300_000, eps=0.04, seed=1
)
s_trunc = float(truncated_singular_series(system, 50).partial_sum)
print(f"  C (band volume) = {c_est.value:.3f} +- {c_est.spread:.3f}; "
      f"series(50) = {s_trunc:.3f}")
for n in (8, 16, 32):
    exact = count_solutions(system, SetWindow.full(n), "mitm").total
    pred = predicted_count(system, 1, n, c_est.value, s_trunc)
    print(f"  N={n:2d}: exact = {exact:>10d}  predicted = {pred:>12.0f}  "
          f"ratio = {exact / pred:.3f}")

print("\n== density increment, tiny-D regime (faithful constants) ==")
trace = increment_iteration(Fraction(1, 2), 100.0, 3, sheet2.K_const, sheet2.s0)
print(f"  outcome: {trace.outcome} after {trace.iterations_used} step(s); "
      f"the ambient loglog collapses because D ~ 2^(-10^309)")

print("\n== density increment, D > 1/2 regime ==")
# K = (5/2)^C 0.55 in factored form, base^(2^gamma) 2^shift: the base
# (5/2)^(s0+2) makes x_0 = (5/2)^(s0+2) (2/5)^(s0+2) = 1, so D_0 = 0.55
synthetic_k = IncrementConstant(
    Fraction(5, 2) ** (sheet2.s0 + 2), sheet2.K_const.gamma, math.log2(0.55)
)
trace = increment_iteration(Fraction(2, 5), 50.0, 3, synthetic_k, sheet2.s0)
print(f"  outcome: {trace.outcome} in {trace.iterations_used} steps; "
      f"cumulative ambient exponent {trace.cumulative_exponent:.3f} >= 1/4")
print(f"  density trace: {[round(d, 3) for d, _ in trace.steps]}")

print("\n== progression concentration (the non-uniform alternative) ==")
w = random_density_window(200, 0.45, seed=12)
prog, density = progression_concentration_search(w, 12)
print(f"  set density {float(w.density):.3f}; best progression "
      f"start={prog.start} step={prog.step} length={prog.length} "
      f"density={float(density):.3f}")
