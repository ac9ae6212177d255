"""Degree-k uniformity sums of the balanced function, exactly.

The balanced function of a window is delta_N - A(x) on [1, N] and 0 outside.
Scaling by N turns it into the integer B(x) = |A_N| - N*A(x), so the central
quantity of this module, the (k+1)-fold difference sum, is an exact integer
divided by N^(2^(k+1)).

The fast evaluator uses the collapse identity: summing the innermost
difference shift over all of Z turns the (k+2)-fold sum into a sum of squared
k-fold difference sums,

    sum_{w_1..w_{k+1}} sum_x D_{k+1} = sum_{w_1..w_k} ( sum_x D_k )^2,

which also shows the quantity is nonnegative.  Zero-extension of the balanced
function makes this equal to the interval-restricted sum: any term with an
argument outside [1, N] vanishes.

Zero-extension also makes every level of the recursion invariant under
translation, which the evaluator uses twice.  The product c(x) c(x+w) at shift
-w is a translate of the product c(x) c(x-w) at +w, so the shift loop runs
over w >= 0 and doubles the w > 0 terms; and the product at shift w lives on
N - w points, so the recursion passes that trimmed slice.  The leaf's
autocorrelation is symmetric too, so it squares only the centre and the right
half.  Each level thus sums the work of the level below over support lengths
1..N: the multiply-adds total at most N^(k+1), about 2 N^(k+1) / (k+1)!, and
the budget estimate N^(k+1) bounds the work from above.

The recursion runs on one of three exact dtypes, chosen once per call from
the bound N^(2^k + 1) = N (N^(2^(k-1)))^2.  After the k - 1 product levels
every value has magnitude at most N^(2^(k-1)), so that bound covers the sum
of the magnitudes of the terms of every correlation the recursion forms:

- float64 while the bound is below 2^53 (``budget.fits_float64``): every
  product and every partial sum is then an integer float64 holds exactly, so
  ``np.correlate`` (a SIMD dot product on float64) is exact in any summation
  order, with or without fused multiply-adds.  This holds for N <= 208,063
  at k = 1, 1,552 at k = 2, 59 at k = 3 and 8 at k = 4;
- int64 while it is below 2^62 (``budget.fits_int64``): N <= 5,404 at
  k = 2, 118 at k = 3 and 12 at k = 4;
- otherwise Python integers in an object array.

The leaf's lags exceed neither bound, but their squares may, so the leaf
converts the lags to int64 (exactly, from float64) and squares them in Python
integers.

A naive evaluator of the literal (k+2)-fold sum with the translated-interval
restriction is kept for cross-checking; it uses neither the collapse nor the
symmetry nor the trimming.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .budget import Budget, fits_float64, fits_int64
from .errors import BadParamsError
from .expsums import eval_E_batch
# the balanced function lives in windows, below expsums and this module, and
# is re-exported from here with its class
from .windows import BalancedFunction, SetWindow, balanced_function

# the N^(k+1)-work evaluator gets its own ceiling: N = 4096 at degree 2
GOWERS_DEFAULT_BUDGET = Budget(max_ops=4096**3)


@dataclass(frozen=True)
class UniformityReport:
    degree: int
    difference_sum: Fraction
    parameter: Fraction


def _collapse_scaled(values: Sequence[int], k: int, dtype: type) -> int:
    """Integer numerator of the difference sum: the collapse-identity recursion
    on the balanced values held as ``dtype`` (np.float64, np.int64 or object)."""

    def rec(c: np.ndarray, depth: int) -> int:
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


def difference_sum(
    window: SetWindow, degree: int, budget: Budget = GOWERS_DEFAULT_BUDGET
) -> Fraction:
    """Exact value of the (k+1)-fold difference sum of the balanced function."""
    if degree < 1:
        raise BadParamsError(f"degree must be >= 1, got {degree}")
    n = window.length
    budget.check_ops(n ** (degree + 1), "difference sum")
    b = balanced_function(window)
    # values bounded by N^(2^(k-1)) after the product levels, correlate adds
    # a factor N^(2^(k-1)) * N: exact while N^(2^k + 1) fits the dtype
    bound = n ** (2**degree + 1)
    dtype = np.float64 if fits_float64(bound) else np.int64 if fits_int64(bound) else object
    scaled = _collapse_scaled(b.values, degree, dtype)
    assert scaled >= 0
    return Fraction(scaled, n ** (2 ** (degree + 1)))


def difference_sum_naive(window: SetWindow, degree: int) -> Fraction:
    """Literal (k+2)-fold sum over shift vectors and the translated-interval
    intersection I_w; cross-check oracle for :func:`difference_sum`.

    The shifts w_1..w_k run as a Python loop; the innermost shift w_{k+1} and
    x run together as one 2-D gather over (x, w_{k+1}), with I_w as a mask.
    """
    if degree < 1:
        raise BadParamsError(f"degree must be >= 1, got {degree}")
    n = window.length
    b = balanced_function(window)
    off = (degree + 1) * (n - 1)
    pad = np.zeros(n + 2 * off, dtype=np.int64)
    pad[off : off + n] = b.values
    total = 0
    shifts = range(-(n - 1), n)
    innermost = np.arange(-(n - 1), n)
    xs = np.arange(1, n + 1)[:, None]
    for outer in itertools.product(shifts, repeat=degree):
        w = (*outer, innermost)
        prefixes = list(itertools.accumulate(w))
        lo = 1 + functools.reduce(np.maximum, prefixes, 0)
        hi = n + functools.reduce(np.minimum, prefixes, 0)
        term = ((lo <= xs) & (xs <= hi)).astype(np.int64)
        for r in range(degree + 2):
            for subset in itertools.combinations(range(degree + 1), r):
                ssum = sum(w[i] for i in subset)
                term = term * pad[xs - ssum - 1 + off]
        total += int(term.sum())
    return Fraction(total, n ** (2 ** (degree + 1)))


def uniformity_parameter(
    window: SetWindow, degree: int, budget: Budget = GOWERS_DEFAULT_BUDGET
) -> UniformityReport:
    """Smallest admissible uniformity parameter: difference sum over N^(k+2)."""
    ds = difference_sum(window, degree, budget)
    return UniformityReport(
        degree=degree,
        difference_sum=ds,
        parameter=ds / Fraction(window.length) ** (degree + 2),
    )


@dataclass(frozen=True)
class WeylChainReport:
    degree: int
    parameter: Fraction
    samples: int
    max_ratio: float
    chain_holds: bool
    supnorm_holds: bool


def weyl_chain_check(
    window: SetWindow,
    degree: int,
    phases: Sequence[Sequence[float]],
    budget: Budget = GOWERS_DEFAULT_BUDGET,
) -> WeylChainReport:
    """Check, at each sampled phase point, the Weyl-differencing inequality

        |E(alpha)|^(2^(k+1)) <= (2N)^(2^(k+1)-k-2) * difference_sum

    and the resulting sup-norm bound |E(alpha)| <= 2 a^(1/2^(k+1)) N with the
    exact parameter a.  Returns the largest |E| / bound ratio observed.  The
    sums at all phase points come from one ``eval_E_batch`` call.
    """
    rep = uniformity_parameter(window, degree, budget)
    n = window.length
    p = 2 ** (degree + 1)
    chain_rhs = float(2 * n) ** (p - degree - 2) * float(rep.difference_sum)
    bound = 2.0 * float(rep.parameter) ** (1.0 / p) * n
    max_ratio = 0.0
    chain = True
    sup = True
    slack = 1.0 + 1e-9  # float-noise guard only; the inequalities are exact
    for e_val in eval_E_batch(window, phases):
        e_abs = abs(e_val)
        if e_abs**p > chain_rhs * slack + 1e-12:
            chain = False
        if e_abs > bound * slack + 1e-12:
            sup = False
        ratio = 0.0 if e_abs == 0.0 else (e_abs / bound if bound > 0 else float("inf"))
        max_ratio = max(max_ratio, ratio)
    return WeylChainReport(
        degree=degree,
        parameter=rep.parameter,
        samples=len(phases),
        max_ratio=max_ratio,
        chain_holds=chain,
        supnorm_holds=sup,
    )
