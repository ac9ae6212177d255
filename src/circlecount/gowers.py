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

Unrolled, the sum is sum_{w in Z^k} D(w)^2 with the k-fold difference sum
D(w) = sum_x prod_{S subset of [k]} c(x + sum_{i in S} w_i), and D has two
symmetries.  Negating one shift w_i leaves D unchanged: translate x by w_i.
Permuting the shifts leaves it unchanged too, because the cube
{sum_{i in S} w_i} is the same set.  So the evaluator runs over sorted shifts
0 <= w_1 <= ... <= w_k alone and weights D(w)^2 by the size of its orbit,
2^(number of nonzero w_i) k! / prod r_j!, where the r_j are the lengths of
the runs of equal shifts.  Level i forms the product c(x) c(x + w_i) of the
level above; zero-extension makes it a translate of the product at -w_i, and
it lives on N - w_i points, so the recursion passes that trimmed slice.  The
leaf correlates only the lags w_k >= w_(k-1): a lag equal to w_(k-1) extends
its run and every larger lag starts a run of one, so the leaf needs two
weights, which stay Python integers.

The leaf below shifts w_1..w_(k-1) correlates two slices of length
p = N - w_1 - ... - w_(k-2) - 2 w_(k-1), in p^2 multiply-adds.  In the gaps
u_j = w_j - w_(j-1) >= 0 that is p = N - (k u_1 + (k-1) u_2 + ... + 2 u_(k-1)),
so the multiply-adds total about 2 N^(k+1) / ((k+1)! k!): N^3 / 6 at k = 2
and N^4 / 72 at k = 3, k! times fewer than the 2 N^(k+1) / (k+1)! of a
recursion that uses the sign symmetry alone.  The budget estimate N^(k+1)
bounds the work from above.

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

The leaf's lags exceed neither bound, but their squares may.  On the float64
and int64 tiers the leaves convert their lags to int64 (exactly, from float64)
and hold them by weight until ``_CHUNK`` or more are held; ``_square_sum``
then sums their squares exactly from int64 dot products of limbs, so only a
few limb sums per batch are Python integers.  The object tier squares its
lags in Python integers.

A naive evaluator of the literal (k+2)-fold sum with the translated-interval
restriction is kept for cross-checking; it uses neither the collapse nor the
symmetries nor the trimming.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .budget import Budget, fits_float64, fits_int64
from .errors import BadParamsError
from .expsums import _CHUNK, eval_E_batch
# the balanced function lives in windows, below expsums and this module, and
# is re-exported from here
from .windows import SetWindow, balanced_function

# the N^(k+1)-work evaluator gets its own ceiling: N = 4096 at degree 2
GOWERS_DEFAULT_BUDGET = Budget(max_ops=4096**3)


class UniformityReport(NamedTuple):
    degree: int
    difference_sum: Fraction
    parameter: Fraction


def _square_sum(a: np.ndarray) -> int:
    """Exact sum of squares of an int64 array with every |a| < 2^62.

    |a| is split into limbs of b = floor((62 - bit_length(len)) / 2) bits, so
    each limb product is below 2^(2b) and a dot product of len of them below
    2^62; the limb dot products are then recombined in Python integers as
    sum_{u <= v} (2 if u != v else 1) 2^(b (u + v)) dot(l_u, l_v)."""
    a = np.abs(a)
    b = (62 - len(a).bit_length()) // 2
    top = int(a.max())
    limbs = [a]
    if top >> b:
        mask = (1 << b) - 1
        limbs = [a >> shift & mask for shift in range(0, top.bit_length(), b)]
    return sum(
        (1 if u == v else 2) * int(np.dot(lu, limbs[v])) << b * (u + v)
        for u, lu in enumerate(limbs)
        for v in range(u, len(limbs))
    )


def _collapse_scaled(values: Sequence[int], k: int, dtype: type) -> int:
    """Integer numerator of the difference sum: the collapse-identity recursion
    over sorted shifts on the balanced values held as ``dtype`` (np.float64,
    np.int64 or object)."""

    def leaves(c: np.ndarray, depth: int, lo: int, run: int, weight: int):
        # c is the product over the i - 1 shifts chosen so far, the last of
        # them lo, which ends a run of ``run`` equal shifts; ``weight`` is
        # their 2^(#nonzero) (i - 1)! / prod r_j!.  Choosing w_i multiplies
        # it by i / r (r the length of w_i's run) and by 2 if w_i > 0.  Each
        # leaf yields its weights for lag 0 and for the other lags, and its lags.
        i = k - depth + 1
        if depth == 1:
            p = len(c) - lo
            yield (weight * i // (run + 1) * (2 if lo else 1), 2 * weight * i,
                   np.correlate(c[lo:], c[:p], "full")[p - 1 :])
            return
        n = len(c)
        # the depth shifts left are all >= w and the leaf's first lag must
        # fall inside its slice, so w * depth < n
        for w in range(lo, (n + depth - 1) // depth):
            r = run + 1 if w == lo else 1
            child = weight * i // r * (2 if w else 1)
            yield from leaves(c[w:] * c[: n - w], depth - 1, w, r, child)

    # the int64 lags not yet squared, by their weight, held < _CHUNK + N
    pending: dict[int, list[np.ndarray]] = {}

    def flush() -> int:
        total = sum(new * _square_sum(np.concatenate(lags)) for new, lags in pending.items())
        pending.clear()
        return total

    total = held = 0
    for tie, new, ac in leaves(np.asarray(values, dtype=dtype), k, 0, 0, 1):
        if dtype is object:
            ac = ac.tolist()
            total += new * sum(map(operator.mul, ac, ac)) - (new - tie) * ac[0] ** 2
            continue
        # exact: the tier bound keeps every lag below 2^53 (float64) or 2^62
        ac = ac.astype(np.int64)
        first = int(ac[0])
        total -= (new - tie) * first * first
        pending.setdefault(new, []).append(ac)
        held += len(ac)
        if held >= _CHUNK:
            total += flush()
            held = 0
    return total + flush()


def difference_sum(
    window: SetWindow, degree: int, budget: Budget = GOWERS_DEFAULT_BUDGET
) -> Fraction:
    """Exact value of the (k+1)-fold difference sum of the balanced function."""
    if degree < 1:
        raise BadParamsError(f"degree must be >= 1, got {degree}")
    n = window.length
    budget.check_ops(n ** (degree + 1), "difference sum")
    # values bounded by N^(2^(k-1)) after the product levels, correlate adds
    # a factor N^(2^(k-1)) * N: exact while N^(2^k + 1) fits the dtype
    bound = n ** (2**degree + 1)
    dtype = np.float64 if fits_float64(bound) else np.int64 if fits_int64(bound) else object
    scaled = _collapse_scaled(balanced_function(window), degree, dtype)
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
    off = (degree + 1) * (n - 1)
    pad = np.zeros(n + 2 * off, dtype=np.int64)
    pad[off : off + n] = balanced_function(window)
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


class WeylChainReport(NamedTuple):
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
    slack = 1.0 + 1e-9  # float-noise guard only; the inequalities are exact
    # the chain compares logarithms, as both of its sides leave the float
    # range from degree 7 on: log(rhs * slack + 1e-12), rhs = (2N)^(p-k-2) D
    ds = rep.difference_sum
    log_rhs = (math.log(slack) + (p - degree - 2) * math.log(2 * n)
               + math.log(ds.numerator) - math.log(ds.denominator)) if ds else -math.inf
    log_chain = float(np.logaddexp(log_rhs, math.log(1e-12)))
    # a parameter below about 2^-1000 is scaled by 2^(p m) into the normal
    # float range first; p is a power of 2, so dividing the root by 2^m is exact
    par = rep.parameter
    m = max(0, -((1000 + par.numerator.bit_length() - par.denominator.bit_length()) // p))
    bound = 2.0 * float(par * 2 ** (p * m)) ** (1.0 / p) / 2**m * n
    max_ratio = 0.0
    chain = True
    sup = True
    for e_val in eval_E_batch(window, phases):
        e_abs = abs(e_val)
        if e_abs and p * math.log(e_abs) > log_chain:
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
