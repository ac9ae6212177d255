"""Generating exponential sums, complete rational sums, oscillatory integrals,
and the major/minor arc classifier.

Phase points are vectors (alpha_1, ..., alpha_k) in ascending degree order:
alpha_j multiplies x^j.  ``_exp_sum`` is the one float phase sum, behind f, g,
E and the quadrature of w; it sums a block of phase points at once, and
``eval_E_batch`` evaluates E at many points in one pass over 1..N, weighting
each term by the balanced function delta_N - 1_A(x).  Its terms e(phase) come
from one kernel, ``_e_terms``: cos t + i sin t at t = fl(2 pi phase), with t
first reduced to [-pi, pi] by Cody-Waite, within 4 * 2^-53 of e^(it) per term
for |t| < 2^52, on top of the phase's own rounding of about |t| 2^-53.  A
degree-1 row on integer points, such as the Weyl chain's, writes x = 64 a + b
and multiplies two short tables of kernel terms, e(64 alpha a) and
e(alpha b), about N/64 + 64 of them in place of N; each product is within
about 12 * 2^-53 of its term at angles rounded by |2 pi 64 alpha a| 2^-53 and
|2 pi alpha b| 2^-53, the order of one direct phase's rounding.  Every
complex sum is numpy's pairwise ``sum`` along a C-contiguous last axis: runs
of at most 64 terms (128 float parts) in four running sums, and longer rows
halved at a multiple of four terms: each term of a row of n terms passes
through fewer than 14 + log2 n additions, so the row is within about
(14 + log2 n) 2^-53 sum |t| of its exact sum.  Numpy sums any other axis
sequentially, so no sum runs there; nor does a BLAS product, whose order may
depend on the batch.  A row's bits are fixed for one numpy install and for every batch shape, so
repeated runs, and batched or single evaluation, agree bit for bit; another
numpy may differ in the last bits.  The complete sums S(q, b) come from one
table, ``complete_sums``, over exact residues mod q; only their q-th roots
of unity involve floating point.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, Budget, fits_int64
from .errors import BadDegreeError, BadParamsError, BudgetExceededError, ToleranceNotMetError
from .windows import SetWindow, balanced_function

TWO_PI = 2.0 * math.pi
# The constants of ``_e_terms``, as 0-d arrays, which numpy broadcasts faster
# than floats: 2 pi in three parts for a Cody-Waite reduction, A and B of 26
# and 23 significant bits, with A + B + C within 2^-106 of 2 pi; and the
# shift by which (m + shift) - shift rounds m to a multiple of 2^24.
_A, _B, _C, _TO_2_24 = map(np.array, (
    float.fromhex("0x1.921fb58p+2"), float.fromhex("-0x1.dde974p-25"),
    float.fromhex("0x1.1a62633145c07p-52"), 1.5 * 2.0**76,
))


def reduce_phase(alpha: Sequence[float]) -> tuple[float, ...]:
    """Reduce each component mod 1 into [0, 1).  A remainder that rounds up
    to 1, as that of a tiny negative a does, is 0, the same phase mod 1."""
    return tuple(r if (r := float(a) - math.floor(float(a))) < 1 else 0.0 for a in alpha)


# Terms per block of the phase sum and of the complete sums.  The blocks
# bound memory; a row's column blocks are fixed by its length alone, so the
# number of rows in a block leaves its bits unchanged.
_CHUNK = 4096
# Cells per block of the linear rows' sums, 64 to a row of the grid.  Any
# blocking gives the same bits there: the sum over a runs on whole rows.
_LINEAR_BLOCK = 1 << 14
_ARC_ROWS = 1 << 16  # values of q per block of the arc scan


def _e_terms(phase: np.ndarray) -> np.ndarray:
    """e(theta) = exp(2 pi i theta) for a float array of phases, overwritten
    on the way: cos t + i sin t at t = fl(2 pi theta), the angle that
    exp(TWO_PI * 1j * theta) sees, within 4 * 2^-53 of e^(it) per term for
    |t| < 2^52.

    t is reduced to r = t - 2 pi m, m = rint(theta), by Cody-Waite reduction
    with 2 pi = A + B + C: m = m_h + m_l with m_h a multiple of 2^24, so each
    product of m_h or m_l with A or B is exact, and so is every subtraction
    but the last, of m C, while |t| < 2^51 * 2 pi.  cos and sin then run on
    |r| <= pi (up to the rounding of t), where libm's own reduction is cheap;
    complex exp on large t takes the Payne-Hanek route.  Past 2^51 * 2 pi a
    product rounds and the terms, still on the unit circle, are not e^(it);
    a float t there is an even integer and holds no bit of theta's fraction.
    """
    out = np.empty(phase.shape, dtype=np.complex128)
    m_h, m_l = out.view(np.float64).reshape(2, *phase.shape)  # free until cos, sin
    m_c, p = np.empty((2, *phase.shape))
    np.add(phase, _TO_2_24, m_h)
    m_h -= _TO_2_24
    np.rint(phase, m_l)
    np.multiply(m_l, _C, m_c)  # m C
    m_l -= m_h
    phase *= TWO_PI
    phase -= np.multiply(m_h, _A, p)
    phase -= np.multiply(m_l, _A, p)
    phase -= np.multiply(m_h, _B, p)
    phase -= np.multiply(m_l, _B, p)
    phase -= m_c
    np.cos(phase, out.real)
    np.sin(phase, out.imag)
    return out


def _exp_sum(points, phases, weights=None) -> list[complex]:
    """sum of weights * e(alpha_1 x + ... + alpha_k x^k) over the points for
    each row alpha of the P x k block ``phases``, with unit weights when none
    are given; alpha is not reduced mod 1 here.

    The rule is chosen per row, so a row has the same bits in any block.  On
    integer points (distinct and non-negative) a row whose components past
    alpha_1 are all zero is a linear row, summed by ``_linear_sums`` from
    two short tables of terms, e(64 alpha a) and e(alpha b) for x = 64 a + b:
    each term within about 12 * 2^-53 |w(x)| of its value at angles rounded
    by about |2 pi 64 alpha a| 2^-53 and |2 pi alpha b| 2^-53.  Every other
    row, and every row on float points, is summed by ``_power_sums``: the
    pairwise sum of its terms e(phase), with the phase formed in floats and
    rounded by about |t| 2^-53.
    """
    x = np.asarray(points)
    alpha = np.asarray(phases, dtype=np.float64)
    alpha = alpha.reshape(len(alpha), -1) if alpha.size else np.zeros((len(alpha), 1))
    if len(x) == 0:
        return [0j] * len(alpha)
    linear = [x.dtype.kind in "iu" and not any(row[1:]) for row in alpha.tolist()]
    if all(linear):
        return _linear_sums(x, alpha[:, 0], weights).tolist()
    floats = np.asarray(x, dtype=np.float64)
    if not any(linear):
        return _power_sums(floats, alpha, weights).tolist()
    linear = np.array(linear)
    out = np.empty(len(alpha), dtype=np.complex128)
    out[linear] = _linear_sums(x, alpha[linear, 0], weights)
    out[~linear] = _power_sums(floats, alpha[~linear], weights)
    return out.tolist()


def _linear_sums(x: np.ndarray, alpha: np.ndarray, weights=None) -> np.ndarray:
    """sum of weights * e(alpha x) over distinct non-negative integer points
    x, for each alpha of the 1-D array ``alpha``.

    With x = 64 a + b, 0 <= b < 64, e(alpha x) = U[a] V[b] for U[a] =
    e(64 alpha a) and V[b] = e(alpha b): one ``_e_terms`` call gives both
    tables, top = max x // 64 + 1 entries of U and 64 of V, in place of one
    term per point.  The weights (ones when none are given) are scattered
    into a zero-padded top x 64 grid; row a of the grid times V is summed
    over b and multiplied by U[a], and the products, held in one row of top
    entries, are summed over a.  Both are numpy sums along the last axis, so
    a row has the same bits in any block.  The grid spans 0..max x, so a
    sparse set costs its span, not its size.

    U and V are within 4 * 2^-53 of e^(it) at their own angles t =
    fl(2 pi fl(64 alpha a)) and fl(2 pi alpha b), whose roundings, about
    |2 pi 64 alpha a| 2^-53 and |2 pi alpha b| 2^-53, together are of the
    order |2 pi alpha x| 2^-53 of one direct phase.  With the products by
    the weight and by U[a], each term is within about 12 * 2^-53 |w(x)| of
    w(x) e(alpha x) at those angles, before the sums' own rounding: 17
    additions per term over b, and fewer than 14 + log2(top) over a.  Work
    runs in blocks of at most ``_LINEAR_BLOCK`` grid cells, counted over the
    block's rows, and each block of rows is summed before the next, so
    memory does not grow with the number of rows.
    """
    top = int(x.max()) // 64 + 1
    grid = np.zeros(top * 64)
    grid[x] = 1.0 if weights is None else weights
    grid = grid.reshape(top, 64)
    span = min(top, _LINEAR_BLOCK // 64)  # grid rows per block
    rows = _LINEAR_BLOCK // (64 * span)
    steps = np.concatenate([np.arange(0.0, 64.0 * top, 64.0), np.arange(64.0)])
    out = np.empty(len(alpha), dtype=np.complex128)
    for r0 in range(0, len(alpha), rows):
        uv = _e_terms(alpha[r0 : r0 + rows, None] * steps)
        u, v = uv[:, :top], uv[:, None, top:]
        sums = np.empty((len(u), top), dtype=np.complex128)
        for a0 in range(0, top, span):
            parts = (v * grid[a0 : a0 + span]).sum(axis=-1)
            sums[:, a0 : a0 + span] = parts * u[:, a0 : a0 + span]
        out[r0 : r0 + rows] = sums.sum(axis=-1)
    return out


def _power_sums(x: np.ndarray, alpha: np.ndarray, weights=None) -> np.ndarray:
    """sum of weights * e(alpha_1 x + ... + alpha_k x^k) over the float
    points x for each row alpha of the P x k block ``alpha``.

    Each row forms its phase with the same float operations as a single sum
    and sums the same blocks of terms.  A degree whose alpha_j is zero in
    every row is skipped; in a row where only some are zero it adds exact
    zeros, which leaves the phase unchanged while x^j is finite.  The terms
    come from ``_e_terms``, within 4 * 2^-53 of e^(it) at t = fl(2 pi phase)
    for |t| < 2^52; the phase itself is rounded by about |t| 2^-53.
    Work runs in blocks of at most ``_CHUNK`` terms: several rows at once
    when there are fewer than _CHUNK points, else one row at a time in
    column blocks of _CHUNK points.  Each block row is summed along the last
    axis, and a row's block sums are then summed in one more row, so a term
    passes through fewer than 27 + log2 N additions in all.
    """
    n = len(x)
    width = min(_CHUNK, n)
    rows = _CHUNK // width
    degrees = [j for j, column in enumerate(zip(*alpha.tolist()), start=1) if any(column)]
    sums = np.empty((len(alpha), -(-n // width)), dtype=np.complex128)
    for c, c0 in enumerate(range(0, n, width)):
        xc = x[c0 : c0 + width]
        powers = [(alpha[:, j - 1, None], xc**j) for j in degrees]
        for r0 in range(0, len(alpha), rows):
            phase = np.zeros((min(rows, len(alpha) - r0), len(xc)), dtype=np.float64)
            for aj, xj in powers:
                phase += aj[r0 : r0 + rows] * xj
            terms = _e_terms(phase)
            if weights is not None:
                terms *= weights[c0 : c0 + width]
            sums[r0 : r0 + rows, c] = terms.sum(axis=-1)
    return sums.sum(axis=-1)


def eval_g(n: int, alpha: Sequence[float]) -> complex:
    """g(alpha) = sum_{1<=x<=N} e(alpha_k x^k + ... + alpha_1 x)."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    return _exp_sum(np.arange(1, n + 1), [reduce_phase(alpha)])[0]


def eval_f(window: SetWindow, alpha: Sequence[float]) -> complex:
    """f(alpha): the same sum restricted to the window's elements."""
    return _exp_sum(window.elements(), [reduce_phase(alpha)])[0]


def eval_E_batch(window: SetWindow, phases: Sequence[Sequence[float]]) -> list[complex]:
    """E(alpha) = sum_{1<=x<=N} (delta_N - 1_A(x)) e(alpha_1 x + ... + alpha_k x^k)
    at each row of the P x k block ``phases``: one weighted phase sum over
    1..N, with the balanced function's weights (|A| - N 1_A(x)) / N.  Each
    value is bit-identical to a single-point evaluation; the phase sums run
    in blocks of a fixed number of terms (see ``_exp_sum``), so memory does
    not grow with P."""
    n = window.length
    weights = np.asarray(balanced_function(window), dtype=np.float64) / n
    return _exp_sum(np.arange(1, n + 1), [reduce_phase(alpha) for alpha in phases], weights)


def eval_E(window: SetWindow, alpha: Sequence[float]) -> complex:
    """E(alpha) = delta_N g(alpha) - f(alpha), the balanced-function
    exponential sum: one row of ``eval_E_batch``."""
    return eval_E_batch(window, [alpha])[0]


def complete_sums(q: int, vecs) -> np.ndarray:
    """S(q, b) = sum_{m=1}^q e_q(b_1 m + ... + b_k m^k) at each row b of the
    n x k block ``vecs`` of residues in [0, q).  The terms' residues are exact
    int64 values below k q^2, refused past that bound.  Each row of q roots
    is summed along the last axis, within about (14 + log2 q) 2^-53 q, in
    row blocks of about _CHUNK terms."""
    vecs = np.asarray(vecs, dtype=np.int64)
    k = vecs.shape[1]
    if not fits_int64(k * q * q):
        raise BudgetExceededError(f"complete sums: residues below {k * q * q} exceed int64")
    powers = [[pow(m, j, q) for m in range(1, q + 1)] for j in range(1, k + 1)]
    powers = np.array(powers, dtype=np.int64).reshape(k, q)  # row j - 1: m^j mod q
    roots = np.array([cmath.exp(TWO_PI * 1j * r / q) for r in range(q)])
    rows = max(1, _CHUNK // q)
    out = np.empty(len(vecs), dtype=np.complex128)
    for r0 in range(0, len(vecs), rows):
        out[r0 : r0 + rows] = roots[vecs[r0 : r0 + rows] @ powers % q].sum(axis=-1)
    return out


def complete_sum(q: int, a: Sequence[int]) -> complex:
    """S(q, a) = sum_{m=1}^q e_q(a_k m^k + ... + a_1 m): one row of
    ``complete_sums``, with a reduced mod q in exact integers."""
    if q < 1:
        raise BadParamsError("q must be >= 1")
    return complex(complete_sums(q, [[int(aj) % q for aj in a]])[0])


# np.polynomial.legendre.leggauss(12) bit for bit, written out so that no
# import of this module loads numpy.polynomial
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])


def _gl_estimate(n: int, beta: Sequence[float], panels: int) -> complex:
    edges = np.linspace(0.0, float(n), panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    pts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return _exp_sum(pts, [beta], wts)[0]


def oscillatory_w(n: int, beta: Sequence[float]) -> complex:
    """w(beta) = integral_0^N e(beta_k t^k + ... + beta_1 t) dt.

    Composite Gauss-Legendre with the panel count tied to the total phase
    variation, doubled until two successive estimates agree to 1e-8 relative.
    """
    if n < 1:
        raise BadParamsError("n must be >= 1")
    b = [float(x) for x in beta]
    if not all(math.isfinite(x) for x in b):
        raise BadParamsError("beta must be finite")
    if all(x == 0.0 for x in b):
        return complex(n)  # integrand identically 1
    try:  # a variation past the largest float, and so its panel count
        variation = 1.0 + sum(abs(bj) * float(n) ** j for j, bj in enumerate(b, start=1))
        panels = max(1, math.ceil(variation / 4.0))
    except OverflowError:
        raise BudgetExceededError(f"quadrature: the variation overflows at N = {n}") from None
    prev = _gl_estimate(n, b, panels)
    for _ in range(20):
        panels *= 2
        cur = _gl_estimate(n, b, panels)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise ToleranceNotMetError(
        f"quadrature did not converge after 20 doublings (variation {variation:.3g})"
    )


def sigma_exponent(k: int) -> float:
    """Minor-arc saving exponent: 1/sigma = 8 k^2 (log k + (log log k)/2 + 2)."""
    if k < 2:
        raise BadDegreeError("sigma exponent needs k >= 2")
    return 1.0 / (8.0 * k * k * (math.log(k) + math.log(math.log(k)) / 2.0 + 2.0))


def delta_exponent(k: int) -> float:
    """Major-arc height exponent delta = k * sigma."""
    return k * sigma_exponent(k)


class ArcLabel(NamedTuple):
    """Rational center of a major arc: numerators ascending by degree.

    ``numerators`` are stored reduced into [0, q); ``beta`` is the offset to
    the nearest representative of the center on the torus, so alpha_j and
    numerators[j-1]/q + beta[j-1] agree mod 1.
    """

    q: int
    numerators: tuple[int, ...]
    beta: tuple[float, ...]


def classify_arc(
    alpha: Sequence[float],
    n: int,
    k: int,
    exponent_override: Optional[float] = None,
    budget: Budget = DEFAULT_BUDGET,
) -> Optional[ArcLabel]:
    """Return the major-arc label of alpha, or None on the minor arcs.

    For each q = 1..floor(N^delta) the nearest numerator vector is the only
    candidate for the box |q alpha_j - a_j| <= N^(delta - j).  The q * k tests
    are refused before anything is formed when N^delta overflows a float or
    exceeds the ops budget; they run on blocks of _ARC_ROWS rows of
    q alpha in float64, with the products, thresholds and half-to-even
    rounding of a one-q scan, so the first q that passes is the same and
    memory is one block.  A common divisor of (q, a_k, ..., a_1) is divided
    out, which preserves both conditions.
    """
    if n < 2:
        raise BadParamsError("n must be >= 2")
    if len(alpha) != k:
        raise BadParamsError(f"alpha must have {k} components")
    if not all(math.isfinite(float(a)) for a in alpha):
        raise BadParamsError("alpha components must be finite")
    delta = float(exponent_override) if exponent_override is not None else delta_exponent(k)
    if math.isnan(delta):
        raise BadParamsError("arc exponent must not be nan")
    try:  # a finite N^delta past the largest float, or an infinite one
        qmax = max(1, math.floor(float(n) ** delta + 1e-12))
    except OverflowError:
        raise BudgetExceededError(
            f"arc classification: N^delta = {n}^{delta} overflows a float"
        ) from None
    budget.check_ops(qmax * k, "arc classification")
    a_red = reduce_phase(alpha)
    bounds = [float(n) ** (delta - j) + 1e-15 for j in range(1, k + 1)]
    for q0 in range(1, qmax + 1, _ARC_ROWS):
        qa = np.arange(q0, min(q0 + _ARC_ROWS, qmax + 1), dtype=np.float64)[:, None] * a_red
        hits = np.flatnonzero((np.abs(qa - np.round(qa)) <= bounds).all(axis=1))
        if hits.size:
            q = q0 + int(hits[0])
            nums = [round(q * aj) for aj in a_red]
            beta = tuple(aj - aq / q for aj, aq in zip(a_red, nums))
            g = math.gcd(q, *nums)
            return ArcLabel(q // g, tuple(x // g % (q // g) for x in nums), beta)
    return None


class MajorArcApproxReport(NamedTuple):
    g_value: complex
    approx_value: complex
    numerator: float
    denominator: float
    ratio: float


def major_arc_approx_check(
    n: int, q: int, a: Sequence[int], beta: Sequence[float]
) -> MajorArcApproxReport:
    """Empirical constant for g(alpha) ~ S(q, a) w(beta) / q at
    alpha = a / q + beta.

    Returns |g - S w / q| over q (1 + sum |beta_j| N^j); the bound guarantees
    this ratio is O(1), and the report lets experiments record the constant.
    """
    if len(a) != len(beta):
        raise BadParamsError("a and beta must have equal length")
    approx = complete_sum(q, a) * oscillatory_w(n, beta) / q  # checks q >= 1
    alpha = [aj / q + bj for aj, bj in zip(a, beta)]
    g_val = eval_g(n, alpha)
    num = abs(g_val - approx)
    den = q * (1.0 + sum(abs(b) * float(n) ** j for j, b in enumerate(beta, start=1)))
    return MajorArcApproxReport(
        g_value=g_val,
        approx_value=approx,
        numerator=num,
        denominator=den,
        ratio=num / den,
    )
