"""Exact solution counting and streaming inside a set window.

Two counting engines share one contract:

* ``mitm`` joins the power-sum keys of the two variable halves in
  A^ceil(s/2) time and key storage, and takes the trivial count from the
  exact value-class partition formula, as the joined stream cannot classify
  tuples.  ``auto`` is this join at every arity: a DP on the multiplicities
  of the distinct coefficients gives that formula with no arity cap;
* ``naive`` scans the full grid A^s and classifies every solution tuple; it
  serves ``naive`` counts and streams.

The scan builds the power sums of the trailing s-1 variables once over
A^(s-1) and, for each leading value in ascending order, masks the tuples that
cancel it, so solutions come out in lexicographic order.  The join packs each
half's degree-1..k power sums into one key by mixed radix and matches the
halves with ``np.unique`` and ``np.intersect1d``.  When the right half's
coefficients negate the left half's up to order, as in every Vinogradov
system, the count is the sum of squared key multiplicities over one half;
``vinogradov_moment`` is this same join.  Counts are exact integers
everywhere: the shared helper ``budget.fits_int64`` picks the dtype, int64
when every value a path forms fits and ``object`` (Python big integers)
otherwise, and both dtypes run the same numpy code, never wrapping around.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, Budget, entry_bytes, fits_int64
from .errors import BadParamsError
from .system import DiagonalSystem, mirrored, value_classes_zero_sum
from .windows import SetWindow

Method = Literal["naive", "mitm", "auto"]


@dataclass(frozen=True)
class SolutionTally:
    """Exact counts of ordered solution tuples in a window."""

    total: int
    trivial: int
    nontrivial: int

    def __post_init__(self) -> None:
        if self.total != self.trivial + self.nontrivial:
            raise BadParamsError("tally invariant total = trivial + nontrivial broken")

    def to_json_dict(self) -> dict:
        return {
            "total": str(self.total),
            "trivial": str(self.trivial),
            "nontrivial": str(self.nontrivial),
        }


def _power_sum_columns(
    elems: np.ndarray, coeffs: Sequence[int], degree: int
) -> list[np.ndarray]:
    """Partial power sums over the tuple grid A^len(coeffs), in the dtype of
    ``elems``.

    Column j-1 holds sum_i lam_i x_i^j for j = 1..degree, one entry per tuple
    in lexicographic order.
    """
    m = len(coeffs)
    cols = []
    for j in range(1, degree + 1):
        pw = elems**j
        acc = np.zeros((1,) * m, dtype=elems.dtype)
        for i, lam in enumerate(coeffs):
            shape = [1] * m
            shape[i] = len(elems)
            acc = acc + lam * pw.reshape(shape)
        cols.append(acc.ravel())
    return cols


def _solutions(
    system: DiagonalSystem, elems: tuple[int, ...], budget: Budget, what: str
) -> Iterator[tuple[int, ...]]:
    """Solutions in A^s in lexicographic order, after the budget checks ``what``.

    The k power-sum columns of the trailing s-1 variables are built once over
    A^(s-1); for each leading value x, ascending, the solutions starting with
    x are the tuples whose degree-j sum is -lam_1 x^j for every j.  Byte
    estimate over A^(s-1): k + 1 columns (the k built and the partial one
    being built, or the matches' indices during the scan) and two masks.
    """
    s, k = system.arity, system.degree
    budget.check_ops(max(len(elems), 1) ** s * k, what)
    if not elems:
        return
    bound = sum(abs(c) for c in system.coefficients) * elems[-1] ** k
    arr = np.asarray(elems, dtype=np.int64 if fits_int64(bound) else object)
    shape = (arr.size,) * (s - 1)
    budget.check_bytes(
        math.prod(shape) * ((k + 1) * entry_bytes(arr.dtype, bound) + 2),
        f"{what} grid",
    )
    lead, *rest = system.coefficients
    cols = _power_sum_columns(arr, rest, k)
    for x in elems:
        mask = cols[0] == -lead * x
        for j, col in enumerate(cols[1:], 2):
            mask &= col == -lead * x**j
        idx = np.unravel_index(np.flatnonzero(mask), shape)
        for tail in zip(*(arr[i].tolist() for i in idx)):
            yield (x, *tail)


def _packed_keys(
    elems: np.ndarray, halves: Sequence[Sequence[int]], radices: Sequence[int]
) -> list[np.ndarray]:
    """One key per tuple of each half's grid, in the dtype of ``elems``, equal
    iff the power sums are.

    The degree-j sum shifted by radices[j-1] // 2 is a mixed-radix digit.  When
    the next digit would overflow an int64 key, the keys so far are renumbered
    densely across the halves first, so keys stay below (number of keys) *
    radices[-1].  ``object`` keys are never renumbered: renumbering costs more
    than the big-integer key it saves.
    """
    cols = [_power_sum_columns(elems, half, len(radices)) for half in halves]
    keys = [np.zeros(elems.size ** len(half), dtype=elems.dtype) for half in halves]
    span = 1  # every key lies in [0, span)
    for radix in reversed(radices):
        if elems.dtype == np.int64 and not fits_int64(span * radix):
            distinct = np.unique(np.concatenate(keys))
            keys = [np.searchsorted(distinct, key) for key in keys]
            span = distinct.size
        for key, col in zip(keys, cols):
            key *= radix
            key += col.pop()
            key += radix // 2
        span *= radix
    return keys


def _join_count(
    elems: tuple[int, ...],
    left: Sequence[int],
    right: Sequence[int],
    degree: int,
    budget: Budget,
    what: str,
) -> int:
    """Number of (x, y) in A^len(left) x A^len(right) whose power sums
    sum_i left_i x_i^j + sum_i right_i y_i^j vanish for j = 1..degree.

    Keys of x under ``left`` meet keys of y under ``-right``; a ``-right``
    that is ``left`` up to order builds one half and sums squared counts.
    Byte estimate ``what`` per key built: the degree columns and the key, each
    entry sized by ``entry_bytes`` for the chosen dtype, and the key's 8-byte
    sorted copy; ``object`` keys are not renumbered and reach the radix product.
    """
    halves = (left,) if mirrored(left, right) else (left, tuple(-c for c in right))
    weight = max(sum(abs(c) for c in half) for half in halves)
    radices = [2 * weight * elems[-1] ** j + 1 for j in range(1, degree + 1)]
    entries = sum(len(elems) ** len(half) for half in halves)
    product = math.prod(radices)
    key_bound = min(product, entries * radices[-1])
    dtype = np.dtype(np.int64 if fits_int64(key_bound) else object)
    per_key = degree * entry_bytes(dtype, radices[-1])
    per_key += entry_bytes(dtype, product) + 8
    budget.check_bytes(entries * per_key, what)
    keys = _packed_keys(np.asarray(elems, dtype=dtype), halves, radices)
    # pop, so that each key array is freed as soon as it is counted
    counts = [np.unique(keys.pop(0), return_counts=True) for _ in halves]
    if len(counts) == 1:
        mults = counts[0][1].tolist()
        return sum(map(operator.mul, mults, mults))
    (lkeys, lmult), (rkeys, rmult) = counts
    _, li, ri = np.intersect1d(lkeys, rkeys, assume_unique=True, return_indices=True)
    return sum(map(operator.mul, lmult[li].tolist(), rmult[ri].tolist()))


def _zero_sum_blocks(values: Sequence[int], v: Sequence[int]) -> list:
    """Pairs (b, prod_i C(v_i, b_i)) over the b <= v with sum_i b_i values_i
    = 0, built one entry at a time; a prefix is dropped once its sum exceeds
    what the values left can cancel."""
    left = sum(abs(c) * n for c, n in zip(values, v))
    out = [((), 0, 1)]
    for c, n in zip(values, v):
        left -= abs(c) * n
        out = [(b + (j,), t + j * c, ways * math.comb(n, j))
               for b, t, ways in out for j in range(n + 1) if abs(t + j * c) <= left]
    return [(b, ways) for b, _, ways in out]


@functools.lru_cache(maxsize=64)
def _zero_sum_partition_histogram(
    coeffs: tuple[int, ...],
) -> tuple[tuple[int, int], ...]:
    """Pairs (block count, number of set partitions) over partitions of the
    coefficient indices whose every block sums to zero, by a DP on the vector
    v of indices left per distinct coefficient, largest magnitude first: the
    block of the first index left, of coefficient i0, is a zero-sum b <= v with
    b_i0 >= 1, in C(v_i0 - 1, b_i0 - 1) * prod_{i != i0} C(v_i, b_i) ways, and
    v - b, zero-sum and lexicographically before v, is partitioned after."""
    values = sorted(set(coeffs), key=lambda c: (-abs(c), c))
    mults = tuple(map(coeffs.count, values))
    zero_sum = sorted(v for v, _ in _zero_sum_blocks(values, mults))
    hist = {zero_sum[0]: {0: 1}}  # the empty multiset, lexicographically first
    for v in zero_sum[1:]:
        first = next(i for i, n in enumerate(v) if n)
        row = hist[v] = {}
        for b, ways in _zero_sum_blocks(values, v):
            if b[first]:
                ways = ways * b[first] // v[first]  # C(v_i0 - 1, b_i0 - 1)
                for r, n in hist[tuple(map(operator.sub, v, b))].items():
                    row[r + 1] = row.get(r + 1, 0) + ways * n
    return tuple(sorted(hist[mults].items()))


def trivial_count(
    system: DiagonalSystem, cardinality: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Exact number of trivial tuples drawable from a set of given cardinality.

    Sums, over set partitions of the variable indices whose blocks all have
    zero coefficient sum, the falling factorial |A|(|A|-1)...(|A|-r+1) with r
    the block count: that assigns distinct values to blocks, so each trivial
    tuple is counted once, at its exact value-class partition.  Checked first
    (stage ``trivial count``): the DP's at most prod_i (m_i+1)(m_i+2)/2 pairs
    (v, b), in Python iterations, m_i the multiplicities of the coefficients.
    """
    if cardinality < 0:
        raise BadParamsError("cardinality must be >= 0")
    mults = map(system.coefficients.count, set(system.coefficients))
    budget.check_ops(math.prod((m + 1) * (m + 2) // 2 for m in mults), "trivial count")
    hist = _zero_sum_partition_histogram(system.coefficients)
    return sum(n * math.perm(cardinality, r) for r, n in hist)


def count_solutions(
    system: DiagonalSystem,
    window: SetWindow,
    method: Method = "auto",
    budget: Budget = DEFAULT_BUDGET,
) -> SolutionTally:
    """Count ordered solution tuples in A^s, split into trivial/nontrivial.

    ``mitm`` and ``auto`` join the power-sum keys of the two variable halves
    and take the trivial count from the partition formula, checking both
    estimates before any key is built; ``naive`` classifies each tuple.
    """
    if method not in ("naive", "mitm", "auto"):
        raise BadParamsError(f"unknown method {method!r}")
    if method == "naive":
        total = trivial = 0
        for tup in _solutions(system, window.elements(), budget, "naive count"):
            total += 1
            trivial += value_classes_zero_sum(system, tup)
        return SolutionTally(total, trivial, total - trivial)
    elems, k, half = window.elements(), system.degree, (system.arity + 1) // 2
    budget.check_ops(len(elems) ** half * k, "mitm count")
    triv = trivial_count(system, window.cardinality, budget)
    left, right = system.coefficients[:half], system.coefficients[half:]
    total = _join_count(elems, left, right, k, budget, "mitm keys") if elems else 0
    return SolutionTally(total, triv, total - triv)


def stream_solutions(
    system: DiagonalSystem,
    window: SetWindow,
    which: Literal["all", "nontrivial"] = "all",
    budget: Budget = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Yield solutions in lexicographic tuple order, optionally nontrivial only."""
    if which not in ("all", "nontrivial"):
        raise BadParamsError(f"unknown filter {which!r}")
    for tup in _solutions(system, window.elements(), budget, "stream"):
        if which == "all" or not value_classes_zero_sum(system, tup):
            yield tup


def vinogradov_moment(
    n: int, k: int, t: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Exact count of (x, y) in [1,n]^{2t} with equal power sums up to degree k.

    This realizes the even moment integral of |g|^{2t} by orthogonality: join
    the t-tuple power-sum keys against themselves and sum squared
    multiplicities.
    """
    if t < 1 or k < 1 or n < 1:
        raise BadParamsError("need n, k, t >= 1")
    budget.check_ops(n**t * k, "vinogradov moment")
    elems = tuple(range(1, n + 1))
    return _join_count(elems, (1,) * t, (-1,) * t, k, budget, "vinogradov keys")


def greedy_solution_free(
    system: DiagonalSystem,
    n: int,
    budget: Budget = DEFAULT_BUDGET,
) -> SetWindow:
    """Greedy scan x = 1..n keeping x whenever the set stays nontrivial-free."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    window = SetWindow.empty(n)
    for x in range(1, n + 1):
        candidate = window.add(x)
        tally = count_solutions(system, candidate, budget=budget)
        if tally.nontrivial == 0:
            window = candidate
    return window
