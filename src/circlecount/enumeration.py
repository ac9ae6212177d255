"""Exact solution counting and streaming inside a set window.

Two counting engines share one contract:

* ``naive`` scans the full grid A^s and classifies every solution tuple;
* ``mitm`` splits the variables in half and joins power-sum keys, trading
  A^s work for A^ceil(s/2) time and key storage.  Triviality cannot be
  decided per tuple in the joined stream, so the trivial count comes from the
  exact value-class partition formula instead.

The join packs each half's degree-1..k power sums into one int64 key by mixed
radix and matches the halves with ``np.unique`` and ``np.intersect1d``.  When
the right half's coefficients negate the left half's up to order, as in every
Vinogradov system, the count is the sum of squared key multiplicities over one
half; ``vinogradov_moment`` is this same join.  Counts are exact integers
everywhere: the shared helper ``budget.fits_int64`` decides whether an int64
grid or key holds every value a path forms, and otherwise the scan and the
join run on Python big integers, never wrapping around.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, Budget
# the shared int64 decision under this module's names, which tests patch and read
from .budget import INT64_SAFE as _INT64_SAFE  # noqa: F401
from .budget import fits_int64 as _fits_int64
from .errors import ArityTooLargeError, BadParamsError
from .system import DiagonalSystem
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


def _value_classes_zero_sum(system: DiagonalSystem, x: Sequence[int]) -> bool:
    sums: dict[int, int] = {}
    for c, v in zip(system.coefficients, x):
        sums[v] = sums.get(v, 0) + c
    return all(t == 0 for t in sums.values())


def _power_sum_columns(
    elems: np.ndarray, coeffs: Sequence[int], degree: int
) -> Iterator[np.ndarray]:
    """Broadcast grids of partial power sums over the tuple grid A^len(coeffs).

    The j-th column yielded holds sum_i lam_i x_i^j on the full grid, shape
    (|A|,)*len(coeffs); columns are built one at a time, on demand.
    """
    m = len(coeffs)
    for j in range(1, degree + 1):
        pw = elems.astype(np.int64) ** j
        acc = np.zeros((1,) * m, dtype=np.int64)
        for i, lam in enumerate(coeffs):
            shape = [1] * m
            shape[i] = len(elems)
            acc = acc + lam * pw.reshape(shape)
        yield acc


def _solutions(
    system: DiagonalSystem,
    elems: tuple[int, ...],
    budget: Budget,
    what: str,
    max_grid: float = math.inf,
) -> Iterator[tuple[int, ...]]:
    """Solutions in A^s in lexicographic order, after the budget checks ``what``.

    A grid of at most ``max_grid`` tuples whose power sums fit int64 is
    scanned as numpy columns; any other grid tuple by tuple in Python.
    """
    s, k = system.arity, system.degree
    grid = max(len(elems), 1) ** s
    budget.check_ops(grid * k, what)
    if not elems:
        return
    weight = sum(abs(c) for c in system.coefficients)
    if grid <= max_grid and _fits_int64(weight * elems[-1] ** k):
        budget.check_bytes(grid * 8 * k, f"{what} grid")
        arr = np.asarray(elems, dtype=np.int64)
        # fold each degree's column into the mask before the next is built
        cols = _power_sum_columns(arr, system.coefficients, k)
        mask = next(cols) == 0
        for col in cols:
            mask &= col == 0
            del col
        idx = np.unravel_index(np.flatnonzero(mask), mask.shape)
        yield from zip(*(arr[i].tolist() for i in idx))
    else:
        for tup in itertools.product(elems, repeat=s):
            if all(v == 0 for v in system.equations_at(tup)):
                yield tup


def _packed_keys(
    elems: tuple[int, ...], halves: Sequence[Sequence[int]], radices: Sequence[int]
) -> list[np.ndarray]:
    """One int64 key per tuple of each half's grid, equal iff the power sums are.

    The degree-j sum shifted by radices[j-1] // 2 is a mixed-radix digit.  When
    the next digit would overflow, the keys so far are renumbered densely
    across the halves first, so keys stay below (number of keys) * radices[-1].
    """
    arr = np.asarray(elems, dtype=np.int64)
    cols = [list(_power_sum_columns(arr, half, len(radices))) for half in halves]
    keys = [np.zeros(arr.size ** len(half), dtype=np.int64) for half in halves]
    span = 1  # every key lies in [0, span)
    for radix in reversed(radices):
        if not _fits_int64(span * radix):
            distinct = np.unique(np.concatenate(keys))
            keys = [np.searchsorted(distinct, key) for key in keys]
            span = distinct.size
        for key, col in zip(keys, cols):
            key *= radix
            key += col.pop().ravel()
            key += radix // 2
        span *= radix
    return keys


def _half_keys_exact(
    elems: tuple[int, ...], coeffs: Sequence[int], degree: int
) -> Counter:
    return Counter(
        tuple(sum(c * v**j for c, v in zip(coeffs, tup)) for j in range(1, degree + 1))
        for tup in itertools.product(elems, repeat=len(coeffs))
    )


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
    Byte estimate ``what`` per key built: 8*(degree + 2) packed (the degree
    int64 columns, the key and its sorted copy), 64 + 32*degree for the
    ``Counter`` slot of a key tuple on the big-integer path.
    """
    neg = tuple(-c for c in right)
    halves = (left,) if sorted(left) == sorted(neg) else (left, neg)
    weight = max(sum(abs(c) for c in half) for half in halves)
    radices = [2 * weight * elems[-1] ** j + 1 for j in range(1, degree + 1)]
    entries = sum(len(elems) ** len(half) for half in halves)
    packed = _fits_int64(min(math.prod(radices), entries * radices[-1]))
    per_key = 8 * (degree + 2) if packed else 64 + 32 * degree
    budget.check_bytes(entries * per_key, what)
    if not packed:
        keys = [_half_keys_exact(elems, half, degree) for half in halves]
        common = keys[0].keys() & keys[-1].keys()
        return sum(keys[0][key] * keys[-1][key] for key in common)
    keys = _packed_keys(elems, halves, radices)
    # pop, so that each key array is freed as soon as it is counted
    counts = [np.unique(keys.pop(0), return_counts=True) for _ in halves]
    if len(counts) == 1:
        mults = counts[0][1].tolist()
        return sum(map(operator.mul, mults, mults))
    (lkeys, lmult), (rkeys, rmult) = counts
    _, li, ri = np.intersect1d(lkeys, rkeys, assume_unique=True, return_indices=True)
    return sum(map(operator.mul, lmult[li].tolist(), rmult[ri].tolist()))


@functools.lru_cache(maxsize=64)
def _zero_sum_partition_histogram(
    coeffs: tuple[int, ...],
) -> tuple[tuple[int, int], ...]:
    """Pairs (block count, number of set partitions) over partitions of the
    coefficient indices whose every block sums to zero."""
    s = len(coeffs)
    suffix_abs = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        suffix_abs[i] = suffix_abs[i + 1] + abs(coeffs[i])
    hist: dict[int, int] = {}
    blocks: list[int] = []

    def rec(i: int) -> None:
        # each open block still needs |sum| absorbed by remaining coefficients
        if sum(abs(b) for b in blocks) > suffix_abs[i]:
            return
        if i == s:
            if all(b == 0 for b in blocks):
                hist[len(blocks)] = hist.get(len(blocks), 0) + 1
            return
        c = coeffs[i]
        for idx in range(len(blocks)):
            blocks[idx] += c
            rec(i + 1)
            blocks[idx] -= c
        blocks.append(c)
        rec(i + 1)
        blocks.pop()

    rec(0)
    return tuple(sorted(hist.items()))


def trivial_count(system: DiagonalSystem, cardinality: int) -> int:
    """Exact number of trivial tuples drawable from a set of given cardinality.

    Sums, over set partitions of the variable indices whose blocks all have
    zero coefficient sum, the falling factorial |A|(|A|-1)...(|A|-r+1) with r
    the block count: that assigns distinct values to blocks, so each trivial
    tuple is counted once, at its exact value-class partition.
    """
    if cardinality < 0:
        raise BadParamsError("cardinality must be >= 0")
    if system.arity > 12:
        raise ArityTooLargeError(
            f"set-partition enumeration supports arity <= 12, got {system.arity}"
        )
    hist = _zero_sum_partition_histogram(system.coefficients)
    return sum(n * math.perm(cardinality, r) for r, n in hist)


def count_solutions(
    system: DiagonalSystem,
    window: SetWindow,
    method: Method = "auto",
    budget: Budget = DEFAULT_BUDGET,
) -> SolutionTally:
    """Count ordered solution tuples in A^s, split into trivial/nontrivial.

    ``naive`` classifies tuple by tuple; ``mitm`` joins power-sum keys of the
    two variable halves and takes the trivial count from the partition
    formula.  ``auto`` picks naive for small grids, mitm otherwise.
    """
    if method not in ("naive", "mitm", "auto"):
        raise BadParamsError(f"unknown method {method!r}")
    if method == "auto":
        grid = max(window.cardinality, 1) ** system.arity
        method = "naive" if grid <= 10**6 else "mitm"
    if method == "naive":
        total = trivial = 0
        for tup in _solutions(system, window.elements(), budget, "naive count"):
            total += 1
            trivial += _value_classes_zero_sum(system, tup)
        return SolutionTally(total, trivial, total - trivial)
    elems, k, half = window.elements(), system.degree, (system.arity + 1) // 2
    total = 0
    if elems:
        budget.check_ops(len(elems) ** half * k, "mitm count")
        left, right = system.coefficients[:half], system.coefficients[half:]
        total = _join_count(elems, left, right, k, budget, "mitm keys")
    triv = trivial_count(system, window.cardinality)
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
    for tup in _solutions(system, window.elements(), budget, "stream", 10**8):
        if which == "all" or not _value_classes_zero_sum(system, tup):
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
    method: Method = "auto",
) -> SetWindow:
    """Greedy scan x = 1..n keeping x whenever the set stays nontrivial-free."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    window = SetWindow.empty(n)
    for x in range(1, n + 1):
        candidate = window.add(x)
        tally = count_solutions(system, candidate, method=method, budget=budget)
        if tally.nontrivial == 0:
            window = candidate
    return window
