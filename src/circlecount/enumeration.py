"""Exact solution counting and streaming inside a set window.

Two counting engines share one contract:

* ``mitm`` joins the power-sum keys of the two variable halves and takes the
  trivial count from the exact value-class partition formula, as the joined
  stream cannot classify tuples.  ``auto`` is this join at every arity: a DP
  on the multiplicities of the distinct coefficients gives that formula with
  no arity cap;
* ``naive`` scans the full grid A^s and classifies its solutions a block of
  tuples at a time, by their equality tensor times the coefficients; it
  serves ``naive`` counts and streams, and uses neither keys nor
  multiplicities, so it stays the oracle of the join and of the partition DP.

One builder forms the power sums of both.  The scan asks it for one column
per degree over the ordered grid A^(s-1) of the trailing variables and, for
each leading value in ascending order, narrows the tuples that cancel it
degree by degree, so solutions come out in lexicographic order.  Power sums
are symmetric, so the join asks it for one multiset per group of equal
coefficients, prod_g C(|A|+m_g-1, m_g) entries per half, each weighted by its
orderings.  A mixed-radix key of the degree-1..k sums is linear in them, so
the builder forms it directly as one column, each element adding its
weighted powers.  The join sorts each key with its weight in the low bits
once, sums the weights of equal keys and matches the halves with
``np.intersect1d``.  ``system.split_halves`` decides the halves, as for the
congruence DP; when the system is L and -L up to order, as every Vinogradov
system is, one half stands for both and the count is the sum of its squared
key multiplicities; ``vinogradov_moment`` is this same join.  Counts are
exact integers everywhere: the shared helper ``budget.fits_int64`` picks the
dtype once per path, int64 when every value the path forms fits and
``object`` (Python big integers) otherwise, and both dtypes run the same
numpy code, never wrapping around.  The join's key grows as max(A)^(k(k+1)/2),
so from about two dozen elements at k = 4 it runs on ``object`` keys.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, Budget, entry_bytes, fits_int64
from .errors import BadParamsError
from .system import DiagonalSystem, split_halves
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
    elems: np.ndarray,
    groups: Sequence[tuple[int, int]],
    digits: Sequence[Sequence[tuple[int, int]]],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Columns of weighted power sums over one multiset per group (c, m) of m
    variables of coefficient c, in the dtype of ``elems``: column i holds
    sum_j place_j * (degree-j sum) over the pairs (j, place_j) of digits[i],
    one column per degree for the scan and one mixed-radix key for the join.
    The sum is linear, so each element adds c * sum_j place_j * x^j to it.

    A group's multisets are the sorted index tuples i_1 <= ... <= i_m, built
    one index at a time in lexicographic order: a tuple ending at l extends by
    each index from l up, and its orderings m!/prod r! (r the run lengths)
    grow by the new length over the last run's.  Each column has one entry
    per choice of a multiset in each group, groups in lexicographic order, so
    groups of one give the ordered grid.  Returns the columns and, in the same
    order, each entry's orderings, the product of its multisets' orderings; on
    the ordered grid they are a view of one 1.
    """
    n = elems.size
    polys = [sum(place * elems**j for j, place in column) for column in digits]
    group_cols, group_weights = [], []
    for c, m in groups:
        terms = [c * poly for poly in polys]
        cols, last = terms, np.arange(n)
        weight, run = np.ones(n, dtype=elems.dtype), np.ones(n, dtype=np.int64)
        for size in range(2, m + 1):
            counts = n - last  # the first child repeats the index l
            first = np.cumsum(counts) - counts
            last = np.arange(first[-1] + counts[-1]) - np.repeat(first - last, counts)
            cols = [np.repeat(col, counts) + term[last] for col, term in zip(cols, terms)]
            grown = run + 1
            run = np.ones(last.size, dtype=np.int64)
            run[first] = grown
            weight = np.repeat(weight * size, counts)
            weight[first] //= grown
        group_cols.append(cols)
        group_weights.append(weight)
    cols = [functools.reduce(np.add.outer, col).ravel() for col in zip(*group_cols)]
    if all(m == 1 for _, m in groups):  # every entry is one ordered tuple
        return cols, np.broadcast_to(np.ones(1, dtype=elems.dtype), cols[0].shape)
    return cols, functools.reduce(np.multiply.outer, group_weights).ravel()


def _solutions(
    system: DiagonalSystem, elems: tuple[int, ...], budget: Budget, what: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Solutions in A^s in lexicographic order, after the budget checks ``what``,
    as blocks of rows, each with the mask of its trivial rows.

    The k power-sum columns of the trailing s-1 variables are built once over
    A^(s-1); for each leading value x, ascending, the solutions starting with
    x are the tuples whose degree-1 sum is -lam_1 x, narrowed degree by degree
    to those whose degree-j sum is -lam_1 x^j.  A row is
    trivial iff sum_j lam_j [x_j = x_i] = 0 at every position i: the equality
    tensor of the block times lam, both in the grid's dtype.  A block holds at most
    |A|^(s-1) / (9 s^2) rows, so its tensor and the tensor's cast to that
    dtype, 9 bytes per pair of positions, fit in one byte per grid cell.  Ops
    estimate: k comparisons per tuple of A^s and the s^2 tensor entries of
    each solution, at most one per tuple of A^(s-1).  Byte estimate over
    A^(s-1): k + 1 columns (the k built and the partial one being built, or
    the matches' indices and the blocks during the scan) and two masks.
    """
    s, k = system.arity, system.degree
    budget.check_ops(len(elems) ** (s - 1) * (k * len(elems) + s * s), what)
    if not elems:
        return
    bound = sum(abs(c) for c in system.coefficients) * elems[-1] ** k
    arr = np.asarray(elems, dtype=np.int64 if fits_int64(bound) else object)
    grid = arr.size ** (s - 1)
    budget.check_bytes(grid * ((k + 1) * entry_bytes(arr.dtype, bound) + 2), f"{what} grid")
    lead, *rest = system.coefficients
    lam = np.asarray(system.coefficients, dtype=arr.dtype)
    rows = max(grid // (9 * s * s), 1)
    degrees = [[(j, 1)] for j in range(1, k + 1)]  # one column per degree
    cols = _power_sum_columns(arr, [(c, 1) for c in rest], degrees)[0]
    for i, x in enumerate(elems):
        found = np.flatnonzero(cols[0] == -lead * x)
        for j, col in enumerate(cols[1:], 2):
            found = found[col[found] == -lead * x**j]
        for start in range(0, found.size, rows):
            flat = found[start:start + rows] + i * grid
            block = arr[np.stack(np.unravel_index(flat, (arr.size,) * s), axis=1)]
            sums = (block[:, :, None] == block[:, None, :]) @ lam
            yield block, (sums == 0).all(axis=1)


def _join_halves(coeffs: Sequence[int]) -> list[list]:
    """The halves of ``system.split_halves`` as (coefficient, multiplicity)
    groups in order of first appearance."""
    return [[(c, h.count(c)) for c in dict.fromkeys(h)] for h in split_halves(coeffs)]


def _multisets(n: int, groups: Sequence[tuple[int, int]]) -> int:
    """Entries a half builds over n elements: prod_g C(n+m_g-1, m_g)."""
    return math.prod(math.comb(n + m - 1, m) for _, m in groups)


def _orderings(n: int, m: int) -> int:
    """The most orderings of one multiset of m indices out of n: the
    multinomial of the most even split, m! when n >= m."""
    q, r = divmod(m, n)
    return math.factorial(m) // (math.factorial(q + 1) ** r * math.factorial(q) ** (n - r))


def _weighted_counts(
    keys: np.ndarray, weights: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the weights of each, every
    weight below 2^bits: one sort of keys * 2^bits + weights orders the pairs
    by key, and the shifts give keys and weights back."""
    packed = keys << bits
    packed += weights
    packed.sort()
    keys = packed >> bits
    packed &= (1 << bits) - 1  # the weights, in key order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(packed, starts)


def _join_count(
    elems: tuple[int, ...],
    halves: Sequence[Sequence[tuple[int, int]]],
    degree: int,
    budget: Budget,
    what: str,
) -> int:
    """Number of pairs (x, y), one tuple of A per half of ``halves`` (from
    ``_join_halves``), whose power sums agree for j = 1..degree; one half
    stands for both when there is only one.

    A key's multiplicity is the summed orderings of its multisets, and the
    count is sum_v left(v) * right(v) over the keys v of both halves, or
    sum_v left(v)^2 over one half.  Each half builds one key column directly:
    its degree-1..k sums as mixed-radix digits, degree 1 least significant,
    each shifted into [0, radix), so the keys lie in [0, prod radix).  It
    counts them with one sort of key * 2^bits + weight, 2^bits the power of
    two above the most orderings of an entry.  The one dtype decision takes
    that sort's bound, prod radix * 2^bits, and the summed weights of a key,
    at most |A|^h (h the half's length); weights times the next length, while
    they grow, stay below the latter.  Past int64 the whole join runs on
    ``object`` keys.  The count, at most |A|^s, is one ``np.dot`` of the
    matched multiplicities, cast to int64 while |A|^s fits and to ``object``
    beyond.  Byte estimate ``what`` per entry built: the key column and the
    weight, and five arrays of the count: the packed keys, the keys shifted
    back out, and the starts (8 bytes), keys and summed weights of the
    distinct keys, sized by ``entry_bytes``.
    """
    n = len(elems)
    lengths = [sum(m for _, m in half) for half in halves]
    spread = max(sum(abs(c) * m for c, m in half) for half in halves)
    radices = [2 * spread * elems[-1] ** j + 1 for j in range(1, degree + 1)]
    places = list(itertools.accumulate(radices, operator.mul, initial=1))
    bits = max(math.prod(_orderings(n, m) for _, m in half) for half in halves).bit_length()
    packed = places[-1] << bits  # sorted keys' bound
    dtype = np.dtype(np.int64 if fits_int64(max(packed, n ** max(lengths))) else object)
    entries = sum(_multisets(n, half) for half in halves)
    per_entry = (entry_bytes(dtype, places[-1]) + entry_bytes(dtype, 1 << bits)
                 + 4 * entry_bytes(dtype, packed) + 8)
    budget.check_bytes(entries * per_entry, what)
    arr = np.asarray(elems, dtype=dtype)
    digits = [list(enumerate(places[:-1], 1))]  # (degree, place) for one column
    built = [_power_sum_columns(arr, half, digits) for half in halves]
    keys = [cols.pop() for cols, _ in built]
    for i in range(len(keys)):  # the sum of place * (radix // 2), radices odd
        keys[i] += places[-1] // 2
    # pop, so that each key and weight array is freed as soon as it is counted
    counts = [_weighted_counts(keys.pop(0), built.pop(0)[1], bits) for _ in halves]
    (lkeys, lmult), (rkeys, rmult) = counts[0], counts[-1]
    if len(counts) == 2:
        _, li, ri = np.intersect1d(lkeys, rkeys, assume_unique=True, return_indices=True)
        lmult, rmult = lmult[li], rmult[ri]
    # one half stands for both, so s = lengths[0] + lengths[-1]
    dtype = np.int64 if fits_int64(n ** (lengths[0] + lengths[-1])) else object
    return int(np.dot(lmult.astype(dtype, copy=False), rmult.astype(dtype, copy=False)))


def _zero_sum_blocks(
    values: Sequence[int], v: Sequence[int], first: int | None = None
) -> list:
    """Pairs (b, prod_i C(v_i, b_i)) over the b <= v with sum_i b_i values_i
    = 0; given ``first``, only the b with b_first >= 1, taken C(v_first - 1,
    b_first - 1) ways there.  Built one entry at a time; a prefix is dropped
    once its sum exceeds what the values left can cancel."""
    left = sum(abs(c) * n for c, n in zip(values, v))
    out = [((), 0, 1)]
    for i, (c, n) in enumerate(zip(values, v)):
        left -= abs(c) * n
        lead = int(i == first)
        out = [(b + (j,), t + j * c, ways * math.comb(n - lead, j - lead))
               for b, t, ways in out for j in range(lead, n + 1)
               if abs(t + j * c) <= left]
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
        for b, ways in _zero_sum_blocks(values, v, first):
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
    estimates before any key is built; ``naive`` sums the scan's triviality
    masks.
    """
    if method not in ("naive", "mitm", "auto"):
        raise BadParamsError(f"unknown method {method!r}")
    if method == "naive":
        total = trivial = 0
        for _, mask in _solutions(system, window.elements(), budget, "naive count"):
            total += mask.size
            trivial += int(np.count_nonzero(mask))
        return SolutionTally(total, trivial, total - trivial)
    elems, k = window.elements(), system.degree
    halves = _join_halves(system.coefficients)
    budget.check_ops(sum(_multisets(len(elems), g) for g in halves) * k, "mitm count")
    triv = trivial_count(system, window.cardinality, budget)
    total = _join_count(elems, halves, k, budget, "mitm keys") if elems else 0
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
    for block, trivial in _solutions(system, window.elements(), budget, "stream"):
        yield from map(tuple, (block if which == "all" else block[~trivial]).tolist())


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
    halves = _join_halves((1,) * t + (-1,) * t)
    budget.check_ops(_multisets(n, halves[0]) * k, "vinogradov moment")
    elems = tuple(range(1, n + 1))
    return _join_count(elems, halves, k, budget, "vinogradov keys")


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
