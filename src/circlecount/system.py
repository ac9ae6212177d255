"""Diagonal systems of simultaneous power equations and their solutions.

A system of degree ``k`` in ``s`` variables is the family of equations

    L_j(x) = lam_1 x_1^j + ... + lam_s x_s^j = 0      (1 <= j <= k)

with fixed nonzero integer coefficients summing to zero.  The zero sum makes
the solution set closed under translation (x -> x + t) and dilation
(x -> c*x), which is what the rest of the library exploits.

All arithmetic here is exact: Python integers never overflow, and every
predicate is decided, not approximated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ArityMismatchError,
    BadDegreeError,
    BadIndicesError,
    BadParamsError,
    NonzeroSumError,
    NotASolutionError,
    ParseError,
    ZeroCoefficientError,
)


@dataclass(frozen=True)
class DiagonalSystem:
    """Degree-``k`` diagonal system with coefficient vector ``coefficients``.

    Invariants (enforced on construction): k >= 1, at least two coefficients,
    every coefficient nonzero, coefficients sum to zero.
    """

    degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise BadDegreeError(f"degree must be >= 1, got {self.degree}")
        if len(self.coefficients) < 2:
            raise BadParamsError("a system needs at least two coefficients")
        if any(c == 0 for c in self.coefficients):
            raise ZeroCoefficientError("zero coefficients are not allowed")
        if sum(self.coefficients) != 0:
            raise NonzeroSumError(
                f"coefficients must sum to zero, got sum {sum(self.coefficients)}"
            )

    @property
    def arity(self) -> int:
        return len(self.coefficients)

    def equations_at(self, x: Sequence[int]) -> tuple[int, ...]:
        """Exact values (L_1(x), ..., L_k(x))."""
        self.require_arity(x)
        return tuple(
            sum(c * v**j for c, v in zip(self.coefficients, x))
            for j in range(1, self.degree + 1)
        )

    def require_arity(self, x: Sequence) -> None:
        if len(x) != self.arity:
            raise ArityMismatchError(
                f"tuple of length {len(x)} for a system of arity {self.arity}"
            )


def validate_system(k: int, coefficients: Iterable[int]) -> DiagonalSystem:
    """Validate and build a system; raises the specific validation error."""
    return DiagonalSystem(k, tuple(int(c) for c in coefficients))


def load_system(path: str) -> DiagonalSystem:
    """Load a system from a JSON file {"k": int, "lambda": [ints]}."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read system file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "k" not in obj or "lambda" not in obj:
        raise ParseError(f'{path}: expected an object {{"k": ..., "lambda": [...]}}')
    k = obj["k"]
    coeffs = obj["lambda"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParseError(f"{path}: k must be an integer")
    if not isinstance(coeffs, list) or any(
        not isinstance(c, int) or isinstance(c, bool) for c in coeffs
    ):
        raise ParseError(f"{path}: lambda must be a list of integers")
    return validate_system(k, coeffs)


def is_solution(system: DiagonalSystem, x: Sequence[int]) -> bool:
    """True iff all k power equations vanish at x (exact arithmetic)."""
    return all(v == 0 for v in system.equations_at(x))


def is_trivial(system: DiagonalSystem, x: Sequence[int]) -> bool:
    """True iff every value class of the solution has zero coefficient sum.

    Equivalent to the constructive definition via zero-sum coefficient
    partitions with variables constant on blocks: the value classes of such a
    tuple are unions of zero-sum blocks, and conversely the value classes
    themselves form a qualifying partition.  Raises if x is not a solution.
    This is the per-tuple definition; the naive count and the stream decide
    the same thing for a block of solutions at once.
    """
    system.require_arity(x)
    if not is_solution(system, x):
        raise NotASolutionError(f"{tuple(x)} does not solve the system")
    class_sums: dict[int, int] = {}
    for c, v in zip(system.coefficients, x):
        class_sums[v] = class_sums.get(v, 0) + c
    return all(total == 0 for total in class_sums.values())


def split_halves(coefficients: Sequence[int]) -> list[tuple[int, ...]]:
    """The halves both exact engines count pairs of tuples over, one per half,
    with equal power sums: the positives L alone when the negatives are -L up
    to order, else the first ceil(s/2) coefficients and the negated rest."""
    left = tuple(c for c in coefficients if c > 0)
    if sorted(left) == sorted(-c for c in coefficients if c < 0):
        return [left]
    half = (len(coefficients) + 1) // 2
    return [tuple(coefficients[:half]), tuple(-c for c in coefficients[half:])]


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def jacobian(system: DiagonalSystem, x: Sequence[int], indices: Sequence[int]) -> int:
    """Exact determinant det(dL_j/dx_{i_l}) at x for a k-subset of variables.

    Rows are the equations j = 1..k ascending; columns follow ``indices`` in
    ascending order.  Only vanishing / non-vanishing carries meaning; the sign
    depends on this row/column convention.  The magnitude equals
    k! * |prod of the selected coefficients| * |Vandermonde of the selected
    coordinates|.

    indices are 1-based variable positions.
    """
    system.require_arity(x)
    k = system.degree
    idx = sorted(indices)
    if len(idx) != k or len(set(idx)) != k or idx[0] < 1 or idx[-1] > system.arity:
        raise BadIndicesError(
            f"indices must be a k-subset of 1..{system.arity}, got {tuple(indices)}"
        )
    return _det_bareiss(jacobian_matrix(system, x, idx))


def jacobian_matrix(
    system: DiagonalSystem, x: Sequence[int], indices: Sequence[int]
) -> list[list[int]]:
    """The k x k matrix dL_j/dx_i at x: row j = 1..k, one column per 1-based
    index in the given order, entry j * lam_i * x_i^(j-1)."""
    return [
        [j * system.coefficients[i - 1] * x[i - 1] ** (j - 1) for i in indices]
        for j in range(1, system.degree + 1)
    ]
