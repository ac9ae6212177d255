"""Explicit operation/memory budgets with deterministic refusal.

Every potentially expensive operation estimates its cost up front and calls
:meth:`Budget.check_ops` / :meth:`Budget.check_bytes` before doing any work.
Refusal is an error, never a truncated best-effort answer, so results are
reproducible regardless of the machine the code runs on.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .errors import BudgetExceededError

DEFAULT_MAX_OPS = 10**9
DEFAULT_MAX_KEY_BYTES = 4 * 1024**3  # 4 GiB
INT64_SAFE = 2**62
FLOAT64_EXACT = 2**53


def fits_int64(bound: int) -> bool:
    """The int64-or-big-integer choice of every exact engine, given an integer
    bound on each value the int64 path would form; otherwise the engine runs
    on Python big integers, never wrapping around."""
    return bound < INT64_SAFE


def fits_float64(bound: int) -> bool:
    """Whether float64 holds exactly every integer an engine forms, given an
    integer bound on the sum of the magnitudes of any sum it forms: every
    product and partial sum is then an integer below 2^53, exact in any
    summation order."""
    return bound < FLOAT64_EXACT


def entry_bytes(dtype, bound: int) -> int:
    """Bytes one array entry of magnitude at most ``bound`` takes: the int64,
    or an ``object`` pointer plus the Python integer it points to.  Compared
    without numpy: ``object`` and ``np.dtype(object)`` both equal ``object``."""
    return 8 + sys.getsizeof(bound) if dtype == object else 8


class Budget(NamedTuple):
    """Cost ceiling for one operation: elementary ops and key-storage bytes."""

    max_ops: int = DEFAULT_MAX_OPS
    max_key_bytes: int = DEFAULT_MAX_KEY_BYTES

    def check_ops(self, ops: int, what: str) -> None:
        if ops > self.max_ops:
            raise BudgetExceededError(
                f"{what}: estimated {ops} elementary operations exceeds "
                f"budget of {self.max_ops}"
            )

    def check_bytes(self, nbytes: int, what: str) -> None:
        if nbytes > self.max_key_bytes:
            raise BudgetExceededError(
                f"{what}: estimated {nbytes} bytes of key storage exceeds "
                f"budget of {self.max_key_bytes}"
            )


DEFAULT_BUDGET = Budget()
