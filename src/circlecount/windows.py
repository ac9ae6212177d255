"""Finite set windows A_N = A ∩ [1, N] stored as integer bitmasks.

Bit ``i - 1`` of ``mask`` records membership of the integer ``i``.  The
representation is immutable and hashable, cardinality is a popcount, and the
density |A_N| / N is an exact rational.  The balanced function delta_N - A(x)
of a window lives here too, so that ``gowers`` and ``expsums`` both import it
from below.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import BadParamsError, ParseError


@dataclass(frozen=True)
class SetWindow:
    """A subset of [1, N] as a bitmask (bit i-1 <-> membership of i)."""

    length: int
    mask: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise BadParamsError(f"window length must be >= 1, got {self.length}")
        if self.mask < 0 or self.mask >> self.length:
            raise BadParamsError("mask has bits outside [1, N]")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "SetWindow":
        mask = 0
        for x in elements:
            if not 1 <= x <= n:
                raise BadParamsError(f"element {x} outside [1, {n}]")
            mask |= 1 << (x - 1)
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "SetWindow":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "SetWindow":
        return cls(n, 0)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def density(self) -> Fraction:
        return Fraction(self.cardinality, self.length)

    def bits(self) -> str:
        """Membership of 1..N as N characters '0'/'1', character i-1 for i,
        read from the mask in one pass."""
        return bin(self.mask)[:1:-1].ljust(self.length, "0")

    def elements(self) -> tuple[int, ...]:
        # one pass over the binary digits: each element ends a run of zeros
        gaps = bin(self.mask)[:1:-1].split("1")[:-1]
        return tuple(itertools.accumulate(len(gap) + 1 for gap in gaps))

    def add(self, x: int) -> "SetWindow":
        if not 1 <= x <= self.length:
            raise BadParamsError(f"element {x} outside [1, {self.length}]")
        return SetWindow(self.length, self.mask | 1 << (x - 1))


def balanced_function(window: SetWindow) -> tuple[int, ...]:
    """N-scaled balanced function: entry x-1 is |A_N| - N*A(x) for x in [1, N]."""
    card = window.cardinality
    n = window.length
    values = tuple(card - n if bit == "1" else card for bit in window.bits())
    assert sum(values) == 0
    return values


def parse_set_file(text: str) -> SetWindow:
    """Parse the on-disk set format; ``N`` and ``mask`` are whole tokens.

    Two forms, both starting with a header line ``N <value>``:

    * a newline-separated list of integers in [1, N];
    * a single line ``mask <hex>`` with bit i-1 marking membership of i.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "N":
        raise ParseError('set file must start with a header line "N <value>"')
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"malformed header line: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad N value: {head[1]!r}") from exc
    if n < 1:
        raise ParseError(f"N must be >= 1, got {n}")
    body = lines[1:]
    if body and body[0].split()[0] == "mask":
        if len(body) != 1:
            raise ParseError("mask form takes exactly one mask line")
        parts = body[0].split()
        if len(parts) != 2:
            raise ParseError(f"malformed mask line: {body[0]!r}")
        try:
            mask = int(parts[1], 16)
        except ValueError as exc:
            raise ParseError(f"bad hex mask: {parts[1]!r}") from exc
        if mask >> n:
            raise ParseError("mask has bits above N")
        return SetWindow(n, mask)
    try:
        elems = [int(ln) for ln in body]
    except ValueError as exc:
        raise ParseError(f"non-integer set element: {exc}") from exc
    for x in elems:
        if not 1 <= x <= n:
            raise ParseError(f"element {x} outside [1, {n}]")
    return SetWindow.from_elements(n, elems)


def load_set(path: str) -> SetWindow:
    try:
        with open(path) as fh:
            return parse_set_file(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read set file {path}: {exc}") from exc


def format_set(window: SetWindow, form: str = "list") -> str:
    """Serialize a window in the list or mask file form."""
    if form == "list":
        lines = [f"N {window.length}"]
        lines.extend(str(x) for x in window.elements())
        return "\n".join(lines) + "\n"
    if form == "mask":
        return f"N {window.length}\nmask {window.mask:x}\n"
    raise BadParamsError(f"unknown set file form {form!r}")


def random_density_window(n: int, density: float, seed: int) -> SetWindow:
    """Seeded Bernoulli(density) subset of [1, n]; reruns are identical."""
    if not 0.0 <= density <= 1.0:
        raise BadParamsError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    mask = 0
    for x in range(1, n + 1):
        if rng.random() < density:
            mask |= 1 << (x - 1)
    return SetWindow(n, mask)


def squares_window(n: int) -> SetWindow:
    """The perfect squares in [1, n]."""
    elems = []
    m = 1
    while m * m <= n:
        elems.append(m * m)
        m += 1
    return SetWindow.from_elements(n, elems)


def progression_window(n: int, start: int, step: int) -> SetWindow:
    """The arithmetic progression {start + i*step} intersected with [1, n]."""
    if step < 1 or start < 1:
        raise BadParamsError("progression needs start >= 1 and step >= 1")
    return SetWindow.from_elements(n, range(start, n + 1, step))
