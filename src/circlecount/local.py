"""Local solution densities: congruence counts, singular-series terms, Euler
factors, and Hensel lifting of non-singular seeds.

The series term S(q) is computed by two independent routes that cross-check
each other:

* direct summation of the normalized complete-sum products over admissible
  numerator vectors, from one table of complete sums (floating point);
* Moebius inversion of the divisor identity  sum_{d|q} S(d) = f(q),
  f(m) = m^(k-s) M(m), which is exact rational arithmetic on congruence
  counts.  S is multiplicative, so the inversion is a product over q's prime
  powers of f(p^e) - f(p^(e-1)); ``euler_factor`` reports the counts f(p^t)
  and takes its terms as the same differences.  A truncated series keeps the
  counts f(p^e) in one table for all its terms; no count outlives its call.

The congruence count M(q) is multiplicative in q (Chinese remainder theorem),
so it is the product of the counts at q's prime-power factors.  Each is read
out through the system's translation and dilation symmetry from the halves
of ``system.split_halves``, as the MITM join counts: fixing the first
variable of the first half at 0 and the first of the last half at each
divisor g of the modulus m, M(m) = m sum_{g|m} phi(m/g) N(g).  One numpy
dynamic program per half, less its first variable, counts its tuples by
residue vector of power sums, its first min(k, stages) stages one bincount
of the power-sum vectors of all tuples and dense np.roll stages the rest;
an L and -L system runs one.  Each N(g) is one ``np.dot`` of the flattened
counts against a shifted copy, the join's read-out.  Cells are int64 or,
when m^s does not fit at the modulus m, Python big integers, on which
``np.dot`` is exact too; ``budget.fits_int64`` picks the dtype and nothing
else differs.
``multiplicativity_check`` takes S(qr) as the literal divisor sum over
direct counts at each divisor of qr, so it stays a real check of both
product rules; the symmetry touches neither.

``_factorize`` is the one trial-division loop: it gives the Moebius route its
prime powers and ``euler_factor`` and ``hensel_lift`` their primality test.
The Newton step of ``hensel_lift`` solves J step = L by Cramer's rule on the
Jacobian matrix that ``system.jacobian_matrix`` builds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, Budget, entry_bytes, fits_int64
from .errors import (
    BadParamsError,
    HypothesisViolatedError,
    NoConvergenceError,
    NotCoprimeError,
    SingularJacobianError,
)
from .expsums import _CHUNK, complete_sums
from .system import DiagonalSystem, _det_bareiss, jacobian, jacobian_matrix, split_halves


class CongruenceCount(NamedTuple):
    modulus: int
    count: int


def congruence_count(
    system: DiagonalSystem, q: int, budget: Budget = DEFAULT_BUDGET
) -> CongruenceCount:
    """Exact number of solutions mod q of all k congruences, x in (Z/q)^s.

    M is multiplicative (Chinese remainder theorem), so M(q) is the product
    of one count per prime-power factor m = p^e of q.  Each count uses the
    system's symmetry.  Sum lam = 0 and each equation is homogeneous, so the
    solutions mod m are invariant under x -> u x + c (1, ..., 1) for any c
    and any unit u mod m.  Translation acts freely, and exactly one point of
    each orbit has x_a = 0, where a is the first variable of the first half
    of ``system.split_halves``: M(m) = m N_0.  The units fix x_a = 0 and
    carry x_b, b the first variable of the last half, through the phi(m/g)
    residues with gcd(x_b, m) = g, so M(m) = m sum_{g|m} phi(m/g) N(g), N(g)
    counting the solutions with x_a = 0 and x_b = g (x_b = 0 when g = m).

    N(g) = sum_v left'(v) right'(v - lam_b (g, g^2, ..., g^k)) is one
    ``np.dot`` of one half's tuple counts by power-sum vector v against a
    shifted copy of the other's, each half counted without its first
    variable by a DP over (Z/m)^k; an L and -L system runs one DP, over L
    less its first coefficient.  At most m^j vectors exist after j <= k
    stages, so a DP's first min(k, stages) stages are one bincount of those
    vectors, and each later stage is dense, m shifted copies of the state.
    Cells are int64 while m^s fits and Python big integers (an ``object``
    array) beyond, on the same code.
    """
    if q < 1:
        raise BadParamsError("q must be >= 1")
    if q == 1:
        return CongruenceCount(1, 1)
    return CongruenceCount(q, _dp_product(system, [[pe] for pe in _factorize(q)], budget))


def _dp_product(
    system: DiagonalSystem, factored: list[list[tuple[int, int]]], budget: Budget
) -> int:
    """Product of the counts M(m) over the moduli m whose factorizations,
    as ``_factorize`` gives them, are ``factored``, refused before any DP
    runs; a single composite modulus is the direct count that
    ``multiplicativity_check`` needs.  The caller's factorizations give the
    divisors too, so no modulus is factorized twice."""
    k, s = system.degree, system.arity
    moduli = [math.prod(p**e for p, e in factors) for factors in factored]
    halves = split_halves(system.coefficients)
    rests = [half[1:] for half in halves]  # x_a = 0 and x_b = g fix each first
    lam_b = halves[-1][0]
    # the read-out sums products of two cells into a count of (Z/m)^s tuples
    dtypes = [np.int64 if fits_int64(m**s) else object for m in moduli]
    heads = [min(k, len(rest)) for rest in rests]
    orbits = [_orbits(factors) for factors in factored]
    ops = sum(head * k * m**head + (len(rest) - head) * m ** (k + 1)
              for m in moduli for rest, head in zip(rests, heads))
    budget.check_ops(ops + sum(len(o) * m**k for m, o in zip(moduli, orbits)),
                     "congruence count")
    # held at once by a scatter: the m^head power-sum vectors, their flat
    # indices, the bincount and, on object cells, its copy (cells at most
    # m^head); by a dense stage, if any: the counts, the next stage (cells at
    # most m^|rest|) and np.roll's copy; by the second half, also the first
    # half's counts; by a read-out, both halves' counts and np.roll's copy;
    # and np.roll's index 2-tuples and k-tuples in free lists, 2000 each
    peaks = []
    for m, d in zip(moduli, dtypes):
        cells = [entry_bytes(d, m ** len(rest)) for rest in rests]
        built = [max(8 * (k + 1) * m**head + 8 * m**k
                     + (entry_bytes(d, m**head) * m**k if d is object else 0),
                     (2 * cell + 8) * m**k if len(rest) > head else 0)
                 for rest, head, cell in zip(rests, heads, cells)]
        peaks += [built[0], cells[0] * m**k * (len(halves) - 1) + built[-1],
                  (sum(cells) + 8) * m**k]
    budget.check_bytes(max(peaks) + 2000 * (96 + 8 * k), "congruence DP states")
    axes = tuple(range(k))
    total = 1
    for m, d, orbit in zip(moduli, dtypes, orbits):
        counts = [_congruence_dp(rest, k, m, d) for rest in rests]
        left, right = counts[0], counts[-1]
        n = 0
        for g, phi in orbit:  # N(g): x_b = g shifts the last half's sums
            shifts = [lam_b * pow(g, j, m) % m for j in range(1, k + 1)]
            n += phi * int(np.dot(left.ravel(),
                                  np.roll(right, shifts, axis=axes).ravel()))
        total *= m * n
    return total


def _orbits(factors: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(g, phi(m/g)) for each divisor g of m, the product of the prime powers
    p^e of ``factors``: the units mod m carry g through the phi(m/g) residues
    x with gcd(x, m) = g."""
    orbits = [(1, 1)]
    for p, e in factors:
        powers = [(p**f, p ** (e - f) - p ** (e - f - 1)) for f in range(e)]
        orbits = [(g * pg, phi * pphi)
                  for g, phi in orbits for pg, pphi in powers + [(p**e, 1)]]
    return orbits


def _congruence_dp(stages: tuple[int, ...], k: int, q: int, dtype) -> np.ndarray:
    """The (Z/q)^k array whose cell v counts x with v_j = sum_i stages_i x_i^j."""
    head = min(k, len(stages))
    vecs = np.zeros(k, dtype=np.int64)
    for lam in stages[:head]:
        terms = (lam * pow(x, j, q) % q for x in range(q) for j in range(1, k + 1))
        vecs = vecs[..., None, :] + np.fromiter(terms, np.int64, q * k).reshape(q, k)
    flat = np.ravel_multi_index(np.moveaxis(vecs, -1, 0), (q,) * k, mode="wrap").ravel()
    counts = np.bincount(flat, minlength=q**k).reshape((q,) * k).astype(dtype, copy=False)
    del vecs, flat  # the dense stages hold only the counts
    axes = tuple(range(k))
    for lam in stages[head:]:
        nxt = np.zeros_like(counts)
        for x in range(q):
            shifts = tuple(lam * pow(x, j, q) % q for j in range(1, k + 1))
            nxt += np.roll(counts, shifts, axis=axes)
        counts = nxt
    return counts


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n as ascending (prime, exponent) pairs, by trial
    division; empty for n < 2, so n is prime iff it is [(n, 1)]."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _normalized_count(
    system: DiagonalSystem, m: int, budget: Budget, counts: dict[int, Fraction]
) -> Fraction:
    """f(m) = m^(k-s) M(m), the right-hand side of the divisor identity, read
    from ``counts`` or counted once into it."""
    if m not in counts:
        count = congruence_count(system, m, budget).count
        counts[m] = count * Fraction(m) ** (system.degree - system.arity)
    return counts[m]


def _series_term(
    system: DiagonalSystem, q: int, budget: Budget, counts: dict[int, Fraction]
) -> Fraction:
    total = Fraction(1)
    for p, e in _factorize(q):
        below = _normalized_count(system, p ** (e - 1), budget, counts)
        total *= _normalized_count(system, p**e, budget, counts) - below
    return total


def series_term_moebius(
    system: DiagonalSystem, q: int, budget: Budget = DEFAULT_BUDGET
) -> Fraction:
    """S(q) as an exact rational, by Moebius-inverting the divisor identity
    sum_{d|q} S(d) = f(q), f(m) = m^(k-s) M(m).  S is multiplicative and
    mu(p^e / d) vanishes unless d is p^e or p^(e-1), so
    S(q) = prod_{p^e || q} (f(p^e) - f(p^(e-1)))."""
    if q < 1:
        raise BadParamsError("q must be >= 1")
    return _series_term(system, q, budget, {})


def series_term_direct(
    system: DiagonalSystem, q: int, budget: Budget = DEFAULT_BUDGET
) -> complex:
    """S(q) by direct summation over admissible numerator vectors.

    Sums q^(-s) * prod_i S(q, lam_i a) over a in [0, q)^k with
    gcd(q, a_1, ..., a_k) = 1; ``complete_sums`` tabulates S(q, b) once for
    every residue vector b, and each lam_i a mod q is looked up in it.
    """
    if q < 1:
        raise BadParamsError("q must be >= 1")
    k = system.degree
    s = system.arity
    budget.check_ops(q ** (k + 1) + q**k * s, "direct series term")
    # per vector a, at the lookups' peak: a (8k), the table (16), the gcd mask
    # (1), the product (16), lam * a and its residue mod q (16k) and one
    # lookup (16), which outweigh the masked product at the end; and one
    # block of the table, at most max(_CHUNK, q) residues, each held mod q
    # beside its root (24)
    budget.check_bytes(q**k * (24 * k + 49) + 24 * max(_CHUNK, q), "direct series term")
    vecs = np.indices((q,) * k).reshape(k, -1).T  # rows are (a_1, ..., a_k)
    table = complete_sums(q, vecs).reshape((q,) * k)
    mask = np.gcd(np.gcd.reduce(vecs, axis=1), q) == 1
    prod = np.ones(len(vecs), dtype=np.complex128)
    for lam in system.coefficients:
        prod *= table[tuple(lam % q * vecs.T % q)]
    return complex(prod[mask].sum()) / float(q) ** s


class MultiplicativityReport(NamedTuple):
    q: int
    r: int
    s_q: Fraction
    s_r: Fraction
    s_qr: Fraction
    residual: float
    passed: bool


def multiplicativity_check(
    system: DiagonalSystem, q: int, r: int, budget: Budget = DEFAULT_BUDGET
) -> MultiplicativityReport:
    """Verify S(qr) = S(q) S(r) for coprime q, r (exact values, float residual).

    S(q) and S(r) come from ``series_term_moebius``.  S(qr) is the literal
    divisor sum sum_{d|qr} mu(qr/d) d^(k-s) M(d), each M(d) counted directly
    at the modulus d itself, so the check runs neither through the
    prime-power product rule of the series terms nor through the CRT product
    of the congruence counts that it checks.  The direct count reads M(d)
    through the system's symmetry at d, as ``congruence_count`` does at each
    prime power; the symmetry holds at every modulus and touches neither
    product rule.
    """
    if math.gcd(q, r) != 1:
        raise NotCoprimeError(f"gcd({q}, {r}) != 1")
    s_q = series_term_moebius(system, q, budget)
    s_r = series_term_moebius(system, r, budget)
    n = q * r
    s_qr = Fraction(0)
    for d in [j for j in range(1, n + 1) if n % j == 0]:
        t = _factorize(n // d)
        if all(e == 1 for _, e in t):  # mu(n/d) = (-1)^len(t), else 0
            m = _dp_product(system, [_factorize(d)], budget)
            s_qr += (-1) ** len(t) * m * Fraction(d) ** (system.degree - system.arity)
    residual = abs(float(s_qr - s_q * s_r))
    tol = 1e-9 * (1.0 + abs(float(s_q * s_r)))
    return MultiplicativityReport(q, r, s_q, s_r, s_qr, residual, residual <= tol)


class EulerFactorReport(NamedTuple):
    prime: int
    h_max: int
    series_terms: tuple[Fraction, ...]  # S(p^0), ..., S(p^h_max)
    partial_sum: Fraction
    normalized_counts: tuple[Fraction, ...]  # p^((k-s)t) M(p^t), t = 0..h_max
    stabilization_gap: Fraction


def euler_factor(
    system: DiagonalSystem, p: int, h_max: int, budget: Budget = DEFAULT_BUDGET
) -> EulerFactorReport:
    """Partial Euler factor sum_{h<=h_max} S(p^h) with its stabilization
    diagnostic.  The normalized prime-power counts f(p^t) = p^((k-s)t) M(p^t)
    are formed once; the series terms S(p^h) = f(p^h) - f(p^(h-1)) are their
    successive differences, so the partial sum telescopes to f(p^h_max) and
    the gap |f(p^h_max) - f(p^(h_max-1))| is the last term's size (0 when
    h_max = 0)."""
    if _factorize(p) != [(p, 1)]:
        raise BadParamsError(f"{p} is not prime")
    if h_max < 0:
        raise BadParamsError("h_max must be >= 0")
    counts: dict[int, Fraction] = {}
    normalized = [
        _normalized_count(system, p**t, budget, counts) for t in range(h_max + 1)
    ]
    terms = [b - a for a, b in zip([Fraction(0)] + normalized, normalized)]
    return EulerFactorReport(
        prime=p,
        h_max=h_max,
        series_terms=tuple(terms),
        partial_sum=normalized[-1],
        normalized_counts=tuple(normalized),
        stabilization_gap=abs(terms[-1]) if h_max >= 1 else Fraction(0),
    )


class SeriesTerm(NamedTuple):
    q: int
    value: Fraction
    method: str
    residual: Optional[float]  # |direct - moebius| when both routes ran
    tail_reference: float  # q^(-9k) comparison curve, reported only


class SeriesTruncation(NamedTuple):
    cutoff: int
    partial_sum: Fraction
    terms: tuple[SeriesTerm, ...]


def truncated_singular_series(
    system: DiagonalSystem,
    cutoff: int,
    budget: Budget = DEFAULT_BUDGET,
    method: str = "moebius",
) -> SeriesTruncation:
    """Partial sums sum_{q<=Q} S(q) with per-term values.

    The Moebius route is exact, so it is the default; it counts each prime
    power once per call, in one dict shared by all terms.  ``method="both"``
    also runs the direct route and records the residual per term.
    """
    if cutoff < 1:
        raise BadParamsError("cutoff must be >= 1")
    if method not in ("moebius", "both"):
        raise BadParamsError(f"unknown method {method!r}")
    counts: dict[int, Fraction] = {}
    terms = []
    total = Fraction(0)
    ninek = 9 * system.degree
    for q in range(1, cutoff + 1):
        exact = _series_term(system, q, budget, counts)
        residual = None
        if method == "both":
            residual = abs(series_term_direct(system, q, budget) - float(exact))
        total += exact
        terms.append(SeriesTerm(q, exact, method, residual, float(q) ** (-ninek)))
    return SeriesTruncation(cutoff=cutoff, partial_sum=total, terms=tuple(terms))


class PadicLift(NamedTuple):
    prime: int
    level: int
    values: tuple[int, ...]
    certified: bool
    free_indices: tuple[int, ...]
    u: int  # hypothesis depth 1 + 2 v_p(Jacobian)


def _v_p(n: int, p: int) -> int:
    if n == 0:
        raise BadParamsError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _pick_free_indices(
    system: DiagonalSystem, seed: Sequence[int], p: int
) -> tuple[int, ...]:
    """The lexicographically first k-subset with a unit Jacobian mod p.

    The Jacobian k! * prod lam_i * Vandermonde(x_i) is a unit exactly when
    p > k, p divides no chosen lam_i and the chosen residues are distinct, so
    one greedy pass over the variables finds that subset."""
    k = system.degree
    chosen: list[int] = []
    seen: set[int] = set()
    if p > k:
        for i, (lam, x) in enumerate(zip(system.coefficients, seed), start=1):
            if lam % p != 0 and x % p not in seen and len(chosen) < k:
                seen.add(x % p)
                chosen.append(i)
    if len(chosen) < k:
        raise SingularJacobianError(
            f"no k-subset of variables has a unit Jacobian mod {p} at this seed"
        )
    return tuple(chosen)


def hensel_lift(
    system: DiagonalSystem,
    seed: Sequence[int],
    p: int,
    t: int,
    free_indices: Optional[Sequence[int]] = None,
) -> PadicLift:
    """Lift a solution mod p to a solution mod p^t by Newton iteration.

    The k variables in ``free_indices`` are updated; all others stay fixed at
    their seed values.  Requires the k x k Jacobian on the free variables to
    be nonzero with p-adic valuation v, and the seed to satisfy the
    congruences mod p^(1+2v) (the unique-lift hypothesis).  The returned
    values satisfy the system mod p^t exactly and reduce to the seed mod p.

    Both are checked once, before the Newton loop, and ``jacobian`` checks
    the index subset.  The free residues of the seed, in [0, p), are then
    distinct (else the Jacobian vanishes) and the congruences hold mod
    p^(1+2v), so every Newton step is 0 mod p^(v+1): the free residues stay
    fixed mod p, the Jacobian's valuation stays v and every Cramer numerator
    is divisible by p^v.  The loop cap and the final verification are the
    one fault check.
    """
    system.require_arity(seed)
    if _factorize(p) != [(p, 1)]:
        raise BadParamsError(f"{p} is not prime")
    if t < 1:
        raise BadParamsError("target level must be >= 1")
    x = [int(val) % p for val in seed]
    free = (
        tuple(sorted(int(i) for i in free_indices))
        if free_indices is not None
        else _pick_free_indices(system, x, p)
    )
    delta = jacobian(system, x, free)
    if delta == 0:
        raise SingularJacobianError(
            f"Jacobian vanishes on variables {free}: no unit after normalization"
        )
    v = _v_p(delta, p)
    u = 1 + 2 * v
    if any(val % p**u != 0 for val in system.equations_at(x)):
        raise HypothesisViolatedError(
            f"seed does not satisfy the congruences mod p^{u} (u = 1 + 2 v_p(J))"
        )
    work_mod = p ** (t + 2 * v + 2)
    target = p**t
    k = system.degree
    for _ in range(64):
        lvals = list(system.equations_at(x))
        if all(val % target == 0 for val in lvals):
            break
        jmat = jacobian_matrix(system, x, free)
        inv_unit = pow(_det_bareiss(jmat) // p**v % work_mod, -1, work_mod)
        # Cramer's rule, exact: J^{-1} L = nums / det, nums_i = det(J, column i := L)
        nums = [
            _det_bareiss([r[:i] + [val] + r[i + 1:] for r, val in zip(jmat, lvals)])
            for i in range(k)
        ]
        for idx, num in zip(free, nums):
            x[idx - 1] = (x[idx - 1] - num // p**v * inv_unit) % work_mod
    else:
        raise NoConvergenceError("Newton iteration did not reach the target level")
    x = [val % target for val in x]
    if any(val % target != 0 for val in system.equations_at(x)):
        raise NoConvergenceError("lift verification failed")
    if any((a - b) % p != 0 for a, b in zip(x, seed)):
        raise NoConvergenceError("lift does not reduce to the seed mod p")
    return PadicLift(
        prime=p,
        level=t,
        values=tuple(x),
        certified=True,
        free_indices=free,
        u=u,
    )
