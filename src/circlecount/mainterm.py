"""Constant arithmetic, main-term prediction, and the density-increment trace.

The constants involved are doubly exponential in k (e.g. the increment
constant is 2 raised to a power with more than 10^300 binary digits at k = 2),
so nothing here is ever materialized as a hardware float.  All size
bookkeeping happens on the log2 scale via :class:`BigLogNumber`, a positive
value held as a 60-digit ``Decimal`` log2 magnitude; the trace uses K's factors.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, Budget
from .enumeration import count_solutions
from .errors import BadDegreeError, BadParamsError, NoRealSolutionError, ToleranceNotMetError
from .expsums import sigma_exponent
from .local import truncated_singular_series
from .system import DiagonalSystem, jacobian_matrix
from .windows import SetWindow

# overflow is not trapped: a value past the exponent range is Infinity
_CTX = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                       traps=[decimal.InvalidOperation, decimal.DivisionByZero])
_LN2 = _CTX.ln(2)
_NSTR = decimal.Context(prec=20, rounding=decimal.ROUND_HALF_UP)
_EXACT_BIT_LIMIT = 4096
_NEWTON_ATTEMPTS = 64
_MAX_INCREMENT_STEPS = 10_000
_BAND_CHUNK = 250_000  # points per draw of the band-volume estimator


def _log2(x) -> Decimal:
    """log2 of a positive int, Fraction or Decimal, to 60 digits."""
    if isinstance(x, Fraction):
        return _CTX.subtract(_log2(x.numerator), _log2(x.denominator))
    return _CTX.divide(_CTX.ln(x), _LN2)


def _log10_2(ctx: decimal.Context) -> Decimal:
    """log10 2 rounded in ``ctx``, from fixed-point integer series with 20
    guard digits: ln 2 = 2 atanh(1/3) and ln 10 = 3 ln 2 + 2 atanh(1/9).
    libmpdec's own log10 and ln take seconds at thousands of digits."""
    one = 10 ** (ctx.prec + 20)

    def atanh_inv(x: int) -> int:  # one * atanh(1/x), short by under 1 per term
        total, power, j = 0, one // x, 1
        while power:
            total += power // j
            power //= x * x
            j += 2
        return total

    ln2 = 2 * atanh_inv(3)
    return ctx.divide(ln2, 3 * ln2 + 2 * atanh_inv(9))


def _nstr(mantissa: Decimal, scale: int = 0) -> str:
    """mantissa * 2^scale to 20 significant digits, rounded half up, in fixed
    notation for decimal exponents in (-6, 20) and with trailing zeros
    stripped down to ``.0``."""
    if not mantissa:
        return "0.0"
    shift = 0
    if scale:  # the value may be past Decimal's range: read it through log10
        # 30103 / 100000 >= log10 2 digits per bit of the integer part
        ctx = decimal.Context(prec=61 + scale.bit_length() * 30103 // 100000)
        lg = ctx.multiply(scale, _log10_2(ctx))  # its fraction to 60 digits
        shift = int(lg.to_integral_value(decimal.ROUND_FLOOR))
        lg = _CTX.add(ctx.subtract(lg, shift), _CTX.log10(abs(mantissa)))
        mantissa = _CTX.power(10, lg).copy_sign(mantissa)
    sign, digits, exp = _NSTR.plus(mantissa).as_tuple()
    point = len(digits) + exp - 1 + shift  # decimal exponent of the first digit
    suffix = "e" + "+" * (point >= 0) + str(Decimal(point))  # no int-to-str digit limit
    text, split = "".join(map(str, digits)).ljust(20, "0"), 1
    if -6 < point < 20:
        text, split, suffix = "0" * -point + text, max(point, 0) + 1, ""
    text = (text[:split] + "." + text[split:]).rstrip("0")
    return "-" * sign + text + "0" * text.endswith(".") + suffix


def _payload_bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class BigLogNumber:
    """A positive real 2^(m 2^scale), its log2 magnitude m a ``Decimal``, with
    an exact payload that the constructor drops once its numerator or
    denominator is longer than ``_EXACT_BIT_LIMIT`` bits."""

    __slots__ = ("log2_magnitude", "exact", "scale")

    def __init__(self, log2_magnitude, exact: Optional[Fraction] = None, scale: int = 0):
        self.log2_magnitude = Decimal(log2_magnitude)
        self.scale = scale if self.log2_magnitude else 0
        if exact is not None and _payload_bits(exact) > _EXACT_BIT_LIMIT:
            exact = None
        self.exact = exact

    @classmethod
    def from_fraction(cls, value: int | Fraction) -> "BigLogNumber":
        value = Fraction(value)
        if value <= 0:
            raise BadParamsError(f"BigLogNumber needs a positive value, got {value}")
        return cls(_log2(value), value)

    def __mul__(self, other: "BigLogNumber") -> "BigLogNumber":
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = self.exact * other.exact
        # the mantissas at the larger scale, where a far smaller one underflows
        lo, hi = sorted((self, other), key=lambda x: x.scale)
        m = _CTX.fma(lo.log2_magnitude, _CTX.power(2, lo.scale - hi.scale), hi.log2_magnitude)
        return BigLogNumber(m, exact, hi.scale)

    def power(self, exponent: int) -> "BigLogNumber":
        exact = None
        # a b-bit payload to the e-th power has more than |e|(b - 1) bits, so
        # powers the constructor would drop are never formed
        if (
            self.exact is not None
            and abs(exponent) * (_payload_bits(self.exact) - 1) < _EXACT_BIT_LIMIT
        ):
            exact = self.exact**exponent
        return BigLogNumber(_CTX.multiply(self.log2_magnitude, exponent), exact, self.scale)

    def to_json_dict(self) -> dict:
        """``level`` 0: the exact payload is present; 1: only the log2
        magnitude is meaningful; 2: even the log2 magnitude needs its own
        logarithm, ``log2_of_abs_log2``, to be displayed."""
        mag = self.log2_magnitude
        small = abs(mag) < _CTX.power(2, 48 - self.scale)
        level = 0 if self.exact is not None else 1 if small else 2
        out: dict = {"sign": 1, "level": level, "log2_magnitude": _nstr(mag, self.scale)}
        if level == 2:
            out["log2_of_abs_log2"] = _nstr(_CTX.add(_log2(abs(mag)), self.scale))
        if self.exact is not None:
            out["exact"] = str(self.exact)
        return out


class IncrementConstant(NamedTuple):
    """K = base^(2^gamma) 2^shift, base an exact positive rational.  The
    sheet's K is (CS/4)^(2^gamma): base CS/4, exact from the float, shift 0."""

    base: Fraction
    gamma: int
    shift: float | Decimal = 0

    def as_big_log(self) -> BigLogNumber:
        return BigLogNumber(_log2(self.base), scale=self.gamma) * BigLogNumber(self.shift)


class ConstantSheet(NamedTuple):
    k: int
    s0: int
    sigma: float
    delta_exp: float
    gamma: BigLogNumber
    K_const: Optional[IncrementConstant]  # needs a CS value
    C_exp: BigLogNumber
    c_exp: BigLogNumber
    notes: tuple[str, ...]


def constants(
    k: int, cs_value: Optional[float] = None, bracket: str = "floor"
) -> ConstantSheet:
    """Evaluate the constant sheet for degree k.

    Conventions (recorded in ``notes``): natural logarithms throughout; the
    square bracket is the floor (``bracket="trunc"`` truncates toward zero
    instead, which differs exactly when the bracket argument is negative,
    i.e. at k = 2).  The increment constant is conditional on a supplied
    CS value (the product of the two main-term constants) and is None
    without one.
    """
    if k < 2:
        raise BadDegreeError("constants need k >= 2")
    if bracket not in ("floor", "trunc"):
        raise BadParamsError(f"unknown bracket convention {bracket!r}")
    if cs_value is not None and cs_value <= 0:
        raise BadParamsError("CS value must be positive")
    arg = k * (math.log(k) + 2.0 * math.log(math.log(k)))
    br = math.floor(arg) if bracket == "floor" else math.trunc(arg)
    s0 = 2 * k * br + 10 * k * k + 6
    sigma = sigma_exponent(k)
    gamma_log2 = 2 ** (k + 8) + k + 1
    gamma = BigLogNumber.from_fraction(2).power(gamma_log2)
    c_exp = BigLogNumber.from_fraction(Fraction(1, 2)).power(2 ** (k + 9))
    big_c = BigLogNumber(_CTX.add(_log2(s0 + 2), gamma_log2))
    k_const = cs_value and IncrementConstant(Fraction(cs_value) / 4, gamma_log2)
    notes = (
        "natural logarithms",
        f"square bracket interpreted as {bracket}",
        "K_const conditional on supplied CS"
        + (f" = {cs_value}" if cs_value is not None else " (not supplied)"),
    )
    return ConstantSheet(
        k=k,
        s0=s0,
        sigma=sigma,
        delta_exp=k * sigma,
        gamma=gamma,
        K_const=k_const,
        C_exp=big_c,
        c_exp=c_exp,
        notes=notes,
    )


def uniformity_threshold(
    k: int, s0: int, k_const: BigLogNumber, delta
) -> BigLogNumber:
    """Threshold K * delta^(2^(k+1) (s0+2)) on the uniformity parameter."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise BadParamsError("delta must be in (0, 1]")
    exponent = 2 ** (k + 1) * (s0 + 2)
    return k_const * BigLogNumber.from_fraction(delta).power(exponent)


def predicted_count(
    system: DiagonalSystem, delta, n: int, c_est: float, s_trunc: float
) -> float:
    """Main-term prediction CS * delta^s * N^(s - k(k+1)/2).

    The main term only, not the count: it leaves out the diagonal solutions,
    which can outgrow it.  cubic8 lies outside the method's range: its
    diagonal solutions (about 24 N^4) swamp its N^2 main term.
    """
    delta = float(delta)
    if delta <= 0 or n < 1 or c_est <= 0 or s_trunc <= 0:
        raise BadParamsError("all inputs must be positive")
    s = system.arity
    k = system.degree
    return c_est * s_trunc * delta**s * float(n) ** (s - k * (k + 1) // 2)


def _equation_values(system: DiagonalSystem, pts: np.ndarray) -> np.ndarray:
    """L_j at each row of pts: shape (n, k); the Newton search's residual."""
    lam = np.asarray(system.coefficients, dtype=np.float64)
    out = np.empty((pts.shape[0], system.degree), dtype=np.float64)
    for j in range(1, system.degree + 1):
        out[:, j - 1] = (pts**j) @ lam
    return out


def _distinct_at_scale(values, tol: float) -> int:
    """Number of value clusters separated by gaps larger than tol.

    Near-singular Newton limits have coordinate gaps of order sqrt(residual),
    far below any macroscopic tol, so they collapse to fewer than k clusters.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return 1 + int(np.count_nonzero(np.diff(ordered) > tol))


def find_nonsingular_real_solution(
    system: DiagonalSystem, seed: int = 0
) -> Optional[np.ndarray]:
    """Newton search for a non-singular real solution in the open unit cube.

    Returns None when none of ``_NEWTON_ATTEMPTS`` random starts converges to
    a point with at least k distinct coordinates strictly inside (0, 1)^s;
    used as the existence gate for the singular-integral estimators.
    """
    s = system.arity
    k = system.degree
    if s < k:  # no point of R^s has k distinct coordinates
        return None
    rng = np.random.default_rng(seed)
    # a diverging start overflows to inf or nan, which the finiteness test
    # rejects; numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_ATTEMPTS):
            x = rng.uniform(0.1, 0.9, size=s)
            order = np.argsort(x)
            spread = np.linspace(0, s - 1, k).round().astype(int)
            free = sorted(order[spread].tolist())
            ok = False
            for _ in range(60):
                vals = _equation_values(system, x[None, :])[0]
                if np.max(np.abs(vals)) < 1e-13:
                    ok = True
                    break
                jac = np.array(jacobian_matrix(system, x, [i + 1 for i in free]))
                try:
                    step = np.linalg.solve(jac, vals)
                except np.linalg.LinAlgError:
                    break
                x[free] -= step
                if not np.all(np.isfinite(x)):
                    break
            if not ok:
                continue
            if np.any(x <= 1e-9) or np.any(x >= 1 - 1e-9):
                continue
            if _distinct_at_scale(x, 1e-4) >= k:
                return x
        return None


class CEstimate(NamedTuple):
    value: float
    spread: float
    method: str
    details: dict


def estimate_singular_integral_constant(
    system: DiagonalSystem,
    method: str,
    samples: int = 400_000,
    eps: float = 0.04,
    seed: int = 1,
    n_values: Sequence[int] = (16, 32),
    series_cutoff: int = 50,
    budget: Budget = DEFAULT_BUDGET,
) -> CEstimate:
    """Estimate the Archimedean density constant of the system.

    ``band_volume``: Monte Carlo measure of the slab {|L_j| <= eps for all j}
    in the unit cube, normalized by (2 eps)^k, at two eps levels with a
    Richardson-style extrapolation; the spread combines the level difference
    and the binomial sampling error.  Points are drawn 250,000 at a time and
    tested cheapest degree first: |L_1| on the whole chunk, then
    max(|L_1|, ..., |L_j|) for j = 2..k on the rows still within eps only (a
    few percent of them on cubic8).  A hit at eps/2 is a hit at eps, so only
    points that can never count are dropped.  The BLAS product of a surviving
    row may differ in its last bit from the same row inside the full chunk,
    so a hit can differ from forming every degree at every point only where
    some |L_j| lies within an ulp of eps or eps/2.

    ``count_ratio``: exact full-interval counts divided by the truncated
    singular series and the main-term power of N, across increasing N.
    """
    if method not in ("band_volume", "count_ratio"):
        raise BadParamsError(f"unknown method {method!r}")
    k = system.degree
    if method == "band_volume":
        # refuse before the Newton search of the gate below does any work
        budget.check_ops(samples * system.arity * k, "band volume sampling")
        # a chunk of points, its |L_1| and the slab test's temporaries
        budget.check_bytes(
            8 * min(_BAND_CHUNK, samples) * (system.arity + 3), "band volume points"
        )
    if find_nonsingular_real_solution(system, seed=seed) is None:
        raise NoRealSolutionError("no non-singular real solution in (0,1)^s was found")
    if method == "band_volume":
        lam = np.asarray(system.coefficients, dtype=np.float64)
        rng = np.random.default_rng(seed)
        hits = np.zeros(2, dtype=np.int64)
        done = 0
        while done < samples:
            take = min(_BAND_CHUNK, samples - done)
            pts = rng.random((take, system.arity))
            dev = np.abs(pts @ lam)
            inside = dev <= eps
            pts, dev = pts.compress(inside, axis=0), dev[inside]
            for j in range(2, k + 1):
                dev = np.maximum(dev, np.abs((pts**j) @ lam))
            hits[0] += int(np.count_nonzero(dev <= eps))
            hits[1] += int(np.count_nonzero(dev <= eps / 2))
            done += take
        vols = [
            hits[i] / samples / (2.0 * e) ** k
            for i, e in enumerate((eps, eps / 2.0))
        ]
        extrap = 2.0 * vols[1] - vols[0]
        stds = [
            math.sqrt(max(h, 1)) / samples / (2.0 * e) ** k
            for h, e in zip(hits.tolist(), (eps, eps / 2.0))
        ]
        spread = max(abs(vols[1] - vols[0]), 3.0 * stds[1])
        return CEstimate(
            value=extrap,
            spread=spread,
            method="band_volume",
            details={
                "eps_levels": [eps, eps / 2.0],
                "volumes": vols,
                "samples": samples,
                "seed": seed,
            },
        )
    exponent = system.arity - k * (k + 1) // 2
    s_tr = float(
        truncated_singular_series(system, series_cutoff, budget).partial_sum
    )
    ratios = []
    for n in n_values:
        tally = count_solutions(system, SetWindow.full(n), budget=budget)
        ratios.append(tally.total / float(n) ** exponent / s_tr)
    spread = max(ratios) - min(ratios) if len(ratios) > 1 else abs(ratios[0]) * 0.5
    return CEstimate(
        value=ratios[-1],
        spread=spread,
        method="count_ratio",
        details={
            "n_values": list(n_values),
            "ratios": ratios,
            "series_cutoff": series_cutoff,
            "series_value": s_tr,
        },
    )


class IncrementTrace(NamedTuple):
    steps: tuple[tuple[float, float], ...]  # (density, loglog ambient) per stage
    iterations_used: int
    outcome: str  # density_reached_one | ambient_below_Y | budget
    cumulative_exponent: float  # product of per-step ambient exponents
    threshold_loglog: float  # 1/(2 D_0), the small-density ambient threshold
    max_iterations_bound: float  # 1/D_0, iteration count guarantee


def increment_iteration(
    delta0, loglog_n0: float, y: int, k_const: Optional[IncrementConstant], s0: int
) -> IncrementTrace:
    """Iterate the density-increment recurrences on the (iterated-)log scale.

    Each stage multiplies the ambient exponent by D_r = K * delta_r^C
    (clamped at 1: a progression cannot outgrow its ambient interval) and
    raises the density by the same D_r, until the density reaches 1, the
    ambient interval drops below the minimal nontrivial-solution height Y,
    or ``_MAX_INCREMENT_STEPS`` stages have run (outcome ``budget``).

    With C = (s0 + 2) 2^gamma, log2 D_r = 2^gamma log2 x_r + shift for
    x_r = base delta_r^(s0 + 2).  If |log2 x_r| >= 2^-100, 2^gamma >= 2^1027
    clamps D_r at 1 or sends it below 2^(-2^927); closer to 1, x_r = 1 is
    decided exactly while delta_r is rational, and any other x_r is refused.
    """
    delta0 = Fraction(delta0)
    if not 0 < delta0 <= 1:
        raise BadParamsError("delta0 must be in (0, 1]")
    if y < 3:
        raise BadParamsError("Y must be >= 3")
    if k_const is None:  # the sheet was built without a CS value
        raise BadParamsError("K needs a CS value")
    base, gamma, shift = k_const
    with decimal.localcontext(_CTX):
        squarings, shift, log2_base = 2 ** Decimal(gamma), Decimal(shift), _log2(base)

        def step_log2(delta) -> Decimal:  # log2 D, clamped at 0
            log2_x = _CTX.fma(s0 + 2, _log2(delta), log2_base)
            if abs(log2_x) >= _CTX.power(2, -100):
                return (squarings * log2_x + shift).min(0)
            if isinstance(delta, Fraction) and base * delta ** (s0 + 2) == 1:
                return shift.min(0)
            raise ToleranceNotMetError(f"undecided: |log2 x| = {abs(log2_x):.3g} < 2^-100")

        delta, loglog, loglog_y = delta0, Decimal(loglog_n0), _CTX.ln(_CTX.ln(y))
        log2_d0 = step_log2(delta)
        steps = [(float(delta), float(loglog))]
        log2_cumulative, iterations, outcome = Decimal(0), 0, "budget"
        while delta < 1 and iterations < _MAX_INCREMENT_STEPS:
            log2_d = step_log2(delta)
            d_r = 2**log2_d
            if d_r:  # 0 past Decimal's range, where delta stays as it is
                num, den = delta.as_integer_ratio()
                delta = min(Decimal(num) / den + d_r, 1)
            loglog += _LN2 * log2_d
            log2_cumulative += log2_d
            iterations += 1
            steps.append((float(delta), float(loglog)))
            if delta < 1 and loglog < loglog_y:
                outcome = "ambient_below_Y"
                break
        outcome = "density_reached_one" if delta >= 1 else outcome
        return IncrementTrace(
            steps=tuple(steps),
            iterations_used=iterations,
            outcome=outcome,
            cumulative_exponent=float(2**log2_cumulative),
            threshold_loglog=float(2 ** (-1 - log2_d0)),
            max_iterations_bound=float((2**-log2_d0).to_integral_value(decimal.ROUND_CEILING)),
        )


class Progression(NamedTuple):
    start: int
    step: int
    length: int


def progression_concentration_search(
    window: SetWindow, min_length: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[Progression, Fraction]:
    """Exhaustive scan of arithmetic progressions of length >= min_length,
    returning one of maximal window density.  Ties go to the smallest step,
    then the smallest start, then the greatest length: the winner maximises
    the key (density, -step, -start, length).

    For each step d, prefix counts of the indicator along the residue classes
    mod d give the member counts of all starts at one length l as a single
    difference of two slices; the first maximum is that length's smallest
    densest start.  Densities are compared exactly, count * length' against
    count' * length in integers.  Summed over d there are about N ln N such
    slice differences of at most N entries, about N^2 ln N / 2 array
    operations, and the arrays of one step hold O(N) int64 entries.  The ops
    estimate is the number of entries formed, in closed form per step.
    """
    n = window.length
    if not 1 <= min_length <= n:
        raise BadParamsError("need 1 <= min_length <= N")
    max_step = max((n - 1) // (min_length - 1) if min_length > 1 else n - 1, 1)
    ops = 0
    for d in range(1, max_step + 1):
        # sum of N - (l - 1) d starts over l = min_length..top, and two prefix
        # arrays of fewer than N + 2d entries
        top = (n - 1) // d + 1
        ops += (top - min_length + 1) * (2 * n - d * (min_length + top - 2)) // 2
        ops += 2 * (n + 2 * d)
    budget.check_ops(ops, "progression search")
    # the largest step's padded indicator and its prefix counts (fewer than
    # n + 2d entries each) and one row of counts (n entries)
    budget.check_bytes(8 * (3 * n + 4 * max_step), "progression search")
    members = np.fromiter(map(int, window.bits()), dtype=np.int64, count=n)
    best_count, best_length, best = -1, 1, Progression(1, 1, 1)
    for step in range(1, max_step + 1):
        rows = -(-n // step) + 1
        padded = np.zeros(rows * step, dtype=np.int64)
        padded[step : step + n] = members
        # prefix[i]: members among the positions i - step, i - 2 step, ... >= 0,
        # so the progression from position p with l terms holds
        # prefix[p + l step] - prefix[p] members
        prefix = padded.reshape(rows, step).cumsum(axis=0).ravel()
        for length in range(min_length, (n - 1) // step + 2):
            starts = n - (length - 1) * step
            counts = prefix[length * step : length * step + starts] - prefix[:starts]
            p = int(counts.argmax())
            count = int(counts[p])
            lhs, rhs = count * best_length, best_count * length
            # steps rise, and lengths rise within a step: an equal density
            # wins only at the same step and a start no larger than the best's
            if lhs > rhs or (lhs == rhs and step == best.step and p + 1 <= best.start):
                best_count, best_length = count, length
                best = Progression(p + 1, step, length)
    return best, Fraction(best_count, best_length)
