"""Output checks, run outside the timed section.

Exact parts (counts, Fractions, lifts, exact envelope fields) must equal the
reference recorded for the input seed, and float parts must equal the
recorded floats to a relative 1e-9.  The values of a job's ``oracle`` entry
are compared with an oracle instead, which uses only Python integers,
Fractions and math, never the library:

* exponential sums reduce every phase exactly, as the integer m*x^j mod 2^e
  of the dyadic rational alpha_j = m/2^e, before any trigonometry, and sum
  the terms with math.fsum.  Tolerance: 1e-6 * N, a millionth of the trivial
  bound |g| <= N; the oracle's own error is a few 1e-16 per term;
* arc offsets must equal alpha - a/q exactly, up to 1e-12 of float
  rounding;
* the direct-route series residuals must stay below 1e-9.

A failed float check fails the job.  A failed exact check or an exception
also makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

G_TOL = 1e-6  # times N
REF_RTOL = 1e-9
OFFSET_TOL = 1e-12
RESIDUAL_TOL = 1e-9


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a: float, b: float, rtol: float = REF_RTOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def exact_phase_sum(n: int, alpha, weights=None) -> complex:
    """sum_{x=1..n} w(x) e(alpha_1 x + ... + alpha_k x^k) with exact phases."""
    fracs = [Fraction(a) % 1 for a in alpha]
    den = 1
    for f in fracs:
        den = max(den, f.denominator)  # dyadic: the largest is a common multiple
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    re, im = [], []
    for x in range(1, n + 1):
        acc = 0
        for m in reversed(nums):
            acc = (acc + m) * x
        w = 1.0 if weights is None else weights[x - 1]
        t = 2.0 * math.pi * ((acc % den) / den)
        re.append(w * math.cos(t))
        im.append(w * math.sin(t))
    return complex(math.fsum(re), math.fsum(im))


def _g_values(n: int, phases, values) -> list[str]:
    problems = []
    for i, alpha in enumerate(phases):
        got = complex(values[2 * i], values[2 * i + 1])
        err = abs(got - exact_phase_sum(n, alpha))
        if err > G_TOL * n:
            problems.append(f"g(N={n}, alpha#{i}) off by {err:.3g} > {G_TOL * n:.3g}")
    return problems


def _oracle_eval_g(values, spec) -> list[str]:
    return _g_values(spec["n"], spec["phases"], values)


def _oracle_major_arc_g(values, spec) -> list[str]:
    q, n = spec["q"], spec["n"]
    alpha = [a / q + b for a, b in zip(spec["a"], spec["beta"])]
    return _g_values(n, [alpha], values)


def _oracle_weyl(values, spec) -> list[str]:
    n = spec["n"]
    mask = int(spec["mask"], 16)
    card = bin(mask).count("1")
    weights = [card / n - (mask >> (x - 1) & 1) for x in range(1, n + 1)]
    p = 2 ** (spec["degree"] + 1)
    bound = 2.0 * float(Fraction(spec["parameter"])) ** (1.0 / p) * n
    ratio = max(abs(exact_phase_sum(n, a, weights)) / bound for a in spec["phases"])
    if abs(ratio - values[0]) > G_TOL * n / bound:
        return [f"Weyl max ratio {values[0]!r} vs oracle {ratio!r}"]
    return []


def _oracle_arc_offsets(values, spec) -> list[str]:
    problems = []
    it = iter(values)
    for alpha, label in zip(spec["phases"], spec["labels"]):
        if label is None:
            continue
        q, nums = label
        for a, num in zip(alpha, nums):
            d = Fraction(a) - Fraction(num, q)
            d -= round(d)
            beta = next(it)
            if abs(beta - float(d)) > OFFSET_TOL:
                problems.append(f"arc offset {beta!r} != alpha - a/q = {float(d)!r}")
    return problems


def _oracle_series_residuals(values, spec) -> list[str]:
    bad = [r for r in values if not r <= RESIDUAL_TOL]
    return [f"{len(bad)} direct-route residuals above {RESIDUAL_TOL}"] if bad else []


ORACLES = {
    "eval_g": _oracle_eval_g,
    "major_arc_g": _oracle_major_arc_g,
    "weyl_max_ratio": _oracle_weyl,
    "arc_offsets": _oracle_arc_offsets,
    "series_residuals": _oracle_series_residuals,
}


def reference_entry(out: dict) -> dict:
    """What the reference file keeps of one job's encoded output."""
    return {"exact": digest(out.get("exact")), "floats": out.get("floats", [])}


def check_job(out: dict, ref) -> tuple[bool, list[str]]:
    """Return (exact part correct, problems) for one job's encoded output."""
    if out.get("error"):
        return False, [out["error"]]
    if ref is None:
        return False, ["no reference recorded"]
    if digest(out.get("exact")) != ref["exact"]:
        return False, ["exact result differs from the reference"]
    problems = []
    floats, ref_floats = out.get("floats", []), ref["floats"]
    if len(floats) != len(ref_floats) or not all(map(_close, floats, ref_floats)):
        problems.append("floats differ from the reference")
    oracle = out.get("oracle")
    if oracle is not None:
        problems += ORACLES[oracle["kind"]](oracle["values"], oracle)
    return True, problems
