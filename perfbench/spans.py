"""Per-layer spans, recorded from outside the library.

A traced run replaces each public function listed in LAYERS, in every
``circlecount`` module namespace that binds it, with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Nested library
calls (``local.complete_sum`` inside ``series_term_direct``, say) therefore
become child spans.  Spans stay in memory until the run ends.

Run as a script, it is the traced CLI launcher used by the ``cli_mix``
workload:

    python perfbench/spans.py SPANS.json <circlecount CLI arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = {
    "enumeration": ("count_solutions", "trivial_count", "vinogradov_moment",
                    "greedy_solution_free", "stream_solutions"),
    "gowers": ("difference_sum", "uniformity_parameter", "weyl_chain_check"),
    "expsums": ("eval_E", "eval_g", "complete_sum", "classify_arc", "oscillatory_w",
                "major_arc_approx_check"),
    "local": ("congruence_count", "series_term_moebius", "series_term_direct",
              "truncated_singular_series", "euler_factor", "hensel_lift"),
    "mainterm": ("estimate_singular_integral_constant", "progression_concentration_search"),
    "windows": ("random_density_window",),
}


# Work counts computed from the inputs of one call, for the rate metrics.
def _mitm_keys(system, window, method="auto", budget=None):
    if method != "mitm":
        return None
    return 2 * window.cardinality ** math.ceil(system.arity / 2)


def _dp_cells(system, q, budget=None):
    # (distinct-modulus key, DP cells) -- the cache key of congruence_count
    return (f"{system.coefficients}/{system.degree}/{q}",
            system.arity * q ** (system.degree + 1))


WORK = {
    "enumeration.count_solutions": _mitm_keys,
    "gowers.difference_sum": lambda window, degree, budget=None: window.length ** (degree + 1),
    "expsums.eval_E": lambda window, alpha: window.length,
    "local.congruence_count": _dp_cells,
}

CLI_COMMANDS = ("validate", "count", "lift", "constants", "arcs", "expsum", "series",
                "gowers", "moment", "local", "increment", "concentrate", "predict")

COMPUTED = {
    "enumeration.count_solutions.keys_per_s": ("keys/s", "higher"),
    "gowers.difference_sum.work_per_s": ("ops/s", "higher"),
    "expsums.eval_E.terms_per_s": ("terms/s", "higher"),
    "local.congruence_count.dp_cells": ("cells", "lower"),
    "local.congruence_count.repeat_frac": ("ratio", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for module, names in LAYERS.items():
        for fname in names:
            out[f"{module}.{fname}.busy_s"] = ("s", "lower")
            out[f"{module}.{fname}.self_s"] = ("s", "lower")
            out[f"{module}.{fname}.calls"] = ("count", "lower")
    out.update(COMPUTED)
    out["cli.interpreter_s"] = ("s", "lower")
    out["cli.import_s"] = ("s", "lower")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.p50_s"] = ("s", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


class Recorder:
    """Span list of one process: [name, start, end, parent index, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def install(self) -> None:
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "circlecount" or name.startswith("circlecount.")]
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"circlecount.{module}")
            for fname in names:
                original = getattr(mod, fname)
                wrapped = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        setattr(ns, fname, wrapped)

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn)

        def enter(args, kwargs) -> list:
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            if work is not None:
                span[4] = work(**sig.bind(*args, **kwargs).arguments)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            return span

        def leave(span: list) -> None:
            span[2] = time.perf_counter()
            self._open.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = enter(args, kwargs)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    leave(span)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(span)
        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """busy_s, self_s and calls per function, plus the computed work rates.

    ``spans`` may concatenate several processes' lists as long as parent
    indices point into the same concatenated list.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    work_time: dict[str, float] = defaultdict(float)
    moduli: dict = {}
    q_calls = 0
    for i, (name, start, end, parent, w) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        if name == "local.congruence_count":
            moduli[w[0]] = w[1]
            q_calls += 1
        elif w is not None:
            work[name] += w
            work_time[name] += end - start
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.calls"] = calls[name]
    rates = (("enumeration.count_solutions", "keys_per_s"),
             ("gowers.difference_sum", "work_per_s"),
             ("expsums.eval_E", "terms_per_s"))
    for name, metric in rates:
        if work_time[name] > 0:
            out[f"{name}.{metric}"] = work[name] / work_time[name]
    if q_calls:
        out["local.congruence_count.dp_cells"] = sum(moduli.values())
        out["local.congruence_count.repeat_frac"] = 1 - len(moduli) / q_calls
    return out


def dump(spans: list[list], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(spans, fh)


def load(path: str, offset: int = 0) -> list[list]:
    """Spans written by ``dump``, parent indices shifted by ``offset``."""
    with open(path) as fh:
        raw = json.load(fh)
    return [[n, s, e, p + offset if p >= 0 else -1, w] for n, s, e, p, w in raw]


def main(argv: list[str]) -> int:
    import circlecount.cli

    recorder = Recorder()
    recorder.install()
    try:
        return circlecount.cli.main(argv[1:])
    finally:
        dump(recorder.spans, argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
