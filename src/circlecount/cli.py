"""Command-line front end: files in, JSON or CSV out.

Outputs are byte-identical across reruns with the same configuration and
seed: every exact quantity is serialized losslessly (counts as decimal
strings, rationals as "p/q"), the result envelope echoes the configuration,
version and seed, and timing diagnostics go to stderr only.

Exit codes: 0 success, 2 budget refusal, 3 validation/parse error,
4 hypothesis violation (e.g. a singular Jacobian in lifting).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .budget import Budget
from .enumeration import (
    count_solutions,
    greedy_solution_free,
    stream_solutions,
    vinogradov_moment,
)
from .errors import (
    BadParamsError,
    BudgetExceededError,
    CircleCountError,
    HypothesisError,
    ParseError,
    ValidationError,
)
from .expsums import classify_arc, eval_E, eval_f, eval_g
from .gowers import GOWERS_DEFAULT_BUDGET, difference_sum_naive, uniformity_parameter
from .local import congruence_count, euler_factor, hensel_lift, truncated_singular_series
from .mainterm import (
    constants,
    estimate_singular_integral_constant,
    increment_iteration,
    predicted_count,
    progression_concentration_search,
)
from .system import load_system
from .windows import (
    SetWindow,
    format_set,
    load_set,
    progression_window,
    random_density_window,
    squares_window,
)


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def finite(text) -> float:
    """float(text), refused unless finite: the argparse type of every float
    option (argparse reports "invalid finite value") and of each entry of a
    phase list, where text may be a Fraction."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not finite")
    return x


def _parsed(parse, text: str):
    """parse(text), with a malformed or non-finite number as a ParseError."""
    try:
        return parse(text)
    except (ArithmeticError, ValueError) as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(
        _parsed(lambda t: finite(Fraction(t) if "/" in t else t), tok.strip())
        for tok in text.split(",")
    )


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(_parsed(int, tok.strip()) for tok in text.split(","))


def _window_from_args(args) -> SetWindow:
    if getattr(args, "set", None):
        return load_set(args.set)
    if getattr(args, "n", None) is not None:
        return SetWindow.full(args.n)
    raise BadParamsError("provide --set FILE or --n N")


def _config_echo(args) -> dict:
    # command has its own envelope field
    return {
        key: val for key, val in sorted(vars(args).items())
        if key not in ("func", "output", "command") and val is not None
    }


def _emit(args, result: dict, csv_rows=None, csv_fields=None, csv_footer=()) -> None:
    envelope = {
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "result": result,
    }
    if args.output == "csv":
        if csv_rows is None:
            # generic key/value rendering for commands without a row shape
            csv_fields = ["key", "value"]
            csv_rows = [
                (key, json.dumps(val) if isinstance(val, (dict, list)) else val)
                for key, val in result.items()
            ]
        buf = io.StringIO()
        buf.write(f"# version={__version__}\n")
        buf.write(f"# command={args.command}\n")
        for key, val in envelope["config"].items():
            buf.write(f"# {key}={val}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_fields)
        writer.writerows(csv_rows)
        for line in csv_footer:
            buf.write(f"# {line}\n")
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(json.dumps(envelope, indent=2) + "\n")


def cmd_validate(args, budget):
    system = load_system(args.system)
    _emit(
        args,
        {
            "valid": True,
            "k": system.degree,
            "s": system.arity,
            "lambda": list(system.coefficients),
        },
    )


def cmd_count(args, budget):
    system = load_system(args.system)
    window = _window_from_args(args)
    tally = count_solutions(system, window, method=args.method, budget=budget)
    _emit(args, tally.to_json_dict())


def cmd_stream(args, budget):
    system = load_system(args.system)
    window = _window_from_args(args)
    sols = [list(t) for t in stream_solutions(system, window, args.filter, budget)]
    rows = [tuple(t) for t in sols]
    fields = [f"x{i}" for i in range(1, system.arity + 1)]
    _emit(args, {"count": len(sols), "solutions": sols}, rows, fields)


def cmd_moment(args, budget):
    value = vinogradov_moment(args.n, args.k, args.t, budget)
    _emit(args, {"value": str(value)})


def cmd_gowers(args, budget):
    window = load_set(args.set)
    if args.budget is None:
        budget = GOWERS_DEFAULT_BUDGET  # the N^(k+1) evaluator's own ceiling
    rep = uniformity_parameter(window, args.degree, budget)
    result = {
        "difference_sum": _frac_str(rep.difference_sum),
        "parameter": _frac_str(rep.parameter),
        "n": window.length,
    }
    if args.naive_check:
        naive = difference_sum_naive(window, args.degree)
        result["naive_difference_sum"] = _frac_str(naive)
        result["naive_matches"] = naive == rep.difference_sum
    _emit(args, result)


def cmd_expsum(args, budget):
    alpha = _parse_floats(args.alpha)
    if args.which == "g":
        if args.n is None:
            raise BadParamsError("expsum g needs --n")
        val = eval_g(args.n, alpha)
    else:
        window = _window_from_args(args)
        val = eval_f(window, alpha) if args.which == "f" else eval_E(window, alpha)
    _emit(args, {"re": val.real, "im": val.imag, "abs": abs(val)})


def cmd_arcs(args, budget):
    label = classify_arc(_parse_floats(args.alpha), args.n, args.k, args.arc_exponent, budget)
    result = {"member": label is not None}
    if label is not None:
        result.update(q=label.q, a=list(label.numerators), beta=list(label.beta))
    _emit(args, result)


def cmd_series(args, budget):
    system = load_system(args.system)
    trunc = truncated_singular_series(system, args.qmax, budget, method=args.method)
    rows = [
        (t.q, _frac_str(t.value), t.method,
         "" if t.residual is None else repr(t.residual))
        for t in trunc.terms
    ]
    result = {
        "cutoff": trunc.cutoff,
        "partial_sum": _frac_str(trunc.partial_sum),
        "partial_sum_float": float(trunc.partial_sum),
        "terms": [
            {
                "q": t.q,
                "value": _frac_str(t.value),
                "method": t.method,
                "residual": t.residual,
                "tail_reference": t.tail_reference,
            }
            for t in trunc.terms
        ],
    }
    _emit(
        args,
        result,
        rows,
        ["q", "S_q", "method", "residual"],
        csv_footer=[
            f"cumulative={_frac_str(trunc.partial_sum)}",
            f"cumulative_float={float(trunc.partial_sum)!r}",
        ],
    )


def cmd_local(args, budget):
    system = load_system(args.system)
    if args.q is not None:
        cc = congruence_count(system, args.q, budget)
        _emit(args, {"q": cc.modulus, "count": str(cc.count)})
        return
    if args.prime is None:
        raise BadParamsError("local needs --q or --prime")
    rep = euler_factor(system, args.prime, args.hmax, budget)
    _emit(
        args,
        {
            "prime": rep.prime,
            "h_max": rep.h_max,
            "partial_sum": _frac_str(rep.partial_sum),
            "series_terms": [_frac_str(v) for v in rep.series_terms],
            "normalized_counts": [_frac_str(v) for v in rep.normalized_counts],
            "stabilization_gap": _frac_str(rep.stabilization_gap),
        },
    )


def cmd_lift(args, budget):
    system = load_system(args.system)
    seed = _parse_ints(args.seed_values)
    free = _parse_ints(args.free) if args.free else None
    lift = hensel_lift(system, seed, args.p, args.t, free_indices=free)
    _emit(
        args,
        {
            "prime": lift.prime,
            "level": lift.level,
            "modulus": str(lift.prime**lift.level),
            "values": list(lift.values),
            "certified": lift.certified,
            "free_indices": list(lift.free_indices),
            "u": lift.u,
        },
    )


def cmd_constants(args, budget):
    sheet = constants(args.k, cs_value=args.cs, bracket=args.bracket)
    _emit(
        args,
        {
            "k": sheet.k,
            "s0": sheet.s0,
            "sigma": sheet.sigma,
            "delta": sheet.delta_exp,
            "gamma": sheet.gamma.to_json_dict(),
            "K_const": sheet.K_const and sheet.K_const.as_big_log().to_json_dict(),
            "C": sheet.C_exp.to_json_dict(),
            "c": sheet.c_exp.to_json_dict(),
            "notes": list(sheet.notes),
        },
    )


def cmd_predict(args, budget):
    system = load_system(args.system)
    method = "band_volume" if args.cs_method == "band" else "count_ratio"
    est = estimate_singular_integral_constant(
        system,
        method,
        seed=args.seed,
        series_cutoff=args.qmax,
        budget=budget,
    )
    s_trunc = est.details.get("series_value")  # the ratio estimator's, same cutoff
    if s_trunc is None:
        s_trunc = float(
            truncated_singular_series(system, args.qmax, budget).partial_sum
        )
    predicted = predicted_count(system, args.delta, args.n, est.value, s_trunc)
    _emit(
        args,
        {
            "predicted": predicted,
            "c_estimate": est.value,
            "c_spread": est.spread,
            "c_method": est.method,
            "series_truncation": s_trunc,
            "delta": args.delta,
            "n": args.n,
        },
    )


def cmd_increment(args, budget):
    sheet = constants(args.k, cs_value=args.cs)
    trace = increment_iteration(
        _parsed(Fraction, args.delta), args.loglogn, args.y, sheet.K_const, sheet.s0
    )
    _emit(
        args,
        {
            "outcome": trace.outcome,
            "iterations_used": trace.iterations_used,
            "cumulative_exponent": trace.cumulative_exponent,
            "threshold_loglog": trace.threshold_loglog,
            "max_iterations_bound": trace.max_iterations_bound,
            "steps": [list(p) for p in trace.steps],
        },
    )


def cmd_concentrate(args, budget):
    window = load_set(args.set)
    prog, density = progression_concentration_search(window, args.min_len, budget)
    _emit(
        args,
        {
            "start": prog.start,
            "step": prog.step,
            "length": prog.length,
            "density": _frac_str(density),
            "density_float": float(density),
        },
    )


def cmd_gen_set(args, budget):
    if args.kind == "random_density":
        if args.density is None:
            raise BadParamsError("random_density needs --density")
        window = random_density_window(args.n, args.density, args.seed)
    elif args.kind == "squares":
        window = squares_window(args.n)
    elif args.kind == "progression":
        if args.start is None or args.step is None:
            raise BadParamsError("progression needs --start and --step")
        window = progression_window(args.n, args.start, args.step)
    else:  # greedy_free, the last of the parser's choices
        if not args.system:
            raise BadParamsError("greedy_free needs --system")
        system = load_system(args.system)
        window = greedy_solution_free(system, args.n, budget)
    sys.stdout.write(format_set(window, form=args.form))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlecount",
        description="Exact counting and circle-method diagnostics for diagonal systems.",
    )
    parser.add_argument("--output", choices=["json", "csv"], default="json")
    parser.add_argument("--budget", type=int, default=None, help="elementary-operation budget")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a system file")
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("count", help="count solutions in a window")
    p.add_argument("--system", required=True)
    p.add_argument("--set")
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=["naive", "mitm", "auto"], default="auto")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("stream", help="stream solutions in lexicographic order")
    p.add_argument("--system", required=True)
    p.add_argument("--set")
    p.add_argument("--n", type=int)
    p.add_argument("--filter", choices=["all", "nontrivial"], default="all")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("moment", help="Vinogradov-type even moment count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("gowers", help="degree-k uniformity of a set")
    p.add_argument("--set", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--naive-check", action="store_true")
    p.set_defaults(func=cmd_gowers)

    p = sub.add_parser("expsum", help="evaluate f, g or E at a phase point")
    p.add_argument("which", choices=["f", "g", "E"])
    p.add_argument("--alpha", required=True, help="a1,...,ak (ascending degree)")
    p.add_argument("--set")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("arcs", help="major/minor arc classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True, help="a1,...,ak (ascending degree)")
    p.add_argument("--arc-exponent", type=finite, default=None)
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("series", help="truncated singular series")
    p.add_argument("--system", required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--method", choices=["moebius", "both"], default="moebius")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("local", help="congruence counts and Euler factors")
    p.add_argument("--system", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--prime", type=int)
    p.add_argument("--hmax", type=int, default=2)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("lift", help="Hensel-lift a seed solution")
    p.add_argument("--system", required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument(
        "--seed", dest="seed_values", required=True, help="v1,...,vs mod p"
    )
    p.add_argument("--free", help="i1,...,ik free variable positions")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("constants", help="constant sheet for degree k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cs", type=finite, default=None)
    p.add_argument("--bracket", choices=["floor", "trunc"], default="floor")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("predict", help="main-term prediction for a window density")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--cs-method", choices=["band", "ratio"], default="band")
    p.add_argument("--delta", type=finite, default=1.0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("increment", help="density-increment iteration trace")
    p.add_argument("--delta", required=True)
    p.add_argument("--loglogn", type=finite, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cs", type=finite, default=4.0)
    p.set_defaults(func=cmd_increment)

    p = sub.add_parser("concentrate", help="densest long arithmetic progression")
    p.add_argument("--set", required=True)
    p.add_argument("--min-len", type=int, required=True)
    p.set_defaults(func=cmd_concentrate)

    p = sub.add_parser("gen-set", help="generate a set file on stdout")
    p.add_argument(
        "--kind",
        choices=["random_density", "squares", "progression", "greedy_free"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=finite)
    p.add_argument("--start", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--system")
    p.add_argument("--form", choices=["list", "mask"], default="list")
    p.set_defaults(func=cmd_gen_set)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 3 if exc.code == 2 else exc.code
    budget = Budget() if args.budget is None else Budget(max_ops=args.budget)
    start = time.monotonic()
    try:
        args.func(args, budget)
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 4
    except CircleCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.monotonic() - start
        print(f"wall_time_s {elapsed:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
