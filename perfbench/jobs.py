"""Workload definitions: the seeded inputs and the jobs one sweep runs.

A job is one library call (or one batch of calls named together in the
README).  ``run`` is the timed part.  ``encode`` runs after the timed section
and splits the result into an ``exact`` part and ``floats``, both compared
with the recorded reference, and the ``oracle`` values with the inputs that
checks.py needs to recompute them independently.

Inputs depend only on the input seed, which is the benchmark seed modulo
SEED_CYCLE: references are recorded for every input seed in the cycle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

SEED_CYCLE = 32

# the two systems of the sweeps: s=6, k=2 and s=8, k=3, both symmetric
QUAD6 = (2, (1, 1, 1, -1, -1, -1))
CUBIC8 = (3, (1, 1, 1, 1, -1, -1, -1, -1))

ARC_N = 10**6
ARC_EXPONENT = 0.4
G_N = 10**5


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    encode: Callable[[Any], dict]


def input_seed(seed: int) -> int:
    return seed % SEED_CYCLE


def rng(seed: int, tag: str) -> random.Random:
    # string seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{seed}:{tag}")


def density_window(cc, n: int, seed: int, tag: str, size: Optional[int] = None):
    """Seeded random_density_window(n, 1/2); with ``size``, redrawn until it
    has exactly that many elements, so the counting work is the same for
    every seed."""
    r = rng(seed, tag)
    while True:
        window = cc.random_density_window(n, 0.5, r.getrandbits(32))
        if size is None or window.cardinality == size:
            return window


def hensel_seed(r: random.Random, p: int) -> list[int]:
    """A solution mod p of x1+x2+x3 = x4+x5+x6 and the same in squares,
    with at least two distinct residues, so the Jacobian on the first two
    distinct-residue variables is a unit mod an odd prime."""
    while True:
        x = [r.randrange(p) for _ in range(4)]
        lin = (x[0] + x[1] + x[2] - x[3]) % p
        sq = (x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - x[3] ** 2) % p
        tails = [
            (u, v)
            for u in range(p)
            for v in range(p)
            if (u + v - lin) % p == 0 and (u * u + v * v - sq) % p == 0
        ]
        if tails:
            seed = x + list(r.choice(tails))
            if len(set(seed)) >= 2:
                return seed


def near_rational_phase(r: random.Random, k: int, qmax: int) -> tuple[float, ...]:
    """A phase inside the major-arc box of a random a/q with q <= qmax."""
    q = r.randint(1, qmax)
    return tuple(
        (r.randrange(q) / q + r.uniform(-0.9, 0.9) * ARC_N ** (ARC_EXPONENT - j) / q) % 1.0
        for j in range(1, k + 1)
    )


def _label(label) -> tuple[Any, list[float]]:
    if label is None:
        return None, []
    return [label.q, list(label.numerators)], list(label.beta)


def _complex(z: complex) -> list[float]:
    return [z.real, z.imag]


def count_sweep(cc, seed: int) -> list[Job]:
    quad6 = cc.validate_system(*QUAD6)
    cubic8 = cc.validate_system(*CUBIC8)
    rand200 = density_window(cc, 200, seed, "count200", size=100)
    rand24 = density_window(cc, 24, seed, "stream24", size=12)
    full = cc.SetWindow.full

    def tally(t) -> dict:
        return {"exact": t.to_json_dict()}

    return [
        Job("mitm_s6k2_n60", lambda: cc.count_solutions(quad6, full(60), "mitm"), tally),
        Job("mitm_s8k3_n30", lambda: cc.count_solutions(cubic8, full(30), "mitm"), tally),
        Job("mitm_s6k2_rand200", lambda: cc.count_solutions(quad6, rand200, "mitm"), tally),
        Job("naive_s6k2_n13", lambda: cc.count_solutions(quad6, full(13), "naive"), tally),
        Job("greedy_s6k2_n40", lambda: cc.greedy_solution_free(quad6, 40),
            lambda w: {"exact": f"{w.mask:x}"}),
        Job("moment_n100_k2_t3", lambda: cc.vinogradov_moment(100, 2, 3),
            lambda m: {"exact": str(m)}),
        Job("stream_nontrivial_rand24",
            lambda: list(cc.stream_solutions(quad6, rand24, "nontrivial")),
            lambda sols: {"exact": [list(s) for s in sols]}),
    ]


def uniformity_weyl(cc, seed: int) -> list[Job]:
    jobs = []
    for k, n in ((2, 512), (2, 768), (3, 64), (3, 100)):
        window = density_window(cc, n, seed, f"gowers{n}")
        jobs.append(
            Job(f"difference_sum_k{k}_n{n}",
                lambda w=window, k=k: cc.difference_sum(w, k),
                lambda ds: {"exact": str(ds)})
        )
    weyl = density_window(cc, 4096, seed, "weyl4096")
    r = rng(seed, "weyl")
    phases = [(r.random(),) for _ in range(300)]

    def weyl_encode(rep) -> dict:
        return {
            "exact": [str(rep.parameter), rep.samples, rep.chain_holds, rep.supnorm_holds],
            "oracle": {"kind": "weyl_max_ratio", "values": [rep.max_ratio], "n": weyl.length,
                       "mask": f"{weyl.mask:x}", "parameter": str(rep.parameter),
                       "degree": 1, "phases": phases},
        }

    jobs.append(Job("weyl_chain_n4096_k1", lambda: cc.weyl_chain_check(weyl, 1, phases),
                    weyl_encode))
    conc = density_window(cc, 300, seed, "progression300")
    jobs.append(
        Job("progression_search_n300",
            lambda: cc.progression_concentration_search(conc, 10),
            lambda res: {"exact": [res[0].start, res[0].step, res[0].length, str(res[1])]})
    )
    return jobs


def major_arcs_local(cc, seed: int) -> list[Job]:
    quad6 = cc.validate_system(*QUAD6)
    cubic8 = cc.validate_system(*CUBIC8)
    r = rng(seed, "local")
    lifts = []
    for _ in range(50):
        p = r.choice((5, 7, 11, 13))
        lifts.append((hensel_seed(r, p), p, r.randint(8, 16)))
    arcs = [near_rational_phase(r, 2, 60) if i % 2 else (r.random(), r.random())
            for i in range(500)]
    g_phases = [(r.random(), r.random(), r.random()) for _ in range(20)]

    def series_encode(tr) -> dict:
        return {"exact": [str(tr.partial_sum)] + [str(t.value) for t in tr.terms]}

    def both_encode(tr) -> dict:
        return {
            "exact": [str(tr.partial_sum)] + [[str(t.value), t.method] for t in tr.terms],
            "oracle": {"kind": "series_residuals",
                       "values": [t.residual for t in tr.terms]},
        }

    def euler_encode(rep) -> dict:
        return {"exact": [str(rep.partial_sum), str(rep.stabilization_gap)]
                + [str(v) for v in rep.series_terms + rep.normalized_counts]}

    def arcs_encode(labels) -> dict:
        parts = [_label(lab) for lab in labels]
        return {
            "exact": [p[0] for p in parts],
            "oracle": {"kind": "arc_offsets", "values": [b for p in parts for b in p[1]],
                       "phases": arcs,
                       "labels": [p[0] for p in parts]},
        }

    def approx_encode(rep) -> dict:
        return {
            "floats": _complex(rep.approx_value) + [rep.ratio],
            "oracle": {"kind": "major_arc_g", "values": _complex(rep.g_value),
                       "n": 500, "q": 3, "a": [0, 1],
                       "beta": [1e-5, 1e-8]},
        }

    def g_encode(values) -> dict:
        return {
            "oracle": {"kind": "eval_g", "values": [x for z in values for x in _complex(z)],
                       "n": G_N, "phases": g_phases},
        }

    def band_encode(est) -> dict:
        return {"exact": est.method, "floats": [est.value, est.spread]}

    return [
        Job("series_s8k3_q60", lambda: cc.truncated_singular_series(cubic8, 60),
            series_encode),
        Job("series_both_s6k2_q30",
            lambda: cc.truncated_singular_series(quad6, 30, method="both"), both_encode),
        Job("euler_s6k2_p7_h2", lambda: cc.euler_factor(quad6, 7, 2), euler_encode),
        Job("hensel_lift_x50",
            lambda: [cc.hensel_lift(quad6, s, p, t) for s, p, t in lifts],
            lambda res: {"exact": [list(x.values) + list(x.free_indices) for x in res]}),
        Job("classify_arc_x500",
            lambda: [cc.classify_arc(a, ARC_N, 2, ARC_EXPONENT) for a in arcs],
            arcs_encode),
        Job("major_arc_approx_n500",
            lambda: cc.major_arc_approx_check(500, 3, (0, 1), (1e-5, 1e-8)),
            approx_encode),
        Job("eval_g_n1e5_k3_x20", lambda: [cc.eval_g(G_N, a) for a in g_phases], g_encode),
        Job("band_volume_s8k3",
            lambda: cc.estimate_singular_integral_constant(cubic8, "band_volume", seed=seed),
            band_encode),
    ]


LIBRARY = {
    "count_sweep": count_sweep,
    "uniformity_weyl": uniformity_weyl,
    "major_arcs_local": major_arcs_local,
}
WORKLOADS = tuple(LIBRARY) + ("cli_mix",)


def write_cli_inputs(cc, seed: int, directory: Path) -> dict[str, str]:
    """Write the system and set files of the CLI sweep; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "system": directory / "quad6.json",
        "set64": directory / "set64.txt",
        "set100": directory / "set100.txt",
    }
    files["system"].write_text(json.dumps({"k": QUAD6[0], "lambda": list(QUAD6[1])}))
    for name, n in (("set64", 64), ("set100", 100)):
        files[name].write_text(cc.format_set(density_window(cc, n, seed, f"cli{n}")))
    return {name: str(path) for name, path in files.items()}


def cli_commands(seed: int, files: dict[str, str]) -> list[tuple[str, list[str]]]:
    """The 13 toy CLI invocations; global flags come before the subcommand."""
    r = rng(seed, "cli")
    lift = ",".join(map(str, hensel_seed(r, 5)))
    arc = ",".join(map(repr, near_rational_phase(r, 2, 20)))
    alpha = ",".join(repr(r.random()) for _ in range(2))
    system = files["system"]
    return [
        ("validate", ["validate", "--system", system]),
        ("count", ["count", "--system", system, "--n", "7"]),
        ("lift", ["lift", "--system", system, "-p", "5", "-t", "3", "--seed", lift]),
        ("constants", ["constants", "--k", "2", "--cs", "4"]),
        ("arcs", ["arcs", "--n", str(ARC_N), "--k", "2", "--alpha", arc,
                  "--arc-exponent", str(ARC_EXPONENT)]),
        ("expsum", ["expsum", "g", "--n", "1000", "--alpha", alpha]),
        ("series", ["series", "--system", system, "--qmax", "20"]),
        ("gowers", ["gowers", "--set", files["set64"], "--degree", "2"]),
        ("moment", ["moment", "--n", "20", "--k", "2", "--t", "3"]),
        ("local", ["local", "--system", system, "--q", "12"]),
        ("increment", ["increment", "--delta", "1/2", "--loglogn", "100", "--y", "3",
                       "--k", "2"]),
        ("concentrate", ["concentrate", "--set", files["set100"], "--min-len", "5"]),
        ("predict", ["--seed", str(seed), "predict", "--system", system, "--n", "1000",
                     "--qmax", "20"]),
    ]


def split_envelope(command: str, args: list[str], envelope: dict) -> dict:
    """Exact and float leaves of a CLI result envelope, in document order."""
    floats: list[float] = []

    def walk(node):
        if isinstance(node, float):
            floats.append(node)
            return "<float>"
        if isinstance(node, dict):
            return {key: walk(val) for key, val in node.items()}
        if isinstance(node, list):
            return [walk(val) for val in node]
        return node

    out = {"exact": walk(envelope), "floats": floats}
    if command == "expsum":
        alpha = [float(tok) for tok in args[args.index("--alpha") + 1].split(",")]
        result = envelope["result"]
        out["oracle"] = {"kind": "eval_g", "values": [result["re"], result["im"]],
                         "n": int(args[args.index("--n") + 1]), "phases": [alpha]}
    return out
