"""circlecount benchmark: one command, checked outputs, metrics by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each timed sweep runs in a fresh
interpreter with ``src/`` on PYTHONPATH, so module caches start cold as they
do for a CLI user; the package need not be installed.  Sweeps repeat until
``--seconds`` is used up (at least MIN_SWEEPS of them) and every time metric
is the median over the sweeps, each time read at the reference host speed of
speed.py.  Outputs are checked after the timed sections (see checks.py).  The
last line of stdout is the result object; the line before it, starting with
``# record``, holds the machine, the library versions, the per-sweep samples
(raw times and speed factors) and any check failures.  Work files,
the record and the spans of a traced run go to ``.bench_build/``.

With ``--trace 1`` the run prints the per-layer metrics instead of the
end-to-end ones.  It first measures the CLI layer (on a library workload,
CLI_LAYER_SWEEPS untraced ``cli_mix`` sweeps; on every workload, the
interpreter and import probes), then alternates untraced and traced sweeps
of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import jobs
import spans
import speed

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = Path(".bench_build")  # relative: CLI envelopes echo input paths
REFS = HERE / "refs"
MIN_SWEEPS = 3  # 4 when traced: two untraced and two traced
CLI_LAYER_SWEEPS = 2
CHILD_TIMEOUT_S = 150
PROBES = 5  # spawns behind cli.interpreter_s and cli.import_s
CLI_SETUPS = 25  # input writes per cli_mix sweep; one takes 0.5-2.5 ms


@dataclass
class Sweep:
    """One sweep; its times are read at the reference speed (speed.py)."""
    workload: str
    traced: bool
    raw_wall_s: float = float("nan")  # as measured
    factor: float = float("nan")  # wall_s / raw_wall_s
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    rss_mib: float = float("nan")
    invokes: list[float] = field(default_factory=list)
    job_s: dict[str, float] = field(default_factory=dict)
    jobs: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPYCACHEPREFIX", None)  # .pyc files stay beside their sources
    return env


def spawn(argv: list[str], log: Path, env: dict,
          pass_fds: tuple[int, ...] = ()) -> tuple[float, int, float]:
    """Run a child to its end: (seconds from spawn to exit, exit code, peak RSS MiB).

    stdout goes to ``log``, stderr to ``log`` + ".err".  os.wait4 gives the
    child's own resource usage; a child still running after CHILD_TIMEOUT_S
    is killed.
    """
    with open(log, "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                pass_fds=pass_fds)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def _tail(path: str) -> str:
    with open(path, errors="replace") as fh:
        return fh.read()[-400:]


def warm_up(env: dict) -> None:
    """Untimed: write the .pyc files and load the shared libraries once."""
    for argv in ([sys.executable, "-m", "compileall", "-q", "src/circlecount", str(HERE)],
                 [sys.executable, "-c", "import circlecount.cli"]):
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)


def library_sweep(workload: str, seed: int, traced: bool, index: int, env: dict,
                  sampler: speed.Sampler) -> Sweep:
    out = WORK / f"{workload}-{index}.json"
    spawn_time = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            "1" if traced else "0", repr(spawn_time), str(out),
            *map(str, sampler.fds)]
    log = out.with_suffix(".log")
    elapsed, code, rss = spawn(argv, log, env, sampler.fds)
    sweep = Sweep(workload, traced, rss_mib=rss)
    if code != 0:
        error = f"worker exit code {code}: {_tail(f'{log}.err')}"
        sweep.jobs = [{"name": "worker", "error": error}]
        return sweep
    with open(out) as fh:
        record = json.load(fh)
    sweep.jobs = record["jobs"]
    raw = [out.pop("seconds") for out in sweep.jobs]
    points = record["points"]
    factors = speed.job_factors(points)
    sweep.job_s = {out["name"]: t * f for out, t, f in zip(sweep.jobs, raw, factors)}
    sweep.raw_wall_s = sum(raw)
    sweep.wall_s = sum(sweep.job_s.values())
    sweep.factor = sweep.wall_s / sweep.raw_wall_s
    sweep.setup_s = record["setup_s"] * speed.setup_factor(points)
    sweep.invokes = [(elapsed - record["sampling_s"]) * sweep.factor]
    sweep.spans = record["spans"] or []
    return sweep


def cli_sweep(cc, seed: int, traced: bool, index, env: dict,
              sampler: speed.Sampler) -> Sweep:
    setups = []
    for _ in range(CLI_SETUPS):
        start = time.monotonic()
        files = jobs.write_cli_inputs(cc, seed, WORK / "cli_inputs")
        setups.append(time.monotonic() - start)
    commands = jobs.cli_commands(seed, files)
    sweep = Sweep("cli_mix", traced, rss_mib=0.0)
    finished, raw, points = [], [], []
    for name, args in commands:
        log = WORK / f"cli-{index}-{name}.out"
        if traced:
            prefix = [sys.executable, str(HERE / "spans.py"), f"{log}.spans"]
        else:
            prefix = [sys.executable, "-m", "circlecount.cli"]
        points.append(sampler.point())
        elapsed, code, rss = spawn(prefix + args, log, env)
        raw.append(elapsed)
        sweep.rss_mib = max(sweep.rss_mib, rss)
        finished.append((name, args, log, code))
    points.append(sampler.point())
    sweep.invokes = [t * f for t, f in zip(raw, speed.job_factors(points))]
    sweep.job_s = dict(zip((name for name, _ in commands), sweep.invokes))
    sweep.raw_wall_s = sum(raw)
    sweep.wall_s = sum(sweep.invokes)
    sweep.factor = sweep.wall_s / sweep.raw_wall_s
    sweep.setup_s = statistics.median(setups) * speed.setup_factor(points)

    for name, args, log, code in finished:
        if code != 0:
            out = {"error": f"exit code {code}: {_tail(f'{log}.err')}"}
        else:
            with open(log) as fh:
                out = jobs.split_envelope(name, args, json.load(fh))
        out["name"] = name
        sweep.jobs.append(out)
        if traced:
            sweep.spans += spans.load(f"{log}.spans", offset=len(sweep.spans))
    return sweep


def cli_probes(env: dict, sampler: speed.Sampler) -> dict[str, float]:
    """cli.interpreter_s: bare interpreter spawn to exit; cli.import_s: the
    ``import circlecount.cli`` statement timed inside a fresh interpreter."""
    bare, imports, points = [], [], []
    probe = ("import time; t = time.perf_counter(); import circlecount.cli; "
             "print(time.perf_counter() - t)")
    for i in range(PROBES):
        points.append(sampler.point())
        bare.append(spawn([sys.executable, "-c", "pass"], WORK / "probe.out", env)[0])
        spawn([sys.executable, "-c", probe], WORK / "probe.out", env)
        imports.append(float((WORK / "probe.out").read_text()))
    points.append(sampler.point())
    factors = speed.job_factors(points)
    return {"cli.interpreter_s": statistics.median(t * f for t, f in zip(bare, factors)),
            "cli.import_s": statistics.median(t * f for t, f in zip(imports, factors))}


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


def check_sweeps(sweeps: list[Sweep], seed: int) -> tuple[bool, int, int, list[str]]:
    """(every exact check passed, jobs attempted, jobs failed, problems)."""
    refs = {w: load_refs(w).get(str(seed), {}) for w in {s.workload for s in sweeps}}
    verdicts: dict[str, tuple[bool, list[str]]] = {}
    correct, attempted, failed, problems = True, 0, 0, []
    for sweep in sweeps:
        for out in sweep.jobs:
            key = checks.digest([sweep.workload, out])
            if key not in verdicts:  # identical outputs need one check
                ref = refs[sweep.workload].get(out["name"])
                verdicts[key] = checks.check_job(out, ref)
            exact_ok, found = verdicts[key]
            attempted += 1
            correct &= exact_ok
            if found or not exact_ok:
                failed += 1
                problems += [f"{out['name']}: {p}" for p in found]
    return correct, attempted, failed, sorted(set(problems))


def median(values: list[float]) -> float:
    values = [v for v in values if v == v]  # crashed sweeps have no timings
    if not values:
        raise SystemExit("error: no sweep produced timings")
    return statistics.median(values)


def at_ref(name: str, value: float, factor: float) -> float:
    """A value of one traced sweep, read at the reference speed with the sweep's factor."""
    if name.endswith("_per_s"):
        return value / factor
    if name.endswith("_s"):
        return value * factor
    return value


def end_to_end(sweeps: list[Sweep], attempted: int, failed: int) -> dict:
    invokes = [t for s in sweeps for t in s.invokes]
    return {
        "wall_s": {"value": median([s.wall_s for s in sweeps]), "unit": "s"},
        "setup_s": {"value": median([s.setup_s for s in sweeps]), "unit": "s"},
        "peak_rss_mib": {"value": median([s.rss_mib for s in sweeps]), "unit": "MiB"},
        "pass_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        "invoke_p50_s": {"value": median(invokes), "unit": "s"},
    }


def per_layer(workload: str, sweeps: list[Sweep], probes: dict) -> dict:
    plain = [s for s in sweeps if s.workload == workload and not s.traced]
    traced = [s for s in sweeps if s.workload == workload and s.traced]
    by_sweep = [{name: at_ref(name, value, s.factor)
                 for name, value in spans.layer_metrics(s.spans).items()} for s in traced]
    values = {}
    for name in spans.per_layer_metrics():
        values[name] = statistics.median([m.get(name, 0) for m in by_sweep])
    values.update(probes)
    cli = [s for s in sweeps if s.workload == "cli_mix" and not s.traced]
    for command in spans.CLI_COMMANDS:
        values[f"cli.{command}.p50_s"] = statistics.median(s.job_s[command] for s in cli)
    values["trace.overhead_frac"] = (median([s.wall_s for s in traced])
                                     / median([s.wall_s for s in plain]) - 1)
    units = spans.per_layer_metrics()
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def environment(workload: str, seed: int, sweeps: list[Sweep]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
        "seed": seed,
        "input_seed": jobs.input_seed(seed),
        "ref_slices_s": speed.REF_S,
        "sweeps_untraced": sum(s.workload == workload and not s.traced for s in sweeps),
        "sweeps_traced": sum(s.workload == workload and s.traced for s in sweeps),
        "cli_layer_sweeps": sum(s.workload != workload for s in sweeps),
        "invocations": sum(len(s.invokes) for s in sweeps
                           if s.workload == workload and not s.traced),
    }


def record_refs(workload: str, seed: int, sweep: Sweep) -> None:
    """Store the first sweep's outputs as the references of this input seed."""
    errors = [out["name"] for out in sweep.jobs if out.get("error")]
    if errors:
        raise SystemExit(f"error: cannot record references, jobs raised: {errors}")
    refs = load_refs(workload)
    refs[str(jobs.input_seed(seed))] = {
        out["name"]: checks.reference_entry(out) for out in sweep.jobs
    }
    REFS.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], separators=(',', ':'))}"
             for key in sorted(refs, key=int)]
    with open(REFS / f"{workload}.json", "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this input seed's outputs as references")
    args = parser.parse_args()
    if not (ROOT / "src" / "circlecount" / "__init__.py").is_file():
        print("error: src/circlecount not found; run from the repository root",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    speed.pin()
    sampler = speed.Sampler()
    try:
        return run(args, sampler)
    finally:
        sampler.close()


def run(args: argparse.Namespace, sampler: speed.Sampler) -> int:
    env = child_env()
    warm_up(env)
    seed = jobs.input_seed(args.seed)
    deadline = time.monotonic() + args.seconds
    sweeps: list[Sweep] = []
    if args.workload == "cli_mix" or args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        import circlecount as cc
    if args.trace:
        if args.workload != "cli_mix":
            sweeps += [cli_sweep(cc, seed, False, f"layer{i}", env, sampler)
                       for i in range(CLI_LAYER_SWEEPS)]
        probes = cli_probes(env, sampler)
    if args.workload == "cli_mix":
        def run_sweep(traced: bool, index: int) -> Sweep:
            return cli_sweep(cc, seed, traced, index, env, sampler)
    else:
        def run_sweep(traced: bool, index: int) -> Sweep:
            return library_sweep(args.workload, seed, traced, index, env, sampler)

    minimum = 1 if args.record else MIN_SWEEPS + args.trace
    durations: list[float] = []
    while len(durations) < minimum or time.monotonic() + statistics.median(durations) < deadline:
        start = time.monotonic()
        sweeps.append(run_sweep(bool(args.trace) and len(durations) % 2 == 1, len(durations)))
        durations.append(time.monotonic() - start)
        print(f"sweep {len(durations)}: {durations[-1]:.2f} s", file=sys.stderr)

    if args.record:
        record_refs(args.workload, args.seed,
                    next(s for s in sweeps if s.workload == args.workload))
    correct, attempted, failed, problems = check_sweeps(sweeps, seed)
    if args.trace:
        metrics = per_layer(args.workload, sweeps, probes)
        trace_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump([{"sweep": i, "spans": s.spans} for i, s in enumerate(sweeps)
                       if s.traced], fh)
    else:
        metrics = end_to_end(sweeps, attempted, failed)
    record = {"workload": args.workload,
              "environment": environment(args.workload, args.seed, sweeps),
              "samples": [{"workload": s.workload, "traced": s.traced,
                           "raw_wall_s": s.raw_wall_s, "factor": s.factor,
                           "wall_s": s.wall_s, "setup_s": s.setup_s,
                           "peak_rss_mib": s.rss_mib, "job_s": s.job_s} for s in sweeps],
              "problems": problems}
    with open(WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
