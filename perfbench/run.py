"""mdhtest benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload panel_roll_avr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` replays the
workload in-process with span wrappers and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the environment and the details behind each number. See README.md.
"""

import os

# One BLAS thread here and, through the inherited environment, in every
# child: the CLI ops run two worker threads on a 2-core machine, so more
# BLAS threads would measure the scheduler, not the program. Must be set
# before numpy is imported.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import fingerprint  # noqa: E402
import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MAX_PROBLEMS = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "cli_workers": wl.WORKERS,
    }


def tail(latencies: list) -> dict:
    """Highest percentile with at least 10 samples beyond it; the max if n <= 10."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 10:
        return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n,
                "samples": n, "beyond": 10}
    return {"value": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0}


class Outcome:
    """Ops attempted and failed, with the first few problems for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def op(self, problem=None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.note(problem)

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end(setup: list, list_walls: list, latencies: list, rss: float,
               outcome: Outcome) -> tuple:
    t = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(list_walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": t["value"],
        "peak_rss_mb": rss,
        "pass_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    report = {"setup_runs_s": setup, "op_lists": len(list_walls),
              "op_latencies": len(latencies), "op_tail": t}
    return metrics, report


def _roll_problem(expected_stdout: bytes, stored, stdout: bytes, what: str):
    """Why one roll op's stdout is wrong, or None when it is right."""
    if stdout != expected_stdout:
        return f"{what}: stdout differs from the --workers 1 reference"
    if stored is None:
        return None
    try:
        problems = fingerprint.compare_rows(stored["windows"], fingerprint.roll_rows(stdout))
    except ValueError as exc:
        problems = [str(exc)]
    return f"{what}: {problems[0]}" if problems else None


def _prepare_cli(w, seed: int, workdir: Path):
    data = w.make_csv(seed)
    csv_path = workdir / "input.csv"
    csv_path.write_bytes(data)
    return csv_path, fingerprint.load(w.name, seed, inputs.digest(data))


def measure_cli(w, seed: int, seconds: float, workdir: Path, env: dict):
    csv_path, stored = _prepare_cli(w, seed, workdir)
    setup = [wl.import_time(env, workdir) for _ in range(SETUP_REPEATS)]
    outcome = Outcome()
    ref = wl.run_child(wl.cli_cmd(w.argv(csv_path, seed, 1)), env, workdir)
    if ref.exit_code != 0:
        outcome.note(f"--workers 1 reference exited {ref.exit_code}: "
                     f"{ref.stderr.decode()[-300:]}")
    runs = []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        run = wl.run_child(wl.cli_cmd(w.argv(csv_path, seed, wl.WORKERS)), env, workdir)
        runs.append(run)
        if run.exit_code != 0:
            outcome.op(f"op {len(runs)}: exit code {run.exit_code}")
        else:
            outcome.op(_roll_problem(ref.stdout, stored, run.stdout, f"op {len(runs)}"))
    latencies = [r.wall_s for r in runs]
    metrics, report = end_to_end(
        setup, latencies, latencies,
        statistics.median(r.peak_rss_mb for r in runs), outcome,
    )
    report["reference_workers1_s"] = ref.wall_s
    return metrics, report, outcome, stored is not None


def measure_mc(seed: int, seconds: float, workdir: Path, env: dict):
    ops = inputs.mc_ops(seed)
    stored = fingerprint.load(wl.MC_WORKLOAD, seed, inputs.digest(ops))
    setup = [wl.import_time(env, workdir) for _ in range(SETUP_REPEATS)]
    child = wl.run_child(
        [sys.executable, str(ROOT / "perfbench" / "mc_child.py"),
         "--seed", str(seed), "--seconds", repr(seconds)],
        env, workdir,
    )
    if child.exit_code != 0:
        raise RuntimeError(f"mc_child exited {child.exit_code}: "
                           f"{child.stderr.decode()[-1000:]}")
    passes = json.loads(child.stdout)["passes"]
    outcome = Outcome()
    if stored:
        expected = stored["ops"]
    else:
        # No stored fingerprint for this seed: the first pass is the reference,
        # and one op per DGP is recomputed in this process to check it.
        expected = passes[0]["results"]
        sample = wl.run_mc_list(ops[: len(inputs.MC_DGPS)])["results"]
        for i, msg in fingerprint.compare_mc(sample, expected).items():
            outcome.note(f"recomputed {msg}")
    for p in passes:
        wrong = fingerprint.compare_mc(expected, p["results"])
        for i, result in enumerate(p["results"]):
            if result is None:
                outcome.op(f"op {i} raised")
            else:
                outcome.op(wrong.get(i))
        for err in p["errors"]:
            outcome.note(err)
        if stored and fingerprint.rejections(ops, p["results"]) != stored["rejections_5pct"]:
            outcome.note("5% rejection counts differ from the stored fingerprint")
    metrics, report = end_to_end(
        setup, [p["wall_s"] for p in passes],
        [x for p in passes for x in p["latencies"]], child.peak_rss_mb, outcome,
    )
    report["rejections_5pct"] = fingerprint.rejections(ops, passes[0]["results"])
    return metrics, report, outcome, stored is not None


def _first_window(series):
    from mdhtest import WindowSpec, make_windows

    spec = WindowSpec.for_frequency(series.frequency)
    for win in make_windows(series, spec):
        if win.hi - win.lo >= spec.min_observations:
            return series.slice(win.lo, win.hi)
    raise ValueError("no full window")


def _per_layer(tracer: Tracer, workers: int, probes: dict, overhead: dict) -> dict:
    metrics = dict.fromkeys(wl.PER_LAYER, 0.0)
    metrics.update(wl.span_metrics(tracer, workers))
    metrics.update(probes)
    metrics.update(overhead)
    return {k: int(v) if wl.PER_LAYER[k] == "count" else float(v)
            for k, v in metrics.items()}


def trace_cli(w, seed: int, workdir: Path, env: dict):
    from mdhtest import equal_weight_series, load_panel

    csv_path, stored = _prepare_cli(w, seed, workdir)
    argv = w.argv(csv_path, seed, wl.WORKERS)
    outcome = Outcome()
    cli_run = wl.run_child(wl.cli_cmd(argv), env, workdir)
    outcome.op(f"CLI op exited {cli_run.exit_code}" if cli_run.exit_code else
               _roll_problem(cli_run.stdout, stored, cli_run.stdout, "CLI op"))
    untraced_s, code, out = wl.replay_cli(argv)
    outcome.op(f"in-process replay returned {code}" if code else
               _roll_problem(cli_run.stdout, stored, out, "in-process replay"))
    tracer = Tracer()
    traced_s, code, out = wl.replay_cli(argv, tracer)
    outcome.op(f"traced replay returned {code}" if code else
               _roll_problem(cli_run.stdout, stored, out, "traced replay"))
    tracer.dump(workdir / "spans.jsonl")

    series, panel_mb = wl.peak_alloc_mb(
        lambda: equal_weight_series(load_panel(str(csv_path), "wide"), "daily")
    )
    layers = {s.layer for s in tracer.spans}
    probes = wl.probe_metrics(_first_window(series), w.n_boot, layers)
    probes["panel.peak_alloc_mb"] = panel_mb
    metrics = _per_layer(tracer, wl.WORKERS, probes, {
        "cli.overhead_s": cli_run.wall_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    })
    report = {"cli_wall_s": cli_run.wall_s, "untraced_replay_s": untraced_s,
              "traced_replay_s": traced_s, "spans_file": str(workdir / "spans.jsonl")}
    return metrics, report, outcome, stored is not None


def trace_mc(seed: int, workdir: Path):
    from mdhtest import DgpSpec, generate

    ops = inputs.mc_ops(seed)
    stored = fingerprint.load(wl.MC_WORKLOAD, seed, inputs.digest(ops))
    outcome = Outcome()
    untraced = wl.replay_mc(ops)
    tracer = Tracer()
    traced = wl.replay_mc(ops, tracer)
    tracer.dump(workdir / "spans.jsonl")
    expected = stored["ops"] if stored else untraced["results"]
    for p in (untraced, traced):
        wrong = fingerprint.compare_mc(expected, p["results"])
        for i, result in enumerate(p["results"]):
            outcome.op(f"op {i} raised" if result is None else wrong.get(i))

    first = ops[0]
    series = generate(DgpSpec(kind=first["kind"], length=first["length"],
                              seed=first["dgp_seed"], params=first["params"]))
    layers = {s.layer for s in tracer.spans}
    probes = wl.probe_metrics(series, inputs.MC_B, layers)
    metrics = _per_layer(tracer, 1, probes, {
        "trace.overhead_pct": 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0),
    })
    report = {"untraced_replay_s": untraced["wall_s"], "traced_replay_s": traced["wall_s"],
              "spans_file": str(workdir / "spans.jsonl")}
    return metrics, report, outcome, stored is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "mdhtest" / "cli.py").is_file():
        print(f"error: no mdhtest package under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = wl.child_env(ROOT)

    cli_workload = wl.CLI_WORKLOADS.get(args.workload)
    if args.trace and cli_workload:
        result = trace_cli(cli_workload, args.seed, workdir, env)
    elif args.trace:
        result = trace_mc(args.seed, workdir)
    elif cli_workload:
        result = measure_cli(cli_workload, args.seed, args.seconds, workdir, env)
    else:
        result = measure_mc(args.seed, args.seconds, workdir, env)
    metrics, report, outcome, stored = result

    units = wl.PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "fingerprint": "stored" if stored else "no stored fingerprint for this "
                       "seed and input; checked against this run's reference",
        "problems": outcome.problems,
        **report,
    }, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
