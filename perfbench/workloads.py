"""The three workloads: their ops, how each is run, traced and fingerprinted.

Every workload is a closed loop with one client: the next op starts when
the previous one has finished. Nothing here edits the package; the traced
replays patch module attributes through :mod:`tracing` and restore them.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import fingerprint
import inputs
from tracing import Tracer, self_times

WORKERS = 2  # --workers of both CLI workloads; never above nproc here
OP_TIMEOUT_S = 150.0
LAYERS = ("panel", "series", "avr", "gs", "bootstrap", "rolling", "dgp", "cli")


@dataclass(frozen=True)
class CliWorkload:
    """One ``mdhtest roll`` op over a generated wide CSV."""

    name: str
    make_csv: Callable[[int], bytes]
    test: str
    n_boot: int

    def argv(self, csv_path, seed: int, workers: int) -> list:
        return [
            "roll", str(csv_path), "--format", "wide", "--test", self.test,
            "--B", str(self.n_boot), "--workers", str(workers), "--seed", str(seed),
        ]


CLI_WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("panel_roll_avr", inputs.panel_csv, "avr", 199),
        CliWorkload("gs_roll_daily", inputs.gs_csv, "gs", 299),
    )
}
MC_WORKLOAD = "mc_size_power"
NAMES = (*CLI_WORKLOADS, MC_WORKLOAD)


def child_env(root: Path) -> dict:
    """This process's environment, with the package and the benchmark on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]
    )
    return env


@dataclass
class ChildRun:
    wall_s: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(cmd: list, env: dict, workdir: Path) -> ChildRun:
    """Run one child to completion; wall time and its own peak RSS (wait4)."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        exit_code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "mdhtest.cli", *argv]


def import_time(env: dict, workdir: Path) -> float:
    """Seconds a fresh interpreter spends in ``import mdhtest.cli``."""
    code = (
        "import time; t = time.perf_counter(); import mdhtest.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    run = run_child([sys.executable, "-c", code], env, workdir)
    if run.exit_code != 0:
        raise RuntimeError(f"import mdhtest.cli failed: {run.stderr.decode()[-500:]}")
    return float(run.stdout)


# --- Monte Carlo ops -------------------------------------------------------


def mc_op(op: dict) -> list:
    """Generate one series, then AVR and GS; [avr_stat, avr_p, gs_stat, gs_p].

    The package is reached through module attributes at call time, so a
    tracer installed on them sees these calls.
    """
    from mdhtest import avr, bootstrap, dgp, gs

    series = dgp.generate(
        dgp.DgpSpec(
            kind=op["kind"], length=op["length"], seed=op["dgp_seed"],
            params=op["params"],
        )
    )
    a = avr.avr_test(
        series, bootstrap.BootstrapConfig(n_boot=op["n_boot"], seed=op["avr_seed"])
    )
    g = gs.gs_test(
        series,
        bootstrap.BootstrapConfig(n_boot=op["n_boot"], seed=op["gs_seed"]),
        max_lag="full",
    )
    return [
        fingerprint.fmt(a.statistic), fingerprint.fmt(a.p_value),
        fingerprint.fmt(g.statistic), fingerprint.fmt(g.p_value),
    ]


def run_mc_list(ops: list, tracer: Tracer = None) -> dict:
    """One pass over the op list; an op that raises is recorded, not fatal."""
    latencies, results, errors = [], [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        t0 = perf_counter()
        try:
            results.append(mc_op(op))
        except Exception as exc:  # an op failure is a measured outcome
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
    return {
        "wall_s": perf_counter() - start,
        "latencies": latencies,
        "results": results,
        "errors": errors,
    }


# --- traced replay ---------------------------------------------------------


def boundaries(tracer: Tracer) -> list:
    """(module, attribute, span name[, on_result]) at every layer crossing.

    The span is named after the callee; the attribute patched is the name
    the caller looks up, so only cross-layer calls are recorded.
    """
    from mdhtest import avr, cli, dgp, gs, rolling

    counts = tracer.counts

    def panel_loaded(panel):
        counts["panel.cells"] += len(panel)

    def rolled(result):
        counts["rolling.windows"] += len(result.windows)
        counts["rolling.skipped"] += sum(w.outcome is None for w in result.windows)

    return [
        (cli, "load_panel", "panel.load_panel", panel_loaded),
        (cli, "equal_weight_series", "panel.equal_weight_series"),
        (cli, "run_rolling", "rolling.run_rolling", rolled),
        (rolling, "avr_test", "avr.avr_test"),
        (rolling, "gs_test", "gs.gs_test"),
        (dgp, "generate", "dgp.generate"),
        (avr, "avr_test", "avr.avr_test"),
        (avr, "autocorrelations", "series.autocorrelations"),
        (avr, "substream", "bootstrap.substream"),
        (avr, "draw_multipliers", "bootstrap.draw_multipliers"),
        (gs, "gs_test", "gs.gs_test"),
        (gs, "gram_matrix", "gs.gram_matrix"),
        (gs, "substream", "bootstrap.substream"),
        (gs, "draw_multipliers", "bootstrap.draw_multipliers"),
    ]


def replay_cli(argv: list, tracer: Tracer = None):
    """``mdhtest.cli.main`` in this process; (wall seconds, exit code, stdout)."""
    from mdhtest import cli

    out, err = io.StringIO(), io.StringIO()
    patches = tracer.installed(boundaries(tracer)) if tracer else contextlib.nullcontext()
    with patches, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        if tracer:
            with tracer.span("cli.main"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
        wall = perf_counter() - start
    return wall, code, out.getvalue().encode("utf-8")


def replay_mc(ops: list, tracer: Tracer = None) -> dict:
    if tracer is None:
        return run_mc_list(ops)
    with tracer.installed(boundaries(tracer)):
        return run_mc_list(ops, tracer)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_alloc_mb(fn) -> tuple:
    """(result of fn(), peak traced allocation in MB while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def probe_metrics(series, n_boot: int, layers: set) -> dict:
    """Layer probes on one representative series of the workload.

    Only layers the traced replay ran are probed; the others read 0.
    """
    from mdhtest import BootstrapConfig, avr_statistic, avr_test, gs_statistic, gs_test

    m = {}
    if "avr" in layers:
        stat = _median_time(lambda: avr_statistic(series), 21)
        full = _median_time(lambda: avr_test(series, BootstrapConfig(n_boot, seed=0)), 3)
        m["avr.statistic_s"] = stat
        m["avr.bootstrap_s"] = full - stat
    if "gs" in layers:
        factor = _median_time(lambda: gs_test(series, BootstrapConfig(1, seed=0)), 3)
        full = _median_time(lambda: gs_test(series, BootstrapConfig(n_boot, seed=0)), 1)
        m["gs.factor_s"] = factor
        m["gs.replication_us"] = (full - factor) / (n_boot - 1) * 1e6
        m["gs.statistic_s"] = _median_time(lambda: gs_statistic(series), 3)
        _, m["gs.peak_alloc_mb"] = peak_alloc_mb(
            lambda: gs_test(series, BootstrapConfig(1, seed=0))
        )
    return m


PER_LAYER = {
    "panel.load_s": "s",
    "panel.equal_weight_s": "s",
    "panel.cells": "count",
    "panel.peak_alloc_mb": "MB",
    "series.autocorrelations_s": "s",
    "series.autocorrelations_calls": "count",
    "avr.statistic_s": "s",
    "avr.bootstrap_s": "s",
    "avr.replications": "count",
    "gs.factor_s": "s",
    "gs.replication_us": "us",
    "gs.statistic_s": "s",
    "gs.peak_alloc_mb": "MB",
    "bootstrap.draw_us": "us",
    "rolling.windows": "count",
    "rolling.skipped": "count",
    "rolling.window_p50_s": "s",
    "rolling.window_max_s": "s",
    "rolling.parallel_efficiency": "ratio",
    "dgp.generate_s": "s",
    "cli.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def span_metrics(tracer: Tracer, workers: int) -> dict:
    """Per-layer metrics from one traced replay of the op list."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def under(name, parent_name):
        return [
            s for s in spans
            if s.name == name and s.parent is not None
            and by_id[s.parent].name == parent_name
        ]

    draws = [s for s in spans if s.name == "bootstrap.draw_multipliers"]
    windows = [
        s for s in spans
        if s.name in ("avr.avr_test", "gs.gs_test") and s.parent is not None
        and by_id[s.parent].name == "rolling.run_rolling"
    ]
    window_times = [s.duration for s in windows]
    rolling_wall = total("rolling.run_rolling")
    selfs = self_times(spans)
    m = {
        "panel.load_s": total("panel.load_panel"),
        "panel.equal_weight_s": total("panel.equal_weight_series"),
        "panel.cells": tracer.counts["panel.cells"],
        "series.autocorrelations_s": total("series.autocorrelations"),
        "series.autocorrelations_calls": sum(
            s.name == "series.autocorrelations" for s in spans
        ),
        "avr.replications": len(under("bootstrap.draw_multipliers", "avr.avr_test")),
        "bootstrap.draw_us": (
            (total("bootstrap.substream") + total("bootstrap.draw_multipliers"))
            / len(draws) * 1e6 if draws else 0.0
        ),
        "rolling.windows": tracer.counts["rolling.windows"],
        "rolling.skipped": tracer.counts["rolling.skipped"],
        "rolling.window_p50_s": statistics.median(window_times) if windows else 0.0,
        "rolling.window_max_s": max(window_times, default=0.0),
        "rolling.parallel_efficiency": (
            sum(window_times) / (workers * rolling_wall) if rolling_wall else 0.0
        ),
        "dgp.generate_s": total("dgp.generate"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    return m
