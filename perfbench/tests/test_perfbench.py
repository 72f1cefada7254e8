"""Tests of the benchmark itself: inputs, fingerprint checks and the trace.

    python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import fingerprint  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, self_times  # noqa: E402


# --- deterministic generators ---------------------------------------------


@pytest.mark.parametrize("make", [inputs.panel_csv, inputs.gs_csv])
def test_csv_same_seed_same_bytes_other_seed_differs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_mc_ops_same_seed_same_list_other_seed_differs():
    assert inputs.digest(inputs.mc_ops(7)) == inputs.digest(inputs.mc_ops(7))
    assert inputs.mc_ops(7) != inputs.mc_ops(8)
    kinds = [op["kind"] for op in inputs.mc_ops(7)]
    assert len(kinds) == 120
    assert kinds[:4] == ["iid_normal", "garch11", "ar1", "bilinear"]


def test_mc_series_are_byte_identical_for_one_seed():
    from mdhtest import DgpSpec, generate

    def series(op):
        spec = DgpSpec(kind=op["kind"], length=op["length"], seed=op["dgp_seed"],
                       params=op["params"])
        return generate(spec).values.tobytes()

    a, b, c = inputs.mc_ops(3)[1], inputs.mc_ops(3)[1], inputs.mc_ops(4)[1]
    assert series(a) == series(b) != series(c)


def test_panel_shape_blanks_and_weekdays():
    lines = inputs.panel_csv(0).decode().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(header) == 1 + inputs.PANEL_INSTRUMENTS
    cells = [c for r in rows for c in r[1:]]
    blank = sum(c == "" for c in cells) / len(cells)
    assert 0.07 < blank < 0.13
    dates = np.array([r[0] for r in rows], dtype="datetime64[D]")
    assert np.is_busday(dates).all()
    assert str(dates[0])[:4] == "2000" and str(dates[-1])[:4] == "2019"


def test_gs_input_gives_eleven_two_year_windows_at_percent_scale(tmp_path):
    from mdhtest import WindowSpec, make_windows, equal_weight_series, load_panel

    path = tmp_path / "gs.csv"
    path.write_bytes(inputs.gs_csv(0))
    series = equal_weight_series(load_panel(str(path), "wide"), "daily")
    windows = make_windows(series, WindowSpec.for_frequency("daily"))
    assert len(windows) == 11
    assert all(500 < w.hi - w.lo < 530 for w in windows)
    assert 0.7 < series.values.std() < 1.4


# --- fingerprint checks ----------------------------------------------------

ROWS = [
    ["2000-01-01", "2001-12-31", "521", "-1.1666833228897291", "0.40000000000000002",
     "-2.7321402973261866", "3.2668619874659055", "false", ""],
    ["2001-01-01", "2002-12-31", "12", "", "", "", "", "",
     "insufficient observations: 12 < 30"],
]


def _roll_stdout(rows) -> bytes:
    head = "window_start,window_end,n_obs,statistic,p_value,ci_low,ci_high," \
           "significant_5pct,skip_reason\n"
    return (head + "".join(",".join(r) + "\n" for r in rows)).encode()


def test_identical_rows_match():
    assert fingerprint.compare_rows(ROWS, fingerprint.roll_rows(_roll_stdout(ROWS))) == []


def test_perturbed_p_value_trips_the_check():
    bad = [list(r) for r in ROWS]
    bad[0][4] = "0.40000000000000008"  # one ulp-scale change in a p-value
    problems = fingerprint.compare_rows(ROWS, bad)
    assert problems and "column 4" in problems[0]


def test_statistic_within_oracle_tolerance_passes_beyond_fails():
    near, far = [list(r) for r in ROWS], [list(r) for r in ROWS]
    near[0][3] = fingerprint.fmt(float(ROWS[0][3]) * (1 + 1e-14))
    far[0][3] = fingerprint.fmt(float(ROWS[0][3]) * (1 + 1e-8))
    assert fingerprint.compare_rows(ROWS, near) == []
    assert fingerprint.compare_rows(ROWS, far)


def test_perturbed_stored_p_value_fails_a_roll_op():
    stdout = _roll_stdout(ROWS)
    stored = {"windows": [list(r) for r in ROWS]}
    assert run._roll_problem(stdout, stored, stdout, "op 1") is None
    stored["windows"][0][4] = "0.41"
    assert "column 4" in run._roll_problem(stdout, stored, stdout, "op 1")
    other = _roll_stdout([ROWS[0]])
    assert "--workers 1" in run._roll_problem(stdout, None, other, "op 1")


def test_perturbed_mc_p_value_and_rejection_count_trip_the_check():
    ops = inputs.mc_ops(0)[:2]
    good = [["1.5", "0.040000000000000001", "120.5", "0.5"],
            ["0.5", "0.5", "20.25", "0.01"]]
    bad = [list(r) for r in good]
    bad[1][3] = "0.055"
    assert fingerprint.compare_mc(good, good) == {}
    assert list(fingerprint.compare_mc(good, bad)) == [1]
    assert fingerprint.rejections(ops, good) != fingerprint.rejections(ops, bad)


def test_stored_fingerprints_are_keyed_by_input_digest():
    for name in wl.NAMES:
        store = json.loads((fingerprint.STORE / f"{name}.json").read_text())
        seed, entry = next(iter(store["seeds"].items()))
        assert fingerprint.load(name, int(seed), entry["input_sha256"]) == entry
        assert fingerprint.load(name, int(seed), "0" * 64) is None


# --- tracing ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        Span(0, "rolling.run_rolling", 0.0, 10.0, None, 0),
        Span(1, "gs.gs_test", 1.0, 6.0, 0, 0),
        Span(2, "gs.gs_test", 2.0, 9.0, 0, 0),
        Span(3, "bootstrap.substream", 3.0, 4.0, 2, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(6.0)
    assert selfs[3] == pytest.approx(1.0)


def _small_cli(test: str) -> wl.CliWorkload:
    def make_csv(seed):
        rng = np.random.default_rng(seed)
        dates = inputs.weekdays(2000, 4)
        cells = inputs.garch_paths(rng, len(dates), 3)
        cells[rng.random(cells.shape) < 0.1] = np.nan
        return inputs.wide_csv(dates, ["A", "B", "C"], cells)

    return wl.CliWorkload(f"small_{test}", make_csv, test, 9)


COUNTS = [k for k, unit in wl.PER_LAYER.items() if unit == "count"]


@pytest.mark.parametrize("test", ["avr", "gs"])
def test_traced_cli_run_emits_every_layer_metric_with_repeatable_counts(test, tmp_path):
    w = _small_cli(test)
    env = wl.child_env(ROOT)
    first = run.trace_cli(w, 5, tmp_path, env)
    second = run.trace_cli(w, 5, tmp_path, env)
    for metrics, _, outcome, _ in (first, second):
        assert set(metrics) == set(wl.PER_LAYER)
        assert outcome.correct and outcome.attempted == 3
    a, b = first[0], second[0]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["rolling.windows"] == 3
    assert a["panel.cells"] > 0 and a["panel.load_s"] > 0
    assert a[f"{test}.self_s"] > 0
    if test == "avr":
        assert a["series.autocorrelations_calls"] == a["rolling.windows"] * (9 + 1)
        assert a["avr.replications"] == a["rolling.windows"] * 9
    else:
        assert a["gs.factor_s"] > 0 and a["avr.replications"] == 0


def test_traced_mc_run_emits_every_layer_metric_with_repeatable_counts(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(inputs, "MC_OPS", 4)
    monkeypatch.setattr(fingerprint, "STORE", tmp_path)  # no stored entry for 4 ops
    first = run.trace_mc(11, tmp_path)
    second = run.trace_mc(11, tmp_path)
    for metrics, _, outcome, _ in (first, second):
        assert set(metrics) == set(wl.PER_LAYER)
        assert outcome.correct and outcome.attempted == 8
    a, b = first[0], second[0]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["avr.replications"] == 4 * inputs.MC_B
    assert a["series.autocorrelations_calls"] == 4 * (inputs.MC_B + 1)
    assert a["dgp.generate_s"] > 0 and a["gs.replication_us"] > 0
    assert a["rolling.windows"] == 0 and a["panel.cells"] == 0


def test_tail_names_its_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == {
        "value": 3.0, "percentile": 100.0, "samples": 3, "beyond": 0}
    t = run.tail([float(i) for i in range(100)])
    assert t["value"] == 89.0 and t["beyond"] == 10 and t["percentile"] == 90.0
