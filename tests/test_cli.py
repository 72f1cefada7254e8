import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mdhtest
from mdhtest import (
    BootstrapConfig, DgpSpec, WindowSpec, avr_test, gs_statistic, gs_test,
    run_rolling,
)
from mdhtest import cli
from mdhtest.cli import _render_json, main
from mdhtest.panel import equal_weight_series, load_panel
from conftest import make_series


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sim_csv(tmp_path, capsys):
    """A simulated single-instrument panel, reusable as wide-format input."""
    path = str(tmp_path / "sim.csv")
    code = main(
        ["simulate", "--kind", "iid_normal", "--length", "600", "--seed", "11",
         "--out", path]
    )
    capsys.readouterr()
    assert code == 0
    return path


def load_series(path):
    return equal_weight_series(load_panel(path, format="wide"), "daily")


class TestSimulate:
    def test_deterministic_and_atomic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["simulate", "--kind", "ar1", "--params", "phi=0.5",
                "--length", "50", "--seed", "3"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        capsys.readouterr()
        assert open(a).read() == open(b).read()
        assert not os.path.exists(a + ".tmp")

    def test_header_names_the_process(self, capsys):
        code, out, err = run(
            capsys,
            ["simulate", "--kind", "bilinear", "--params", "b=0.2",
             "--length", "4", "--seed", "0"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "date,bilinear"
        assert len(lines) == 5
        assert lines[1].startswith("2000-01-03,")
        assert "simulated bilinear series" in err

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        argv = ["simulate", "--kind", "iid_normal", "--length", "20", "--seed", "8"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        path = str(tmp_path / "o.csv")
        assert main(argv + ["--out", path]) == 0
        capsys.readouterr()
        assert open(path, newline="").read() == out

    def test_bad_params_exit_one(self, capsys):
        code, _, err = run(
            capsys,
            ["simulate", "--kind", "ar1", "--params", "phi", "--length", "9",
             "--seed", "0"],
        )
        assert code == 1
        assert err.startswith("error:")
        code, _, err = run(
            capsys,
            ["simulate", "--kind", "ar1", "--params", "phi=fast", "--length", "9",
             "--seed", "0"],
        )
        assert code == 1
        assert "phi" in err

    def test_repeated_param_exit_one(self, capsys):
        code, out, err = run(
            capsys,
            ["simulate", "--kind", "ar1", "--params", "phi=0.1,phi=0.9",
             "--length", "9", "--seed", "0"],
        )
        assert code == 1
        assert out == ""
        assert err == "error: bad --params: phi given twice\n"

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "ar2", "--length", "9", "--seed", "0"])
        assert exc.value.code == 2


class TestOutFile:
    ARGV = ["simulate", "--kind", "iid_normal", "--length", "5", "--seed", "0"]

    def test_leaves_a_same_named_tmp_file_alone(self, tmp_path, capsys):
        (tmp_path / "o.csv.tmp").write_text("mine\n")
        assert main(self.ARGV + ["--out", str(tmp_path / "o.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "o.csv.tmp").read_text() == "mine\n"
        assert sorted(os.listdir(tmp_path)) == ["o.csv", "o.csv.tmp"]

    def test_missing_directory_names_the_target(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "o.csv")
        code, stdout, err = run(capsys, self.ARGV + ["--out", out])
        assert code == 1
        assert stdout == ""
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    def test_failed_rename_leaves_no_stray_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        code, _, err = run(capsys, self.ARGV + ["--out", str(target)])
        assert code == 1
        assert err.startswith(f"error: cannot write {target}: ")
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(target) == []


class TestDefaultsComeFromTheLibrary:
    """With no optional flags, the CLI builds the library's default configs."""

    @staticmethod
    def called(monkeypatch, capsys, name, argv):
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            raise ValueError("recorded")

        monkeypatch.setattr(cli, name, record)
        monkeypatch.setattr(cli, "_load_series", lambda args: make_series(np.zeros(3)))
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: recorded\n"
        return calls[0]

    def test_avr(self, monkeypatch, capsys):
        (_, boot), _ = self.called(monkeypatch, capsys, "avr_test", ["avr", "x.csv"])
        assert boot == BootstrapConfig()

    def test_roll(self, monkeypatch, capsys):
        (_, spec, test, boot), kwargs = self.called(
            monkeypatch, capsys, "run_rolling", ["roll", "x.csv", "--test", "avr"]
        )
        assert spec == WindowSpec()
        assert test == "avr"
        assert boot == BootstrapConfig()
        assert kwargs == {"workers": 1}

    def test_simulate(self, monkeypatch, capsys):
        argv = ["simulate", "--kind", "iid_normal", "--length", "5", "--seed", "0"]
        (spec,), _ = self.called(monkeypatch, capsys, "generate", argv)
        assert spec == DgpSpec(kind="iid_normal", length=5, seed=0)


class TestDescribe:
    def test_reports_all_moments(self, sim_csv, capsys):
        code, out, _ = run(capsys, ["describe", sim_csv, "--format", "wide"])
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert set(rows) == {
            "size", "mean", "std", "skewness", "kurtosis", "jarque_bera", "jb_p"
        }
        assert rows["size"] == "600"
        assert abs(float(rows["mean"])) < 0.2
        float(rows["jb_p"])  # parses: no stars on a Gaussian sample

    def test_stars_flag_non_normal_series(self, tmp_path, capsys):
        path = str(tmp_path / "garch.csv")
        main(["simulate", "--kind", "garch11", "--params",
              "omega=0.05,alpha=0.15,beta=0.8", "--length", "2000", "--seed", "4",
              "--out", path])
        capsys.readouterr()
        code, out, _ = run(capsys, ["describe", path, "--format", "wide"])
        assert code == 0
        jb_line = [l for l in out.splitlines() if l.startswith("jarque_bera")][0]
        assert jb_line.rstrip().endswith("***")

    @pytest.mark.parametrize("power", [-330, 330])
    def test_any_scale(self, tmp_path, capsys, power):
        import numpy as np

        # d**4 underflows at 2^-330 and overflows at 2^330 unless rescaled
        values = np.random.default_rng(8).standard_normal(50) * 2.0**power
        dates = np.datetime64("2000-01-03") + np.arange(50)
        path = tmp_path / "scaled.csv"
        path.write_text(
            "date,A\n" + "".join(f"{d},{v}\n" for d, v in zip(dates, values))
        )
        code, out, _ = run(capsys, ["describe", str(path), "--format", "wide"])
        assert code == 0
        assert out.splitlines()[0].split() == ["size", "50"]


class TestAvrCommand:
    def test_json_fields_and_values(self, sim_csv, capsys):
        code, out, err = run(
            capsys,
            ["avr", sim_csv, "--format", "wide", "--B", "37", "--seed", "5",
             "--eta", "mammen"],
        )
        assert code == 0
        parsed = json.loads(out)
        assert list(parsed) == [
            "statistic", "vr", "bandwidth", "p_value", "ci_low", "ci_high", "n_boot"
        ]
        want = avr_test(
            load_series(sim_csv),
            BootstrapConfig(n_boot=37, multiplier="mammen", seed=5),
        )
        assert parsed["statistic"] == want.statistic  # 17g round-trips exactly
        assert parsed["vr"] == want.vr
        assert parsed["bandwidth"] == want.bandwidth
        assert parsed["p_value"] == want.p_value
        assert parsed["ci_low"] == want.ci_low
        assert parsed["ci_high"] == want.ci_high
        assert parsed["n_boot"] == 37
        assert "AVR statistic" in err and "bootstrap 95% CI" in err

    def test_byte_identical_reruns_and_workers(self, sim_csv, capsys):
        argv = ["avr", sim_csv, "--format", "wide", "--B", "25", "--seed", "1"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_out_file_atomic(self, sim_csv, tmp_path, capsys):
        path = str(tmp_path / "avr.json")
        argv = ["avr", sim_csv, "--format", "wide", "--B", "15", "--seed", "2"]
        _, stdout_text, _ = run(capsys, argv)
        assert main(argv + ["--out", path]) == 0
        capsys.readouterr()
        assert open(path, newline="").read() == stdout_text
        assert not os.path.exists(path + ".tmp")


class TestGsCommand:
    def test_json_fields_and_truncation_note(self, sim_csv, capsys):
        code, out, err = run(
            capsys,
            ["gs", sim_csv, "--format", "wide", "--B", "19", "--seed", "7",
             "--max-lag", "5"],
        )
        assert code == 0
        parsed = json.loads(out)
        assert list(parsed) == ["statistic", "p_value", "n_boot", "max_lag_used"]
        assert parsed["max_lag_used"] == 5
        series = load_series(sim_csv)
        want = gs_test(series, BootstrapConfig(n_boot=19, seed=7), max_lag=5)
        assert parsed["statistic"] == want.statistic
        assert parsed["p_value"] == want.p_value
        assert out == _render_json(
            [("statistic", want.statistic), ("p_value", want.p_value),
             ("n_boot", 19), ("max_lag_used", 5)]
        )
        # the note's bound is tight on the mass the truncation drops
        note = "lag truncation at 5: omitted statistic mass <= "
        line = next(line for line in err.splitlines() if line.startswith(note))
        bound = float(line[len(note):])
        dropped = gs_statistic(series) - gs_statistic(series, max_lag=5)
        assert dropped <= bound <= dropped * (1 + 1e-10)
        assert "GS statistic" in err
        assert f"Gram factor rank {want.rank}, certified error <=" in err

    def test_full_lag_has_no_truncation_note(self, tmp_path, capsys):
        path = str(tmp_path / "short.csv")
        main(["simulate", "--kind", "iid_normal", "--length", "60", "--seed", "2",
              "--out", path])
        capsys.readouterr()
        code, out, err = run(capsys, ["gs", path, "--format", "wide", "--B", "9",
                                      "--seed", "0"])
        assert code == 0
        assert json.loads(out)["max_lag_used"] == 59
        assert "lag truncation" not in err


class TestRollCommand:
    def test_csv_contract(self, tmp_path, capsys):
        panel = str(tmp_path / "p.csv")
        main(["simulate", "--kind", "iid_normal", "--length", "1100", "--seed", "21",
              "--out", panel])
        capsys.readouterr()
        argv = ["roll", panel, "--format", "wide", "--test", "avr",
                "--window-years", "1", "--B", "29", "--seed", "3"]
        code, out, err = run(capsys, argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "window_start", "window_end", "n_obs", "statistic", "p_value",
            "ci_low", "ci_high", "significant_5pct", "skip_reason",
        ]
        want = run_rolling(
            load_series(panel),
            WindowSpec(window_years=1, step_years=1, min_observations=30),
            "avr",
            BootstrapConfig(n_boot=29, seed=3),
        )
        body = rows[1:]
        assert len(body) == len(want.windows)
        n_sig = n_skip = 0
        for row, win in zip(body, want.windows):
            assert row[0] == str(win.start) and row[1] == str(win.end)
            assert int(row[2]) == win.n_obs
            if win.outcome is None:
                n_skip += 1
                assert row[3] == "" and row[8] != ""
                continue
            assert float(row[3]) == win.outcome.statistic
            assert float(row[4]) == win.outcome.p_value
            assert (row[7] == "true") == (win.outcome.p_value < 0.05)
            n_sig += row[7] == "true"
        assert err.strip() == (
            f"{len(body)} windows: {n_sig} significant at 5%, {n_skip} skipped"
        )

    def test_gs_rows_have_no_confidence_band(self, tmp_path, capsys):
        panel = str(tmp_path / "p.csv")
        main(["simulate", "--kind", "iid_normal", "--length", "750", "--seed", "22",
              "--out", panel])
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            ["roll", panel, "--format", "wide", "--test", "gs",
             "--window-years", "1", "--B", "19", "--seed", "0"],
        )
        assert code == 0
        body = [r for r in list(csv.reader(io.StringIO(out)))[1:] if r[3] != ""]
        assert body
        for row in body:
            assert row[5] == "" and row[6] == ""
            float(row[3]), float(row[4])

    def test_skip_rows_marked(self, tmp_path, capsys):
        # a year-long hole in the data shows up as a skip marker row
        lines = ["date,instrument,return"]
        import numpy as np

        rng = np.random.default_rng(1)
        for base in ("2000-03-01", "2002-03-01"):
            start = np.datetime64(base)
            for i in range(60):
                lines.append(f"{start + i},X,{rng.normal(0, 0.01):.6f}")
        panel = str(tmp_path / "gap.csv")
        with open(panel, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out, err = run(
            capsys,
            ["roll", panel, "--test", "avr", "--window-years", "1",
             "--B", "19", "--seed", "0"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 3
        assert rows[1][2] == "0"
        assert rows[1][8] == "insufficient observations: 0 < 30"
        assert rows[1][3] == "" and rows[1][7] == ""
        assert "1 skipped" in err

    def test_worker_byte_identity(self, tmp_path, capsys):
        panel = str(tmp_path / "p.csv")
        main(["simulate", "--kind", "iid_normal", "--length", "1100", "--seed", "23",
              "--out", panel])
        capsys.readouterr()
        argv = ["roll", panel, "--format", "wide", "--test", "avr",
                "--window-years", "1", "--B", "25", "--seed", "6"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv + ["--workers", "3"])
        assert out1 == out2

    @staticmethod
    def _rolls(capsys, path, years, layout="long"):
        """The first default window's bounds, after checking that the
        default output is byte-identical to that of ``--window-years years``."""
        argv = ["roll", path, "--format", layout, "--test", "avr", "--B", "9",
                "--seed", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, argv + ["--window-years", str(years)])[1] == out
        first = list(csv.reader(io.StringIO(out)))[1]
        return first[0], first[1]

    @staticmethod
    def _long_panel(tmp_path, dates_by_instrument):
        rng = np.random.default_rng(4)
        lines = ["date,instrument,return"]
        for name, dates in dates_by_instrument.items():
            lines += [f"{d},{name},{rng.normal(0, 0.01):.6f}" for d in dates]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_weekly_dates_take_five_year_windows(self, tmp_path, capsys):
        path = str(tmp_path / "weekly.csv")
        main(["simulate", "--kind", "iid_normal", "--length", "600", "--seed", "24",
              "--frequency", "weekly", "--out", path])
        capsys.readouterr()
        assert self._rolls(capsys, path, 5, "wide") == ("2000-01-01", "2004-12-31")

    @pytest.mark.parametrize("weekdays", [(0, 4), (2, 4), (3, 4), (0, 1)])
    @pytest.mark.parametrize("long_gaps_lead", [False, True])
    def test_two_dates_a_week_take_two_year_windows(
        self, tmp_path, capsys, weekdays, long_gaps_lead
    ):
        # Gaps alternate between two lengths that sum to 7: 4 and 3 days, 2
        # and 5, 1 and 6. Starting on the later weekday and ending on the
        # earlier one leaves the longer gap in the majority, and the median
        # there, at up to 6 days
        early, late = weekdays
        monday = np.datetime64("2001-01-01") + 7 * np.arange(300)
        cut = int(long_gaps_lead)
        panel = self._long_panel(tmp_path, {
            "E": monday[cut:] + early, "L": monday[: len(monday) - cut] + late
        })
        assert self._rolls(capsys, panel, 2) == ("2001-01-01", "2002-12-31")

    def test_daily_dates_with_week_long_holidays_take_two_year_windows(
        self, tmp_path, capsys
    ):
        days = np.arange("2000-01-01", "2006-01-01", dtype="datetime64[D]")
        # the first week of February and of October: no trading
        month = days.astype("datetime64[M]")
        first_week = (days - month).astype(int) < 7
        holidays = first_week & np.isin(month.astype(int) % 12, [1, 9])
        trading = days[np.is_busday(days) & ~holidays]
        panel = self._long_panel(tmp_path, {"A": trading})
        assert self._rolls(capsys, panel, 2) == ("2000-01-01", "2001-12-31")

    def test_bad_window_spec_exit_one(self, sim_csv, capsys):
        code, _, err = run(
            capsys,
            ["roll", sim_csv, "--format", "wide", "--test", "avr",
             "--window-years", "1", "--min-obs", "5"],
        )
        assert code == 1
        assert "min_observations" in err


class TestErrorHandling:
    def test_negative_seed_names_the_argument(self, sim_csv, capsys):
        for argv in (
            ["avr", sim_csv, "--format", "wide", "--seed", "-1"],
            ["gs", sim_csv, "--format", "wide", "--seed", "-1"],
            ["roll", sim_csv, "--format", "wide", "--test", "avr", "--seed", "-1"],
            ["simulate", "--kind", "iid_normal", "--length", "5", "--seed", "-1"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 1
            assert out == ""
            assert err == "error: seed must be an integer >= 0, got -1\n"

    def test_zero_workers_names_the_argument_before_reading_input(self, capsys):
        argv = ["roll", "no-such-file.csv", "--format", "wide", "--test", "avr",
                "--workers", "0"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: workers must be an integer >= 1, got 0\n"

    def test_zero_window_years_names_the_argument_before_reading_input(self, capsys):
        argv = ["roll", "no-such-file.csv", "--test", "avr", "--window-years", "0"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: window_years must be an integer in [1, 1000000], got 0\n"

    @pytest.mark.parametrize("flag", ["--window-years", "--step-years"])
    def test_huge_years_name_the_argument_before_reading_input(self, capsys, flag):
        # numpy's datetime64[Y] ranges cannot hold such widths or strides
        argv = ["roll", "no-such-file.csv", "--test", "avr", flag, str(10**20)]
        code, out, err = run(capsys, argv)
        name = flag[2:].replace("-", "_")
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {name} must be an integer in [1, 1000000], got {10**20}\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["describe", "no-such-file.csv"])
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_panel(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,instrument,return\n2000-01-03,A,0.01\n2000-01-03,A,0.02\n"
        )
        code, _, err = run(capsys, ["avr", str(path)])
        assert code == 1
        assert f"error: {path}: duplicate" in err

    def test_oversized_field_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(
            "date,instrument,return\n2000-01-03,A,0.01\n"
            f"2000-01-04,{'A' * 200_000},0.02\n"
        )
        code, _, err = run(capsys, ["describe", str(path)])
        assert code == 1
        assert err.startswith("error:")
        assert f"{path}: line 3: field larger than field limit" in err

    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys):
        # Far past the first decoded chunk, so the line is not the reader's.
        rows = [f"2000-01-03,I{i:05d},0.01\n".encode() for i in range(2000)]
        rows[1500] = b"2000-01-03,\xff\xfe,0.01\n"
        path = tmp_path / "latin.csv"
        path.write_bytes(b"date,instrument,return\n" + b"".join(rows))
        code, _, err = run(capsys, ["describe", str(path)])
        assert code == 1
        assert err.startswith("error:")
        assert f"{path}: line 1502: invalid UTF-8" in err

    def test_invalid_choice_is_usage_error(self, sim_csv, capsys):
        for argv, message in [
            (["roll", sim_csv, "--test", "box"], "invalid choice: 'box'"),
            (["roll", sim_csv, "--test", "avr", "--workers", "abc"],
             "invalid int value: 'abc'"),
            (["avr", sim_csv, "--workers", "1"], "unrecognized arguments"),
            (["gs", sim_csv, "--workers", "1"], "unrecognized arguments"),
            (["describe", sim_csv, "--frequency", "weekly"], "unrecognized arguments"),
            (["avr", sim_csv, "--frequency", "weekly"], "unrecognized arguments"),
            (["gs", sim_csv, "--frequency", "weekly"], "unrecognized arguments"),
            (["roll", sim_csv, "--test", "avr", "--frequency", "weekly"],
             "unrecognized arguments"),
            (["gs", sim_csv, "--max-lag", "abc"],
             "expected an integer or 'full', got 'abc'"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mdhtest.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, mdhtest.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "[]"
