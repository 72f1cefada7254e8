from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdhtest import (
    BootstrapConfig,
    DgpSpec,
    ReturnSeries,
    WindowSpec,
    avr_test,
    draw_multipliers,
    generate,
    gs_test,
    make_windows,
    run_rolling,
)
from mdhtest.bootstrap import AVR_DOMAIN, WINDOW_DOMAIN, derive_seed, substream
from conftest import make_series


def daily_series(start, n, rng, scale=0.01):
    dates = np.datetime64(start, "D") + np.arange(n)
    return ReturnSeries(
        values=rng.standard_normal(n) * scale, dates=dates, frequency="daily"
    )


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="window_years"):
            WindowSpec(window_years=0)
        with pytest.raises(ValueError, match="step_years"):
            WindowSpec(window_years=2, step_years=0)
        with pytest.raises(ValueError, match="min_observations"):
            WindowSpec(window_years=2, min_observations=9)

    def test_frequency_defaults(self):
        assert WindowSpec.for_frequency("daily").window_years == 2
        assert WindowSpec.for_frequency("weekly").window_years == 5
        with pytest.raises(ValueError):
            WindowSpec.for_frequency("monthly")


class TestMakeWindows:
    def test_annual_observations(self):
        # one mid-year observation per year, 2000-2009: two-year windows
        # anchored at 2000-01-01 advance annually; the last one ends on
        # December 31 of the final observation's year
        dates = np.array([f"{y}-06-15" for y in range(2000, 2010)], dtype="datetime64[D]")
        s = ReturnSeries(values=np.linspace(0.01, 0.1, 10), dates=dates, frequency="daily")
        wins = make_windows(s, WindowSpec(window_years=2))
        assert len(wins) == 9
        assert wins[0].start == np.datetime64("2000-01-01")
        assert wins[0].end == np.datetime64("2001-12-31")
        assert wins[-1].start == np.datetime64("2008-01-01")
        assert wins[-1].end == np.datetime64("2009-12-31")
        assert all(w.hi - w.lo == 2 for w in wins)

    def test_weekly_quarter_century(self):
        dates = np.arange(
            np.datetime64("1990-12-03"), np.datetime64("2015-09-29"), 7
        ).astype("datetime64[D]")
        rng = np.random.default_rng(5)
        s = ReturnSeries(
            values=rng.standard_normal(len(dates)) * 0.02,
            dates=dates,
            frequency="weekly",
        )
        wins = make_windows(s, WindowSpec(window_years=5))
        assert len(wins) == 22
        assert wins[-1].end == np.datetime64("2015-12-31")
        interior = [w.hi - w.lo for w in wins[1:-1]]
        assert min(interior) >= 255 and max(interior) <= 262

    @given(
        n_years=st.integers(min_value=1, max_value=30),
        window=st.integers(min_value=1, max_value=8),
        step=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_count_formula(self, n_years, window, step):
        # only the first and last calendar years matter for the count
        first = np.datetime64("2000-03-17")
        last = np.datetime64(f"{2000 + n_years - 1}-02-01")
        dates = (
            np.array([first], dtype="datetime64[D]")
            if n_years == 1
            else np.array([first, last], dtype="datetime64[D]")
        )
        s = ReturnSeries(values=np.full(len(dates), 0.01), dates=dates, frequency="daily")
        wins = make_windows(s, WindowSpec(window_years=window, step_years=step))
        expected = 0 if n_years < window else (n_years - window) // step + 1
        assert len(wins) == expected
        for i, w in enumerate(wins):
            assert w.start == np.datetime64(f"{2000 + i * step}-01-01")
            assert w.end == np.datetime64(f"{2000 + i * step + window - 1}-12-31")

    def test_full_coverage_when_step_at_most_window(self):
        s = daily_series("2003-04-10", 1500, np.random.default_rng(7))
        wins = make_windows(s, WindowSpec(window_years=2, step_years=1))
        covered = set()
        for w in wins:
            covered.update(range(w.lo, w.hi))
        assert covered == set(range(len(s)))

    def test_observation_dates_inside_window(self):
        s = daily_series("2001-07-20", 900, np.random.default_rng(8))
        for w in make_windows(s, WindowSpec(window_years=1)):
            sub = s.dates[w.lo : w.hi]
            if len(sub):
                assert sub[0] >= w.start and sub[-1] <= w.end


class TestRunRolling:
    def test_rejects_unknown_test(self):
        s = daily_series("2000-01-03", 800, np.random.default_rng(9))
        with pytest.raises(ValueError, match="test must be one of"):
            run_rolling(s, WindowSpec(2), "ljung_box", BootstrapConfig(n_boot=9))
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be an integer >= 1"):
                run_rolling(s, WindowSpec(2), "avr", BootstrapConfig(n_boot=9), workers)

    def test_thin_window_marked_skipped(self):
        # 2001 has no data at all: its annual window must carry a marker
        d0 = np.datetime64("2000-02-01") + np.arange(60)
        d2 = np.datetime64("2002-02-01") + np.arange(60)
        rng = np.random.default_rng(10)
        s = ReturnSeries(
            values=rng.standard_normal(120) * 0.01,
            dates=np.concatenate([d0, d2]),
            frequency="daily",
        )
        res = run_rolling(
            s, WindowSpec(window_years=1), "avr", BootstrapConfig(n_boot=19, seed=0)
        )
        assert len(res.windows) == 3
        gap = res.windows[1]
        assert gap.outcome is None
        assert gap.skip_reason == "insufficient observations: 0 < 30"
        assert gap.significant_5pct is None
        assert gap.n_obs == 0
        assert res.windows[0].outcome is not None
        assert res.windows[2].outcome is not None

    def test_degenerate_window_marked_skipped(self):
        d0 = np.datetime64("2000-02-01") + np.arange(60)
        d1 = np.datetime64("2001-02-01") + np.arange(40)
        d2 = np.datetime64("2002-02-01") + np.arange(60)
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(60) * 0.01, rng.standard_normal(60) * 0.01
        # the mean of 40 x 0.013 does not round to 0.013, so the flat
        # window's centered values are not all zero
        for level in (0.004, 0.013):
            values = np.concatenate([noise[0], np.full(40, level), noise[1]])
            s = ReturnSeries(
                values=values, dates=np.concatenate([d0, d1, d2]), frequency="daily"
            )
            for test in ("avr", "gs"):
                res = run_rolling(
                    s, WindowSpec(window_years=1), test, BootstrapConfig(n_boot=19, seed=0)
                )
                flat = res.windows[1]
                assert flat.outcome is None, (level, test)
                assert flat.skip_reason == "degenerate series: zero sample variance"
                assert res.windows[0].outcome is not None

    def test_window_with_constant_replications_is_tested(self):
        # ten alternating values: Rademacher signs make 2 of window 0's 199
        # replications constant at seed 4, and the window is still tested
        s = make_series([0.01, -0.01] * 5)
        boot = BootstrapConfig(n_boot=199, multiplier="rademacher", seed=4)
        child = derive_seed(4, WINDOW_DOMAIN, 0)
        signs = [
            draw_multipliers(substream(child, AVR_DOMAIN, j), "rademacher", 10)
            for j in range(199)
        ]
        assert sum(np.ptp(eta * s.values) == 0.0 for eta in signs) == 2
        res = run_rolling(s, WindowSpec(window_years=1, min_observations=10), "avr", boot)
        (only,) = res.windows
        assert only.skip_reason is None
        assert only.outcome == avr_test(s, replace(boot, seed=child))

    def test_per_window_seeds_reconstructable(self):
        s = daily_series("2000-01-03", 3 * 365, np.random.default_rng(12))
        boot = BootstrapConfig(n_boot=29, multiplier="rademacher", seed=41)
        spec = WindowSpec(window_years=1, min_observations=30)
        res = run_rolling(s, spec, "avr", boot)
        wins = make_windows(s, spec)
        assert res.test == "avr"
        for w, (result, win) in enumerate(zip(res.windows, wins)):
            assert result.n_obs == win.hi - win.lo
            if result.n_obs < spec.min_observations:
                assert result.outcome is None
                continue
            child = BootstrapConfig(
                n_boot=29,
                multiplier="rademacher",
                seed=derive_seed(41, WINDOW_DOMAIN, w),
            )
            assert result.outcome == avr_test(s.slice(win.lo, win.hi), child)

    def test_gs_windows_match_direct_calls(self):
        s = daily_series("2000-01-03", 2 * 365, np.random.default_rng(13))
        boot = BootstrapConfig(n_boot=19, seed=6)
        spec = WindowSpec(window_years=1)
        res = run_rolling(s, spec, "gs", boot)
        wins = make_windows(s, spec)
        for w, (result, win) in enumerate(zip(res.windows, wins)):
            if win.hi - win.lo < spec.min_observations:
                assert result.outcome is None
                continue
            child = BootstrapConfig(n_boot=19, seed=derive_seed(6, WINDOW_DOMAIN, w))
            assert result.outcome == gs_test(s.slice(win.lo, win.hi), child)

    def test_worker_count_does_not_change_results(self):
        s = daily_series("2000-01-03", 4 * 365, np.random.default_rng(14))
        boot = BootstrapConfig(n_boot=39, seed=2)
        serial = run_rolling(s, WindowSpec(2), "avr", boot, workers=1)
        threaded = run_rolling(s, WindowSpec(2), "avr", boot, workers=3)
        assert serial == threaded

    def test_significance_rate_near_nominal_under_null(self):
        sim = generate(DgpSpec(kind="iid_normal", length=40 * 365, seed=123))
        res = run_rolling(
            sim,
            WindowSpec.for_frequency("daily"),
            "avr",
            BootstrapConfig(n_boot=199, seed=9),
        )
        assert len(res.windows) == 39
        flags = [w.significant_5pct for w in res.windows]
        assert all(f is not None for f in flags)
        assert sum(flags) / len(flags) <= 0.18
