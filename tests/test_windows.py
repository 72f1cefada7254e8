"""make_windows against the year-by-year loop of ``reference.ref_windows``.

Needs only numpy and pytest, so the oldest supported numpy can run it: the
window rule rests on datetime64[Y] ranges and casts.
"""

import numpy as np
import pytest

from mdhtest import ReturnSeries, WindowSpec, make_windows
from reference import ref_windows

DAY = np.dtype("datetime64[D]")


def assert_same_windows(dates, window_years, step_years):
    series = ReturnSeries(
        values=np.zeros(len(dates)), dates=dates, frequency="daily"
    )
    got = make_windows(series, WindowSpec(window_years, step_years))
    want = ref_windows(series.dates, window_years, step_years)
    assert len(got) == len(want)
    for w, (start, end, lo, hi) in zip(got, want):
        assert isinstance(w.start, np.datetime64) and w.start.dtype == DAY
        assert isinstance(w.end, np.datetime64) and w.end.dtype == DAY
        assert type(w.lo) is int and type(w.hi) is int
        assert (w.start, w.end, w.lo, w.hi) == (start, end, lo, hi)
    return len(got)


@pytest.mark.parametrize("seed", range(6))
def test_random_grid_matches_loop(seed):
    # first dates 1900-2064, gaps of 1-400 days, 1-400 observations,
    # window_years 1-7 and step_years 1-5: 500 series per seed
    rng = np.random.default_rng(seed)
    first = np.datetime64("1900-01-01", "D")
    span = (np.datetime64("2065-01-01", "D") - first).astype(int)
    windows = 0
    for _ in range(500):
        n = int(rng.integers(1, 401))
        gaps = rng.integers(1, 401, size=n - 1)
        start = first + int(rng.integers(0, span))
        dates = start + np.concatenate(([0], np.cumsum(gaps)))
        windows += assert_same_windows(
            dates, int(rng.integers(1, 8)), int(rng.integers(1, 6))
        )
    assert windows > 15000


@pytest.mark.parametrize("window_years", [1, 2, 3, 7])
@pytest.mark.parametrize("step_years", [1, 2, 5])
@pytest.mark.parametrize(
    "first, last",
    [
        ("2000-01-01", "2000-01-01"),  # one observation
        ("2000-01-01", "2000-12-31"),  # one full calendar year
        ("1999-12-31", "2000-01-01"),  # two days, two calendar years
        ("1969-12-31", "1970-01-01"),  # across the datetime64 epoch
        ("1900-03-01", "1906-12-31"),  # last date on December 31
        ("2010-06-15", "2017-01-01"),  # last date on January 1
    ],
)
def test_edge_dates_match_loop(first, last, window_years, step_years):
    dates = np.array([first, last], dtype=DAY)
    assert_same_windows(np.unique(dates), window_years, step_years)
