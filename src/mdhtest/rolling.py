"""Calendar rolling-window engine over either test.

Windows are half-open calendar-year intervals anchored at January 1 of the
first observation's year and advanced in whole-year steps, so boundaries do
not depend on the first trading day. Unless a width is given, it comes from
the dates: 5 years for weekly data and 2 for daily, a few hundred
observations either way. Each window gets its own bootstrap
seed derived from (master seed, window index): results are identical
whether windows run serially or in parallel, and a re-run with the same
seed reproduces every window bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Union

import numpy as np

from .avr import AvrOutcome, avr_test
from .bootstrap import WINDOW_DOMAIN, BootstrapConfig, derive_seed
from .gs import GsOutcome, gs_test
from .series import FREQUENCIES, ReturnSeries, _choice, _count

TESTS = ("avr", "gs")
# default window widths in years, for daily and for weekly dates
_YEARS = {"daily": 2, "weekly": 5}


@dataclass(frozen=True)
class WindowSpec:
    """Rolling-window geometry: width and stride in calendar years.

    ``window_years=None`` takes the width from the dates, in
    :func:`make_windows`. Widths and strides are at most 10**6 years.
    """

    window_years: Optional[int] = None
    step_years: int = 1
    min_observations: int = 30

    def __post_init__(self):
        for name, low, high in (
            ("window_years", 1, 10**6), ("step_years", 1, 10**6),
            ("min_observations", 10, None),
        ):
            value = getattr(self, name)
            if value is not None or name != "window_years":  # None: from the dates
                object.__setattr__(self, name, _count(value, name, low, high))

    @classmethod
    def for_frequency(cls, frequency: str) -> "WindowSpec":
        """Defaults sized to give a few hundred observations per window."""
        _choice(frequency, FREQUENCIES, "frequency")
        return cls(_YEARS[frequency])


class Window(NamedTuple):
    """One calendar window: inclusive date bounds plus the index range."""

    start: np.datetime64
    end: np.datetime64
    lo: int
    hi: int


@dataclass(frozen=True)
class WindowResult:
    """Outcome of one window, or a skip marker explaining its absence."""

    start: np.datetime64
    end: np.datetime64
    n_obs: int
    outcome: Optional[Union[AvrOutcome, GsOutcome]]
    skip_reason: Optional[str]

    @property
    def significant_5pct(self) -> Optional[bool]:
        if self.outcome is None:
            return None
        return self.outcome.p_value < 0.05


@dataclass(frozen=True)
class RollingResult:
    """Ordered per-window outcomes for one test over one series."""

    test: str
    windows: tuple


def make_windows(series: ReturnSeries, spec: WindowSpec) -> list:
    """Enumerate calendar windows and their observation index ranges.

    Window i covers [anchor + i*step, anchor + i*step + window) in years,
    anchored at January 1 of the first observation's year. The last window
    is the last one whose inclusive end falls on or before December 31 of
    the last observation's year. Reported end dates are the inclusive final
    day. A window may map to an empty index range (data gaps); the caller
    decides how to treat thin windows.

    With ``spec.window_years`` None, windows are 5 years wide when the
    median gap between consecutive dates is 7 days or more, else 2 years
    (also for a one-date series).
    """
    dates = series.dates
    width = spec.window_years
    if width is None:
        # The median date gap is 1 day in daily data, week-long holidays or
        # not, and 7 in weekly data. Data with two dates a week have gaps
        # that sum to 7 and a median of at most 6, so they take the daily
        # windows
        weekly = len(dates) > 1 and np.median(np.diff(dates).astype(int)) >= 7
        width = _YEARS["weekly" if weekly else "daily"]
    first, last = dates[[0, -1]].astype("datetime64[Y]")
    years = np.arange(first, last + 2 - width, spec.step_years)
    starts = years.astype("datetime64[D]")
    ends = (years + width).astype("datetime64[D]")
    lo = np.searchsorted(dates, starts).tolist()
    hi = np.searchsorted(dates, ends).tolist()
    inclusive = ends - np.timedelta64(1, "D")
    return [Window(*w) for w in zip(starts, inclusive, lo, hi)]


def run_rolling(
    series: ReturnSeries,
    spec: WindowSpec,
    test: str,
    boot: BootstrapConfig,
    workers: int = 1,
) -> RollingResult:
    """Apply one test per window; thin or degenerate windows become markers.

    ``workers`` threads (at least 1) run the windows. Window w's bootstrap
    seed is ``derive_seed(boot.seed, WINDOW_DOMAIN, w)``, so the full result
    depends only on (series, spec, test, boot), not on scheduling or
    ``workers``.
    """
    _choice(test, TESTS, "test")
    workers = _count(workers, "workers", 1)
    windows = make_windows(series, spec)

    def one_window(w: int) -> WindowResult:
        win = windows[w]
        n = win.hi - win.lo
        outcome = skip_reason = None
        if n < spec.min_observations:
            skip_reason = f"insufficient observations: {n} < {spec.min_observations}"
        else:
            child = replace(boot, seed=derive_seed(boot.seed, WINDOW_DOMAIN, w))
            sub = series.slice(win.lo, win.hi)
            run_test = avr_test if test == "avr" else gs_test
            try:
                outcome = run_test(sub, child)
            except ValueError as exc:
                skip_reason = str(exc)
        return WindowResult(
            start=win.start, end=win.end, n_obs=n, outcome=outcome,
            skip_reason=skip_reason,
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(one_window, range(len(windows))))
    return RollingResult(test=test, windows=tuple(results))
