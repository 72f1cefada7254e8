"""Return-series container and the shared moment/autocorrelation estimators.

Everything downstream (variance-ratio and spectral tests, rolling windows)
consumes the :class:`ReturnSeries` defined here. Moment estimators use the
population convention (divide by T, kurtosis raw, not excess): that is the
convention under which the Jarque-Bera statistic recomputed from published
(size, skew, kurt) triples matches the reference values.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

FREQUENCIES = ("daily", "weekly")

# np.correlate (direct MAC loop) up to this length, FFT above. The direct
# loop costs O(T^2) and the FFT O(T log T). Timing avr_test (B = 199, GARCH
# series, 2-vCPU x86-64 VM, numpy 2.4.6) FFT-only against direct-only, two
# runs of 8 to 12 interleaved rounds: on one thread the FFT is 6-10% slower
# at T = 364, level near 420 to 450, and 11-12% faster at 520 and 17-19% at
# 600. But eight tests on two threads, as `roll --workers 2` runs windows,
# take 33-50% longer on the FFT at T = 520, 36-42% at 600 and 15-19% at
# 730, and 11% less at 1000. So two-year windows of daily data (about 520
# observations) stay on the direct loop. Moving the limit moves the last
# bits of results for the lengths it passes over.
_DIRECT_ACV_LIMIT = 600


class DegenerateSeriesError(ValueError):
    """Raised when a computation requires positive sample variance."""


def _as_dates(dates, error=ValueError) -> np.ndarray:
    """``dates`` as datetime64[D]; an ``error`` if unparseable or NaT."""
    try:
        dates = np.asarray(dates, dtype="datetime64[D]")
    except (ValueError, TypeError) as exc:
        raise error(f"dates are not parseable as calendar dates: {exc}") from None
    missing = np.flatnonzero(np.isnat(dates))
    if len(missing):
        raise error(f"date at position {missing[0]} is NaT, not a calendar date")
    return dates


@dataclass(frozen=True)
class ReturnSeries:
    """Ordered, dated sequence of simple returns at a declared frequency.

    Invariants enforced at construction: values and dates have equal length
    >= 1, dates are strictly increasing, and every value is finite.
    """

    values: np.ndarray
    dates: np.ndarray
    frequency: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        dates = _as_dates(self.dates)
        if values.ndim != 1 or dates.ndim != 1:
            raise ValueError("values and dates must be one-dimensional")
        if len(values) != len(dates):
            raise ValueError(
                f"values and dates differ in length ({len(values)} vs {len(dates)})"
            )
        if len(values) == 0:
            raise ValueError("a return series needs at least one observation")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(f"non-finite return at position {bad}")
        if len(dates) > 1 and not np.all(dates[1:] > dates[:-1]):
            bad = int(np.flatnonzero(dates[1:] <= dates[:-1])[0])
            raise ValueError(
                f"dates must be strictly increasing (violation at position {bad + 1})"
            )
        _choice(self.frequency, FREQUENCIES, "frequency")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", dates)

    def __len__(self) -> int:
        return len(self.values)

    def slice(self, lo: int, hi: int) -> "ReturnSeries":
        """Contiguous sub-series over index range [lo, hi)."""
        if not 0 <= lo < hi <= len(self):
            raise ValueError(f"invalid slice [{lo}, {hi}) for length {len(self)}")
        return ReturnSeries(self.values[lo:hi], self.dates[lo:hi], self.frequency)


@dataclass(frozen=True)
class MomentSummary:
    """Descriptive statistics of one series, population-style estimators."""

    size: int
    mean: float
    std: float
    skewness: float
    kurtosis: float  # raw, not excess
    jarque_bera: float
    jb_p: float


def jarque_bera_from_moments(size: int, skewness: float, kurtosis: float) -> float:
    """JB statistic from sample size, skewness and raw kurtosis."""
    return size / 6.0 * (skewness**2 + (kurtosis - 3.0) ** 2 / 4.0)


def describe(series: ReturnSeries) -> MomentSummary:
    """Moment summary plus Jarque-Bera normality statistic.

    Requires at least 4 observations, not all equal; the JB p-value uses
    the asymptotic chi-square(2) upper tail, exp(-JB/2) in closed form.
    """
    values = _checked(series.values, 4)
    n = len(values)
    mean = float(values.mean())
    d = values - mean
    # exact power-of-two scaling to max |d| in [0.5, 1): no d**4 under/overflow
    scale = math.frexp(np.max(np.abs(d)))[1]
    d = np.ldexp(d, -scale)
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    skewness = m3 / m2**1.5
    kurtosis = m4 / m2**2
    jb = jarque_bera_from_moments(n, skewness, kurtosis)
    jb_p = math.exp(-jb / 2.0)
    return MomentSummary(
        size=n,
        mean=mean,
        std=math.ldexp(math.sqrt(m2), scale),
        skewness=skewness,
        kurtosis=kurtosis,
        jarque_bera=jb,
        jb_p=jb_p,
    )


def _checked(values: np.ndarray, min_obs: int) -> np.ndarray:
    """``values`` if at least ``min_obs`` long and not all equal; else raises."""
    T = len(values)
    if T < min_obs:
        raise ValueError(f"need at least {min_obs} observations, got {T}")
    if np.ptp(values) == 0.0:
        raise DegenerateSeriesError("degenerate series: zero sample variance")
    return values


def _demeaned(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Centered values and their sum of squares; errors if degenerate.

    T equal values give a mean off by at most T u |mean| (u = eps/2), and
    centered values all equal to that error, so den <= T (T u mean)^2. The
    exact all-equal test runs only when den <= T (T eps mean)^2, four times
    that; 200 000 constant series (T <= 20 000) had mean errors of at most
    4.6 eps |mean|.
    """
    T = len(values)
    # the same sum and division as values.mean(), bit for bit, in under half
    # of its time here: a bootstrap centers every replication
    mean = values.sum() / T
    d = values - mean
    den = float(d @ d)
    rounding = T * 2.0**-52 * float(mean)  # a product: overflow gives inf
    if den <= T * rounding * rounding:
        _checked(values, 2)
    if den <= 0.0:
        raise DegenerateSeriesError("degenerate series: zero sample variance")
    return d, den


@functools.lru_cache  # a bootstrap asks B times for one length; 128 are kept
def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length the FFT factors fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _count(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high]; a float, str or bool is a ValueError."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low or (high is not None and n > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(n)


def _real(value, name: str) -> float:
    """``value`` as a float if it is a finite real (not a bool); else a ValueError."""
    v = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not math.isfinite(v):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return v


def _choice(value, options: tuple, name: str):
    """``value`` if it is one of ``options``; otherwise a ValueError."""
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def autocorr(series: ReturnSeries, lag: int) -> float:
    """Sample autocorrelation at one lag, read from :func:`autocorrelations`.

    rho(lag) = sum_{t<=T-lag} (Y_t - mu)(Y_{t+lag} - mu) / sum_t (Y_t - mu)^2
    with mu the full-sample mean.
    """
    values = _checked(series.values, 2)
    lag = _count(lag, "lag", 1, len(values) - 1)
    return float(autocorrelations(values)[lag - 1])


def autocorrelations(values: np.ndarray) -> np.ndarray:
    """Sample autocorrelations for lags 1..T-1, as one array.

    The one autocorrelation estimator: :func:`autocorr` returns one lag of
    it. All lags are computed jointly, by a direct correlation for short
    series and via FFT beyond ``_DIRECT_ACV_LIMIT`` observations.
    """
    values = np.asarray(values, dtype=np.float64)
    T = len(values)
    if T < 2:
        raise ValueError(f"need at least 2 observations, got {T}")
    d, den = _demeaned(values)
    if T <= _DIRECT_ACV_LIMIT:
        # The lags 0..T-1: one length-T dot product each, d against its
        # shift into T-1 zeros, not the 2T-1 of a full correlation.
        acv = np.correlate(np.concatenate((d, np.zeros(T - 1))), d, mode="valid")
    else:
        n = _fast_len(2 * T - 1)
        spec = np.fft.rfft(d, n)
        acv = np.fft.irfft(spec * np.conj(spec), n)[:T]
    return acv[1:] / den
