"""Brute-force reference implementations used as test oracles.

Everything here is written for transparency, not speed: plain Python
loops, one-to-one with the defining formulas, kept deliberately
independent of the package's vectorized/compiled code paths.
"""

import csv
import datetime
import math
import re
import statistics
from fractions import Fraction

import numpy as np


def ref_autocorr(values, lag):
    """Lag-i autocorrelation: both sums explicit, demeaned by the full mean."""
    T = len(values)
    mu = sum(values) / T
    num = 0.0
    for t in range(T - lag):
        num += (values[t] - mu) * (values[t + lag] - mu)
    den = 0.0
    for t in range(T):
        den += (values[t] - mu) ** 2
    return num / den


def ref_qs_kernel(x):
    """Quadratic spectral kernel in its published 25/(12 pi^2 x^2) form."""
    if x == 0.0:
        return 1.0
    z = 6.0 * math.pi * x / 5.0
    return 25.0 / (12.0 * math.pi**2 * x**2) * (math.sin(z) / z - math.cos(z))


def ref_variance_ratio(values, k):
    T = len(values)
    vr = 1.0
    for i in range(1, T):
        vr += 2.0 * ref_qs_kernel(i / k) * ref_autocorr(values, i)
    return vr


def ref_bandwidth(values):
    T = len(values)
    rho1 = ref_autocorr(values, 1)
    alpha2 = 4.0 * rho1**2 / (1.0 - rho1) ** 4
    k = 1.3221 * (alpha2 * T) ** 0.2
    if not math.isfinite(k) or k < 1.0:
        return 1.0
    return k


def ref_avr_statistic(values):
    T = len(values)
    k = ref_bandwidth(values)
    vr = ref_variance_ratio(values, k)
    return math.sqrt(T / k) * (vr - 1.0) / math.sqrt(2.0), vr, k


def ref_gs_statistic(values, max_lag=None):
    """Triple-loop evaluation of the CvM norm, exactly as defined."""
    T = len(values)
    J = T - 1 if max_lag is None else max_lag
    total = []
    for j in range(1, J + 1):
        n = T - j
        ybar = sum(values[j:]) / n
        gamma = (T - j) / (j * math.pi) ** 2
        acc = []
        for t in range(j, T):
            for s in range(j, T):
                e_t = values[t] - ybar
                e_s = values[s] - ybar
                w = math.exp(-0.5 * (values[t - j] - values[s - j]) ** 2)
                acc.append(e_t * e_s * w)
        total.append(gamma * math.fsum(acc))
    return math.fsum(total)


def ref_gs_statistic_expm1(values, max_lag=None, first_lag=1):
    """The same triple loop, over lags first_lag..max_lag, with each weight
    split as 1 + expm1(.).

    The constant part contracts to (sum_t e_t)^2, which centering makes
    zero up to roundoff, and what remains is accurate to the data's own
    scale. ref_gs_statistic rounds weights near 1 and so loses digits on
    small data (relative error about eps / sd^2); this form does not, which
    makes it the oracle for errors far below 1e-10. Residuals are formed in
    rational arithmetic and rounded once, so a large mean costs no digits.
    """
    T = len(values)
    J = T - 1 if max_lag is None else max_lag
    total = []
    for j in range(first_lag, J + 1):
        n = T - j
        kept = [Fraction(v) for v in values[j:]]
        ybar = sum(kept, Fraction(0)) / n
        gamma = (T - j) / (j * math.pi) ** 2
        e = [float(v - ybar) for v in kept]
        acc = [math.fsum(e) ** 2]
        for a in range(n):
            for b in range(n):
                d = values[a] - values[b]
                acc.append(e[a] * e[b] * math.expm1(-0.5 * d * d))
        total.append(gamma * math.fsum(acc))
    return math.fsum(total)


def ref_gs_truncated_masses(values, max_lags):
    """Statistic mass of lags J+1..T-1, dropped by truncation at J, for
    each J in max_lags. Each lag term is evaluated once."""
    T = len(values)
    terms = [ref_gs_statistic_expm1(values, j, first_lag=j) for j in range(1, T)]
    return [math.fsum(terms[J:]) for J in max_lags]


def ref_gs_sum_abs_bound(values, max_lag):
    """A loose bound on the truncated mass: gamma_j * (sum_t |e_t^(j)|)^2
    per omitted lag, using that every Gram entry lies in (0, 1]."""
    values = np.asarray(values, dtype=np.float64)
    T = len(values)
    J = max_lag
    bound = 0.0
    for j in range(J + 1, T):
        c = values[j:] - values[j:].mean()
        s = float(np.abs(c).sum())
        bound += (T - j) / (j * np.pi) ** 2 * s * s
    return bound


def ref_full_rank(fit, eta):
    """Full-rank GS bootstrap statistics of the multiplier rows of ``eta``
    (m x T), prepared from the multipliers and the fit's unrotated factor.

    For lag j and factor column k, u*_jk = xcorr(L_k, eta*z)[j] - shift_j *
    xcorr(L_k, eta)[j] - mean_j(eta * e^(j)) * prefix_k(T - j), and a
    replication is sum_j gamma_j sum_k u*_jk^2. L's spectra and prefix sums
    are taken from ``fit.factor``, the factor the statistic was summed from.
    The values agree with the package's rotated ones up to roundoff, far
    inside the bootstrap's tie slack, so ``ref_count_reaching`` over them
    gives the package's exceedance count unless a value lies within
    roundoff of the tie band's edge.
    """
    J = len(fit.weight)
    m = len(eta)
    spectra = np.conj(np.fft.rfft(fit.factor, fit.nfft))
    prefix = np.cumsum(fit.factor, axis=1)[:, fit.counts - 1]
    inputs = np.concatenate([eta * fit.z, eta])
    spec = np.fft.rfft(inputs, fit.nfft)
    corr = np.fft.irfft(spec[:, None, :] * spectra, fit.nfft)[..., 1 : J + 1]
    # sum_{t >= j} of each row, for j = 1..J
    tails = np.cumsum(inputs[:, :0:-1], axis=1)[:, ::-1][:, :J]
    mean = (tails[:m] - fit.shift * tails[m:]) / fit.counts
    u = corr[:m] - (corr[m:] * fit.shift + mean[:, None, :] * prefix)
    return (np.einsum("bkj,bkj->bj", u, u) * fit.weight).sum(axis=1)


def ref_count_reaching(full, statistic, slack):
    """How many bootstrap values reach the statistic D^2, ties counted: a
    value counts when it is at least D^2 - slack * (D^2 + value), so one
    within roundoff below D^2 reaches it, as the add-one rule's >= intends."""
    full = np.asarray(full, dtype=np.float64)
    return int(np.count_nonzero(full >= statistic - slack * (statistic + full)))


def ref_jarque_bera(values):
    """Population-convention moments: divide-by-T variance, raw kurtosis."""
    T = len(values)
    mu = sum(values) / T
    m2 = sum((v - mu) ** 2 for v in values) / T
    m3 = sum((v - mu) ** 3 for v in values) / T
    m4 = sum((v - mu) ** 4 for v in values) / T
    skew = m3 / m2**1.5
    kurt = m4 / m2**2
    return T / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)


def random_series_values(rng, T):
    """Generic heavy-ish tailed test series; scaled to return-like size."""
    values = rng.standard_normal(T) * 0.02
    values += 0.005 * rng.standard_t(df=5, size=T)
    return values


def _year(date):
    return date.astype("datetime64[Y]").astype(int) + 1970


def ref_windows(dates, window_years, step_years):
    """Calendar windows (start, inclusive end, lo, hi), one year at a time.

    Window i covers [anchor + i*step, anchor + i*step + window) in years,
    anchored at January 1 of the first date's year, while its open end is
    no later than January 1 of the year after the last date's. A
    ``window_years`` of None is 5 when the median day count between
    consecutive dates is 7 or more, else 2 (also with no gap at all).
    """
    if window_years is None:
        days = [d.toordinal() for d in dates.astype(object)]
        gaps = [b - a for a, b in zip(days, days[1:])]
        window_years = 5 if gaps and statistics.median(gaps) >= 7 else 2
    anchor = _year(dates[0])
    last = _year(dates[-1])
    windows = []
    i = 0
    while True:
        start_year = anchor + i * step_years
        end_year = start_year + window_years
        if end_year > last + 1:
            break
        start = np.datetime64(f"{start_year:04d}-01-01", "D")
        end_open = np.datetime64(f"{end_year:04d}-01-01", "D")
        lo = int(np.searchsorted(dates, start, side="left"))
        hi = int(np.searchsorted(dates, end_open, side="left"))
        windows.append((start, end_open - np.timedelta64(1, "D"), lo, hi))
        i += 1
    return windows


def ref_load_wide(path):
    """A wide CSV panel as (dates, instruments, returns), one row at a time.

    Each row becomes its own float array with NaN for blank cells; the rows
    are stacked into a matrix whose present cells, found by ``np.nonzero``,
    give the long form date-major in column order. Input must be valid.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        ids = [c.strip() for c in next(reader)[1:]]
        days, cells = [], []
        for row in reader:
            days.append(row[0].strip())
            cells.append(np.array(
                [float(c) if c.strip() else math.nan for c in row[1:]]
            ))
    matrix = np.array(cells, dtype=np.float64).reshape(len(cells), len(ids))
    rows, cols = np.nonzero(~np.isnan(matrix))
    dates = np.array(days, dtype="datetime64[D]")[rows]
    instruments = np.array(ids, dtype=object)[cols]
    return dates, instruments, matrix[rows, cols]


def ref_load_long(path):
    """A long CSV panel as (dates, instruments, returns), one row at a time.

    Each record is checked as it is read, and a ``seen`` dict keeps the
    line of each (date, instrument) pair. A repeated pair is raised only
    after the last record, so a malformed field anywhere in the file is
    reported first. Faults are ValueErrors worded as ``load_panel``'s
    PanelErrors, naming the line where the record starts (a quoted field
    may span lines). The header must be ``date,instrument,return``.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        assert [c.strip() for c in next(reader)] == ["date", "instrument", "return"]
        days, ids, returns, seen, repeat = [], [], [], {}, None
        while True:
            line = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                break
            where = f"{path}: line {line}"
            if len(row) != 3:
                raise ValueError(f"{where}: expected 3 fields, got {len(row)}")
            text = row[0].strip()
            try:
                if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
                    raise ValueError
                day = datetime.date(int(text[:4]), int(text[5:7]), int(text[8:]))
            except ValueError:
                raise ValueError(f"{where}: invalid ISO-8601 date {row[0]!r}") from None
            instrument = row[1].strip()
            if not instrument:
                raise ValueError(f"{where}: empty instrument id")
            try:
                value = float(row[2])
            except ValueError:
                raise ValueError(f"{where}: invalid return {row[2]!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: non-finite return {row[2]!r}")
            pair = (day.isoformat(), instrument)
            if pair in seen and repeat is None:
                repeat = f"{pair} at lines {seen[pair]} and {line}"
            seen.setdefault(pair, line)
            days.append(day)
            ids.append(instrument)
            returns.append(value)
    if repeat is not None:
        raise ValueError(f"{path}: duplicate (date, instrument) {repeat}")
    return (
        np.array(days, dtype="datetime64[D]"),
        np.array(ids, dtype=object),
        np.array(returns, dtype=np.float64),
    )


def ref_equal_weight(dates, returns):
    """(sorted distinct dates, mean return on each) through ``return_inverse``."""
    unique_dates, inverse = np.unique(dates, return_inverse=True)
    sums = np.bincount(inverse, weights=returns, minlength=len(unique_dates))
    counts = np.bincount(inverse, minlength=len(unique_dates))
    return unique_dates, sums / counts
