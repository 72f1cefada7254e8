"""Wild-bootstrap automatic variance ratio test.

The statistic is a quadratic-spectral-kernel weighted sum of all sample
autocorrelations, standardized so that it is asymptotically standard normal
under serial uncorrelatedness. The smoothing scale (bandwidth) is chosen
from the data by the AR(1) plug-in rule, and inference comes from a wild
bootstrap that multiplies the observations by external mean-0 variance-1
noise, re-running the full pipeline (bandwidth re-selection included) on
every replication.

The statistic is computed a block of autocorrelation rows at a time: one
vectorized pass gives every row its own plug-in bandwidth, QS weights and
kernel sum, with element-wise operations and row-wise sums only, so a
row's value does not depend on the rows beside it. The observed statistic
is a block of one row. The bootstrap fills blocks of ``_CHUNK_BYTES``,
one replication per row, so working memory stays O(T) for long series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import AVR_DOMAIN, BootstrapConfig, _substreams, draw_multipliers
# perfbench/workloads.py patches avr.substream, so the name stays bound here
from .bootstrap import substream  # noqa: F401
from .series import DegenerateSeriesError
from .series import ReturnSeries, _checked, _real, autocorrelations

# AR(1) plug-in constant for the quadratic spectral kernel.
_QS_BANDWIDTH_CONST = 1.3221

# Below this |6*pi*x/5| the closed form cancels badly; use its Taylor series.
# z^2 < its square exactly when |z| < it: the square rounds above the square
# of the next float down, and rounding is monotone.
_QS_SMALL_Z = 0.05
_QS_SMALL_Z2 = _QS_SMALL_Z * _QS_SMALL_Z

# Bytes of bootstrap autocorrelations per chunk: 32 replications at T = 250,
# 15 at T = 520, one at T >= 8192, so working memory stays O(T).
_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True)
class AvrOutcome:
    """One AVR test run: statistic, ratio, bandwidth and bootstrap inference."""

    statistic: float
    vr: float
    bandwidth: float
    p_value: float
    ci_low: float
    ci_high: float
    n_boot: int


def qs_kernel(x):
    """Quadratic spectral kernel weight m(x); vectorizes over arrays.

    m(x) = 3/z^2 * (sin z / z - cos z) with z = 6*pi*x/5, m(0) = 1 and
    m(+-inf) = 0 by the analytic limits. Even in x, peak value 1 at the origin.
    """
    # The closed form runs on every element, the few small and infinite ones
    # included (z = 0 and z = inf give nan there), and the Taylor series and
    # the limit 0 overwrite those.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = 1.2 * np.pi * np.atleast_1d(np.asarray(x, dtype=np.float64))
        z2 = z * z
        out = 3.0 / z2 * (np.sin(z) / z - np.cos(z))
    small = z2 < _QS_SMALL_Z2
    if small.any():
        zs2 = z2[small]
        out[small] = 1.0 - zs2 / 10.0 + zs2 * zs2 / 280.0 - zs2**3 / 15120.0
    huge = np.isinf(z2)
    if huge.any():
        out[huge] = 0.0
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def _bandwidth_from_rho1(rho1: np.ndarray, n_obs: int) -> np.ndarray:
    """AR(1) plug-in bandwidths for an array of lag-1 autocorrelations.

    Each is floored at 1 when smaller or non-finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = 4.0 * rho1**2 / (1.0 - rho1) ** 4
        k = _QS_BANDWIDTH_CONST * (alpha * n_obs) ** 0.2
    k[~(np.isfinite(k) & (k >= 1.0))] = 1.0
    return k


def _variance_ratios(rho: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """1 + 2 sum_i m(i/k) rho(i) for each row of a (rows, T-1) block.

    Element-wise products and a row-wise ``sum(axis=1)``, never a matrix
    product, so a row's value does not depend on the rows beside it.
    """
    lags = np.arange(1, rho.shape[1] + 1, dtype=np.float64)
    return 1.0 + 2.0 * (qs_kernel(lags / bandwidth[:, None]) * rho).sum(axis=1)


def _chunk_statistics(rho: np.ndarray, n_obs: int):
    """(statistic, vr, bandwidth) arrays for a (rows, T-1) autocorrelation block.

    Each row re-selects its own plug-in bandwidth.
    """
    bandwidth = _bandwidth_from_rho1(rho[:, 0], n_obs)
    vr = _variance_ratios(rho, bandwidth)
    statistic = np.sqrt(n_obs / bandwidth) * (vr - 1.0) / math.sqrt(2.0)
    return statistic, vr, bandwidth


def variance_ratio(series: ReturnSeries, k: float) -> float:
    """Kernel-weighted variance ratio VR(k) over all T-1 lags, no truncation."""
    values = _checked(series.values, 4)
    period = _real(k, "holding period k")
    if period <= 0:
        raise ValueError(f"holding period k must be positive, got {k}")
    rho = autocorrelations(values)
    with np.errstate(over="ignore"):  # lags / a tiny period overflow to inf
        return float(_variance_ratios(rho[None, :], np.array([period]))[0])


def auto_bandwidth(series: ReturnSeries) -> float:
    """Data-dependent bandwidth k-hat from the lag-1 autocorrelation."""
    values = _checked(series.values, 4)
    rho1 = autocorrelations(values, max_lag=1)
    return float(_bandwidth_from_rho1(rho1, len(values))[0])


def avr_statistic(series: ReturnSeries) -> tuple[float, float, float]:
    """(statistic, vr, bandwidth) with the automatic bandwidth choice."""
    values = _checked(series.values, 4)
    rho = autocorrelations(values)
    statistic, vr, bandwidth = _chunk_statistics(rho[None, :], len(values))
    return float(statistic[0]), float(vr[0]), float(bandwidth[0])


def avr_test(series: ReturnSeries, boot: BootstrapConfig) -> AvrOutcome:
    """AVR test with wild-bootstrap p-value and confidence band.

    Each replication j multiplies the series by fresh noise from
    ``substream(boot.seed, AVR_DOMAIN, j)`` (derived in bulk by
    ``_substreams``) and recomputes the entire pipeline, bandwidth
    re-selection included. Replications run in chunks of
    ``_CHUNK_BYTES // (8 (T-1))`` rows (at least one): the noise and the
    autocorrelations are computed one replication at a time, then one
    vectorized pass gives the chunk's bandwidths, QS weights and statistics.
    A replication's statistic is bit-identical whatever chunk it falls in.
    A replication that comes out constant counts as uncorrelated (statistic 0).
    The two-sided p-value uses the add-one rule; the band is the 2.5/97.5
    percentile pair of the bootstrap statistics.
    """
    statistic, vr, bandwidth = avr_statistic(series)
    values = series.values
    T = len(values)
    rows = min(boot.n_boot, max(1, _CHUNK_BYTES // (8 * (T - 1))))
    rho = np.empty((rows, T - 1))
    boot_stats = np.empty(boot.n_boot)
    streams = _substreams(boot.seed, AVR_DOMAIN, 0, boot.n_boot)
    for start in range(0, boot.n_boot, rows):
        stop = min(start + rows, boot.n_boot)
        for i, rng in zip(range(stop - start), streams):
            eta = draw_multipliers(rng, boot.multiplier, T)
            try:
                rho[i] = autocorrelations(eta * values)
            except DegenerateSeriesError:
                # a constant replication (Rademacher signs on equal |values|)
                # has no serial correlation: bandwidth 1, VR 1, statistic 0
                rho[i] = 0.0
        boot_stats[start:stop] = _chunk_statistics(rho[: stop - start], T)[0]
    exceed = int(np.sum(np.abs(boot_stats) >= abs(statistic)))
    p_value = (1.0 + exceed) / (boot.n_boot + 1.0)
    ci_low, ci_high = np.percentile(boot_stats, [2.5, 97.5])
    return AvrOutcome(
        statistic=statistic,
        vr=vr,
        bandwidth=bandwidth,
        p_value=p_value,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_boot=boot.n_boot,
    )
