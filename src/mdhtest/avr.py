"""Wild-bootstrap automatic variance ratio test.

The statistic is a quadratic-spectral-kernel weighted sum of all sample
autocorrelations, standardized so that it is asymptotically standard normal
under serial uncorrelatedness. The smoothing scale (bandwidth) is chosen
from the data by the AR(1) plug-in rule, and inference comes from a wild
bootstrap that multiplies the observations by external mean-0 variance-1
noise, re-running the full pipeline (bandwidth re-selection included) on
every replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import AVR_DOMAIN, BootstrapConfig, draw_multipliers, substream
from .series import ReturnSeries, autocorrelations

# AR(1) plug-in constant for the quadratic spectral kernel.
_QS_BANDWIDTH_CONST = 1.3221

# Below this |6*pi*x/5| the closed form cancels badly; use its Taylor series.
_QS_SMALL_Z = 0.05


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

    m(x) = 3/z^2 * (sin z / z - cos z) with z = 6*pi*x/5, and m(0) = 1 by
    the analytic limit. Even in x, peak value 1 at the origin.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    z = 1.2 * np.pi * x_arr
    z2 = z * z
    out = np.empty_like(z)
    small = np.abs(z) < _QS_SMALL_Z
    zs2 = z2[small]
    out[small] = 1.0 - zs2 / 10.0 + zs2 * zs2 / 280.0 - zs2**3 / 15120.0
    zb = z[~small]
    out[~small] = 3.0 / (zb * zb) * (np.sin(zb) / zb - np.cos(zb))
    if np.ndim(x) == 0:
        return float(out)
    return out


def _bandwidth_from_rho1(rho1: float, n_obs: int) -> float:
    """AR(1) plug-in bandwidth; floored at 1 when smaller or non-finite."""
    denominator = (1.0 - rho1) ** 4
    alpha = math.inf if denominator == 0.0 else 4.0 * rho1**2 / denominator
    k = _QS_BANDWIDTH_CONST * (alpha * n_obs) ** 0.2
    if not math.isfinite(k) or k < 1.0:
        return 1.0
    return k


def _pipeline(values: np.ndarray) -> tuple[float, float, float]:
    """(statistic, vr, bandwidth) of the full automatic pipeline on raw values."""
    T = len(values)
    rho = autocorrelations(values)
    bandwidth = _bandwidth_from_rho1(float(rho[0]), T)
    weights = qs_kernel(np.arange(1, T, dtype=np.float64) / bandwidth)
    vr = 1.0 + 2.0 * float(weights @ rho)
    statistic = math.sqrt(T / bandwidth) * (vr - 1.0) / math.sqrt(2.0)
    return statistic, vr, bandwidth


def variance_ratio(series: ReturnSeries, k: float) -> float:
    """Kernel-weighted variance ratio VR(k) over all T-1 lags, no truncation."""
    T = len(series)
    if T < 4:
        raise ValueError(f"need at least 4 observations, got {T}")
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"holding period k must be positive, got {k}")
    rho = autocorrelations(series.values)
    weights = qs_kernel(np.arange(1, T, dtype=np.float64) / k)
    return 1.0 + 2.0 * float(weights @ rho)


def auto_bandwidth(series: ReturnSeries) -> float:
    """Data-dependent bandwidth k-hat from the lag-1 autocorrelation."""
    T = len(series)
    if T < 4:
        raise ValueError(f"need at least 4 observations, got {T}")
    rho1 = float(autocorrelations(series.values, max_lag=1)[0])
    return _bandwidth_from_rho1(rho1, T)


def avr_statistic(series: ReturnSeries) -> tuple[float, float, float]:
    """(statistic, vr, bandwidth) with the automatic bandwidth choice."""
    T = len(series)
    if T < 4:
        raise ValueError(f"need at least 4 observations, got {T}")
    return _pipeline(series.values)


def avr_test(
    series: ReturnSeries, boot: BootstrapConfig, workers: int = 1
) -> AvrOutcome:
    """AVR test with wild-bootstrap p-value and confidence band.

    Each replication j multiplies the series by fresh noise from
    ``substream(boot.seed, AVR_DOMAIN, j)`` and recomputes the entire
    pipeline, bandwidth re-selection included. The two-sided p-value uses the
    add-one rule; the band is the 2.5/97.5 percentile pair of the bootstrap
    statistics. Replications run one after another: ``workers`` is accepted
    for a stable API but ignored, because only rolling windows run in
    parallel (``run_rolling``).
    """
    T = len(series)
    if T < 4:
        raise ValueError(f"need at least 4 observations, got {T}")
    values = series.values
    statistic, vr, bandwidth = _pipeline(values)
    boot_stats = np.empty(boot.n_boot)
    for j in range(boot.n_boot):
        eta = draw_multipliers(substream(boot.seed, AVR_DOMAIN, j), boot.multiplier, T)
        boot_stats[j] = _pipeline(eta * values)[0]
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
