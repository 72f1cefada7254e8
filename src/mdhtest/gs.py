"""Generalized spectral test for nonlinear conditional-mean dependence.

The statistic aggregates, over every lag j, the quadratic form of the
per-lag centered residuals c_j against the Gaussian Gram matrix of the
lagged values, with weights gamma_j = (T-j)/(j*pi)^2:

    D^2 = sum_j gamma_j * c_j' W[:n, :n] c_j,    n = T - j.

One engine evaluates it. The Gram matrix of the conditioning values
Y_0..Y_{T-2} is factored once by pivoted Cholesky, W ~ L L' with K
columns, and every leading block inherits the factor:
W[:n, :n] ~ L[:n] L[:n]'. Each lag term is then gamma_j * sum_k u_jk^2
with u_jk = L[:n, k]' c_j, which for all lags at once is the
cross-correlation of column k with the centered data, less a prefix-sum
correction for the per-lag mean: one FFT per column. Cost is
O(T K (K + log T)) and memory O(T K); no T x T matrix is formed.

Because every c_j sums to zero, the statistic is unchanged when W is
replaced by the PSD matrix (I - 1 e_p') W (I - e_p 1') for an anchor
observation p. Its entries are differences of expm1 values, accurate to
the data's own scale, so the factor's residual stays measurable far
below machine epsilon when the data are small (decimal returns), where
W itself is all ones to working precision. This anchored matrix is the
one factored.

The factor's residual R is PSD, so the factored statistic never exceeds
the exact one, and falls short of it by at most
sum_j gamma_j * tr(R) * |c_j|^2 (``GsOutcome.error_bound``). Pivoting
stops once that bound is within 1e-12 of the statistic, or when the
residual is exhausted and the factor is an exact Cholesky. The rank
grows with the data's scale, because the Gaussian weight has a fixed
length scale: about 5 columns at sd 0.01, 20-30 at sd 1, and over 100
near sd 10 (a quarter of T at T = 500), where a replication costs
several times more and the cost heads towards a dense factorization.

The wild bootstrap rescales residuals (not conditioning values) by
external noise and re-centers them per lag exactly as the observed
statistic does, so the factor is fixed across replications. A
replication applies the same identity to eta*e and eta: two FFTs of the
multipliers, K inverse FFTs for each, and a re-centering term from suffix
sums. Replications run in small fixed batches, so working memory is
O(batch * K * T). Skipping the re-centering would center the bootstrap
law on sum_j gamma_j sum_t e_t^2 while the observed statistic has the
Gram matrix's mean level projected out, making the test blind
(near-zero rejection at any nominal size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import GS_DOMAIN, BootstrapConfig, draw_multipliers, substream
from .series import ReturnSeries, _checked, _fast_len, _lag_count

# Certified error of the Gram factor, relative to the statistic.
_REL_TOL = 1e-12
# Replications per batched FFT; larger batches cost memory, not time.
_BATCH = 2


@dataclass(frozen=True)
class GsOutcome:
    """One GS test run: CvM-norm statistic and its bootstrap p-value.

    ``error_bound`` certifies ``0 <= exact D^2 - statistic <= error_bound``
    for the rank-``rank`` Gram factor (up to floating-point roundoff).
    """

    statistic: float
    p_value: float
    n_boot: int
    max_lag_used: int
    error_bound: float
    rank: int


@dataclass(frozen=True)
class _Fit:
    """The factored statistic and the per-lag pieces a replication reuses."""

    statistic: float
    error_bound: float
    nfft: int
    weight: np.ndarray  # (J,) gamma_j; 0 where one residual survives
    shift: np.ndarray  # (J,) per-lag mean minus overall mean
    counts: np.ndarray  # (J,) residuals per lag, T - j
    z: np.ndarray  # (T,) data minus its mean
    spectra: np.ndarray  # (K, nfft//2 + 1) conjugate spectra of L's columns
    prefix: np.ndarray  # (K, J) column sums over the first T - j rows


def gram_matrix(series: ReturnSeries) -> np.ndarray:
    """T x T matrix of exp(-0.5 * (Y_a - Y_b)^2); symmetric, unit diagonal, PSD."""
    values = series.values
    if len(values) < 2:
        raise ValueError(f"need at least 2 observations, got {len(values)}")
    w = np.subtract.outer(values, values)
    np.square(w, out=w)
    w *= -0.5
    np.exp(w, out=w)
    return w


def _resolve_max_lag(T: int, max_lag) -> int:
    if max_lag is None or max_lag == "full":
        max_lag = T - 1
    return _lag_count(max_lag, T, "max_lag")


def _suffix_sums(a: np.ndarray, J: int) -> np.ndarray:
    """sum_{t >= j} a[..., t] for j = 1..J."""
    return np.cumsum(a[..., ::-1], axis=-1)[..., ::-1][..., 1 : J + 1]


def _fit(values: np.ndarray, J: int) -> _Fit:
    """Factor the anchored Gram matrix until the statistic is certified."""
    T = len(values)
    N = T - 1  # Y_{T-1} conditions no lag
    lags = np.arange(1, J + 1)
    counts = T - lags
    z = values - values.mean()
    shift = _suffix_sums(z, J) / counts
    # a lone residual equals its own mean: centering annihilates it exactly
    weight = np.where(counts > 1, counts / (lags * np.pi) ** 2, 0.0)
    norms = np.maximum(_suffix_sums(z * z, J) - counts * shift**2, 0.0)
    budget = float(weight @ norms)  # sum_j gamma_j |c_j|^2

    nfft = _fast_len(2 * T - 2)
    z_spec = np.fft.rfft(z, nfft)
    x = values[:N]
    anchor = np.expm1(-0.5 * (x - x[np.argmin(np.abs(x - x.mean()))]) ** 2)
    resid = -2.0 * anchor  # diagonal of the anchored matrix minus L L'
    rows = np.empty((min(N, 32), N))  # L' by rows; doubles when full
    spectra, prefix = [], []
    sums = np.zeros(J)  # sum_k u_jk^2 per lag
    lower = 0.0  # the factored statistic so far, a lower bound on D^2
    K = 0
    while float(resid.sum()) * budget > _REL_TOL * lower:
        q = int(np.argmax(resid))
        pivot = resid[q]
        if not pivot > 0.0:
            break
        col = np.expm1(-0.5 * (x - x[q]) ** 2) - anchor - anchor[q]
        col -= rows[:K, q] @ rows[:K]
        col /= math.sqrt(pivot)
        if K == len(rows):
            rows = np.concatenate([rows, np.empty((min(K, N - K), N))])
        rows[K] = col
        K += 1
        resid -= col * col
        resid[q] = 0.0
        np.maximum(resid, 0.0, out=resid)
        # u_jk = xcorr(L_k, z)[j] - shift_j * sum_{t < T-j} L_tk, all j at once
        spec = np.conj(np.fft.rfft(col, nfft))
        pre = np.cumsum(col)[N - lags]
        u = np.fft.irfft(spec * z_spec, nfft)[1 : J + 1] - shift * pre
        sums += u * u
        lower = float(weight @ sums)
        spectra.append(spec)
        prefix.append(pre)
    return _Fit(
        statistic=math.fsum(weight * sums),
        error_bound=float(resid.sum()) * budget,
        nfft=nfft,
        weight=weight,
        shift=shift,
        counts=counts,
        z=z,
        spectra=np.array(spectra).reshape(K, nfft // 2 + 1),
        prefix=np.array(prefix).reshape(K, J),
    )


def gs_statistic(series: ReturnSeries, max_lag="full") -> float:
    """Cramer-von Mises norm D^2 over lags 1..max_lag (default all T-1).

    Residuals are re-centered on the per-lag mean of the surviving
    observations. Per-lag terms are each nonnegative sums of squares, and
    are combined with exact summation.
    """
    values = _checked(series.values, 2)
    return _fit(values, _resolve_max_lag(len(values), max_lag)).statistic


def truncation_bound(series: ReturnSeries, max_lag) -> float:
    """Upper bound on the statistic mass dropped by truncating at max_lag.

    Bounds each omitted lag term by gamma_j * (sum_t |e_t^(j)|)^2, using
    that every Gram entry lies in (0, 1].
    """
    values = _checked(series.values, 2)
    T = len(values)
    J = _resolve_max_lag(T, max_lag)
    bound = 0.0
    for j in range(J + 1, T):
        c = values[j:] - values[j:].mean()
        s = float(np.abs(c).sum())
        bound += (T - j) / (j * np.pi) ** 2 * s * s
    return bound


def _workspace(fit: _Fit, m: int) -> tuple:
    """Product, correlation and lift buffers for up to m replications.

    One workspace serves every batch of a test. The first two buffers
    exceed glibc's default mmap threshold (128 KiB) from T ~ 250, K ~ 20,
    so a fresh allocation per batch is unmapped on free and page-faulted
    back in on the next batch: at T = 250, B = 199 a test took about
    18 000 minor page faults that way, against about 180 with one
    workspace.
    """
    K, J = fit.prefix.shape
    return (
        np.empty((2 * m, K, fit.nfft // 2 + 1), dtype=complex),
        np.empty((2 * m, K, fit.nfft)),
        np.empty((m, K, J)),
    )


def _replicate(fit: _Fit, eta: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Bootstrap statistics for the multiplier rows of ``eta`` (m x T).

    For each lag, u*_jk = xcorr(L_k, eta*z)[j] - shift_j * xcorr(L_k, eta)[j]
    - mean_j(eta * e^(j)) * prefix_k(T - j). ``work`` is a ``_workspace``
    for at least m replications; one is allocated when it is omitted.
    """
    J = len(fit.weight)
    m = len(eta)
    prod, corr, lift = work or _workspace(fit, m)
    prod, corr, lift = prod[: 2 * m], corr[: 2 * m], lift[:m]
    inputs = np.concatenate([eta * fit.z, eta])
    spec = np.fft.rfft(inputs, fit.nfft)
    np.multiply(spec[:, None, :], fit.spectra, out=prod)
    np.fft.irfft(prod, fit.nfft, out=corr)
    u, rest = corr[:m, :, 1 : J + 1], corr[m:, :, 1 : J + 1]
    tails = _suffix_sums(inputs, J)
    mean = (tails[:m] - fit.shift * tails[m:]) / fit.counts
    np.multiply(mean[:, None, :], fit.prefix, out=lift)
    rest *= fit.shift
    rest += lift
    u -= rest
    # a row-wise reduction, not a matrix product: each replication's sum
    # must not depend on how many others share its batch
    return (np.einsum("bkj,bkj->bj", u, u) * fit.weight).sum(axis=1)


def _replications(fit: _Fit, boot: BootstrapConfig) -> np.ndarray:
    """All bootstrap statistics, _BATCH replications at a time.

    Replication b reads ``substream(boot.seed, GS_DOMAIN, b)``.
    """
    T = len(fit.z)
    work = _workspace(fit, _BATCH)
    out = np.empty(boot.n_boot)
    for start in range(0, boot.n_boot, _BATCH):
        stop = min(start + _BATCH, boot.n_boot)
        eta = np.array(
            [
                draw_multipliers(substream(boot.seed, GS_DOMAIN, b), boot.multiplier, T)
                for b in range(start, stop)
            ]
        )
        out[start:stop] = _replicate(fit, eta, work)
    return out


def gs_test(
    series: ReturnSeries,
    boot: BootstrapConfig,
    max_lag="full",
) -> GsOutcome:
    """GS test with wild-bootstrap p-value (right-tailed; D^2 is a norm).

    Replication j rescales every residual e_t^(j) by eta_t drawn from
    ``substream(boot.seed, GS_DOMAIN, j)`` -- one multiplier per time index,
    shared across lags -- then re-centers per lag, while the Gram factor of
    the original conditioning values stays fixed (see module docstring).
    """
    values = _checked(series.values, 2)
    J = _resolve_max_lag(len(values), max_lag)
    fit = _fit(values, J)
    boot_stats = _replications(fit, boot)
    exceed = int(np.sum(boot_stats >= fit.statistic))
    p_value = (1.0 + exceed) / (boot.n_boot + 1.0)
    return GsOutcome(
        statistic=fit.statistic,
        p_value=p_value,
        n_boot=boot.n_boot,
        max_lag_used=J,
        error_bound=fit.error_bound,
        rank=len(fit.spectra),
    )
