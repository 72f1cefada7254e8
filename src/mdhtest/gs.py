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
multipliers, one inverse FFT per column for each, and a re-centering
term from suffix sums. Skipping the re-centering would center the
bootstrap law on sum_j gamma_j sum_t e_t^2 while the observed statistic
has the Gram matrix's mean level projected out, making the test blind
(near-zero rejection at any nominal size).

The p-value needs only whether each replication D*^2 reaches D^2, and
most replications settle that long before the last column. With S_k a
replication's value over the first k columns and R_k the residual after
k pivots, the columns from k on add
sum_j gamma_j |L[:n, k:]' c*_j|^2 <= tr(R_k) * sum_j gamma_j |c*_j|^2,
because L[:, k:] L[:, k:]' = R_k - R_K is dominated by R_k. Bounding
|c*_j|^2 by |eta * e^(j)|^2 brackets the full-rank value:

    S_k <= S_K <= S_k + tr(R_k) * sum_j gamma_j |eta * e^(j)|^2
                 = S_k + tr(R_k) * sum_t eta_t^2 v_t,

where v_t = sum_{j <= t} gamma_j (z_t - shift_j)^2 regroups the lag sums
by time index. The fit builds v from prefix sums of gamma, gamma * shift
and gamma * shift^2, so a row's upper end costs one dot product.

Every replication is first evaluated on k columns, k the first rank
whose certified error on the observed statistic, tr(R_k) * sum_j
gamma_j |c_j|^2, is at most 1e-3 * D^2. A row whose bracket lies above
or below D^2 by more than a slack is decided; only the others are
evaluated on all K columns and compared with D^2 as before, so the
exceedance count, and the p-value, equal the full-rank ones exactly.
The slack is 1e-9 * (D^2 + upper end), and covers roundoff. A row's
transforms do not depend on how many rows or columns share the batch,
so S_k and S_K sum the same computed terms, all nonnegative; each sum is
then within (K + J) * 2^-53 relative of its exact value, under 3e-12
for T up to 1e4. The FFT error in the omitted columns and the rounding
of tr(R_k) and of v move the upper end by amounts of the same relative
size, far below both the slack and the excess of the trace bound over
the tail it bounds.

Replications run in batches that fit one workspace sized for _BATCH
full-rank rows: (_BATCH * K) // k rows on the k-column pass, _BATCH rows
at full rank. Working memory is O(_BATCH * K * T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import GS_DOMAIN, BootstrapConfig, _substreams, draw_multipliers
# perfbench/workloads.py patches gs.substream, so the name stays bound here
from .bootstrap import substream  # noqa: F401
from .series import ReturnSeries, _checked, _count, _fast_len

# Certified error of the Gram factor, relative to the statistic.
_REL_TOL = 1e-12
# The bootstrap's first pass uses the columns that certify the statistic
# to this relative error (module docstring).
_SPLIT = 1e-3
# Roundoff allowance of a bootstrap decision, relative to D^2 plus the
# row's upper end (module docstring).
_SLACK = 1e-9
# Full-rank replications per batched FFT. Their workspace also bounds the
# first pass, which fills it with (_BATCH * K) // k rows rather than
# _BATCH: batch size moves time, not only memory, since every batch pays
# the same fixed run of numpy calls however few rows it carries.
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
    traces: np.ndarray  # (K + 1,) tr(R_k), the residual's trace after k pivots
    split: int  # columns of the bootstrap's first pass
    spread: np.ndarray  # (T,) v_t = sum_{j <= t} gamma_j (z_t - shift_j)^2


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
    return _count(max_lag, "max_lag", 1, T - 1)


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
    traces = [float(resid.sum())]
    while traces[-1] * budget > _REL_TOL * lower:
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
        traces.append(float(resid.sum()))
        # u_jk = xcorr(L_k, z)[j] - shift_j * sum_{t < T-j} L_tk, all j at once
        spec = np.conj(np.fft.rfft(col, nfft))
        pre = np.cumsum(col)[N - lags]
        u = np.fft.irfft(spec * z_spec, nfft)[1 : J + 1] - shift * pre
        sums += u * u
        lower = float(weight @ sums)
        spectra.append(spec)
        prefix.append(pre)
    statistic = math.fsum(weight * sums)
    error_bound = traces[-1] * budget
    traces = np.array(traces)
    # prefix sums over lags j <= t of gamma_j, gamma_j shift_j, gamma_j shift_j^2
    g = np.cumsum([weight, weight * shift, weight * shift**2], axis=1)
    g = np.pad(g, ((0, 0), (1, 0)))[:, np.minimum(np.arange(T), J)]
    return _Fit(
        statistic=statistic,
        error_bound=error_bound,
        nfft=nfft,
        weight=weight,
        shift=shift,
        counts=counts,
        z=z,
        spectra=np.array(spectra).reshape(K, nfft // 2 + 1),
        prefix=np.array(prefix).reshape(K, J),
        traces=traces,
        split=int(np.argmax(traces * budget <= _SPLIT * statistic)),
        spread=np.maximum(z * (z * g[0] - 2.0 * g[1]) + g[2], 0.0),
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
    """Flat product, correlation and lift buffers for m full-rank rows.

    A pass over k of the K columns fits (m * K) // k rows in the same
    buffers. One workspace serves every batch of a test. The first two
    buffers exceed glibc's default mmap threshold (128 KiB) from T ~ 250,
    K ~ 20, so a fresh allocation per batch is unmapped on free and
    page-faulted back in on the next batch: at T = 250, B = 199 a test
    took about 18 000 minor page faults that way, against about 180 with
    one workspace.
    """
    K, J = fit.prefix.shape
    return (
        np.empty(2 * m * K * (fit.nfft // 2 + 1), dtype=complex),
        np.empty(2 * m * K * fit.nfft),
        np.empty(m * K * J),
    )


def _replicate(
    fit: _Fit, eta: np.ndarray, work: tuple | None = None, columns: int | None = None
) -> np.ndarray:
    """Bootstrap statistics for the multiplier rows of ``eta`` (m x T).

    Uses the first ``columns`` columns of the Gram factor, all K by
    default. For each lag and column k, u*_jk = xcorr(L_k, eta*z)[j]
    - shift_j * xcorr(L_k, eta)[j] - mean_j(eta * e^(j)) * prefix_k(T - j).
    ``work`` is a ``_workspace`` with room for m rows of that many
    columns; one is allocated when it is omitted.
    """
    J = len(fit.weight)
    m = len(eta)
    K = len(fit.spectra) if columns is None else columns
    bins = fit.nfft // 2 + 1
    prod, corr, lift = work or _workspace(fit, m)
    prod = prod[: 2 * m * K * bins].reshape(2 * m, K, bins)
    corr = corr[: 2 * m * K * fit.nfft].reshape(2 * m, K, fit.nfft)
    lift = lift[: m * K * J].reshape(m, K, J)
    inputs = np.concatenate([eta * fit.z, eta])
    spec = np.fft.rfft(inputs, fit.nfft)
    np.multiply(spec[:, None, :], fit.spectra[:K], out=prod)
    np.fft.irfft(prod, fit.nfft, out=corr)
    u, rest = corr[:m, :, 1 : J + 1], corr[m:, :, 1 : J + 1]
    tails = _suffix_sums(inputs, J)
    mean = (tails[:m] - fit.shift * tails[m:]) / fit.counts
    np.multiply(mean[:, None, :], fit.prefix[:K], out=lift)
    rest *= fit.shift
    rest += lift
    u -= rest
    # a row-wise reduction, not a matrix product: each replication's sum
    # must not depend on how many others share its batch
    return (np.einsum("bkj,bkj->bj", u, u) * fit.weight).sum(axis=1)


def _bracket(fit: _Fit, eta: np.ndarray, work: tuple | None = None) -> tuple:
    """Lower and upper ends of each row's full-rank value.

    The lower end is the value over the first k = ``fit.split`` columns;
    the upper end adds tr(R_k) * sum_t eta_t^2 v_t (module docstring).
    """
    low = _replicate(fit, eta, work, fit.split)
    return low, low + fit.traces[fit.split] * ((eta * eta) @ fit.spread)


def _exceedances(fit: _Fit, boot: BootstrapConfig) -> int:
    """Bootstrap statistics at or above the observed one.

    Replication b reads ``substream(boot.seed, GS_DOMAIN, b)``, derived in
    bulk by ``_substreams``. Each is bracketed over ``fit.split`` columns;
    those the bracket leaves open are evaluated at full rank, _BATCH at a
    time.
    """
    T = len(fit.z)
    K = len(fit.spectra)
    D = fit.statistic
    rows = _BATCH * K // fit.split if fit.split < K else _BATCH
    work = _workspace(fit, _BATCH)
    exceed = 0
    streams = _substreams(boot.seed, GS_DOMAIN, 0, boot.n_boot)
    for start in range(0, boot.n_boot, rows):
        stop = min(start + rows, boot.n_boot)
        eta = np.array(
            [
                draw_multipliers(rng, boot.multiplier, T)
                for _, rng in zip(range(stop - start), streams)
            ]
        )
        if fit.split < K:
            low, high = _bracket(fit, eta, work)
            slack = _SLACK * (D + high)
            exceed += int(np.sum(low - D > slack))
            eta = eta[(low - D <= slack) & (D - high <= slack)]
        for i in range(0, len(eta), _BATCH):
            exceed += int(np.sum(_replicate(fit, eta[i : i + _BATCH], work) >= D))
    return exceed


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
    p_value = (1.0 + _exceedances(fit, boot)) / (boot.n_boot + 1.0)
    return GsOutcome(
        statistic=fit.statistic,
        p_value=p_value,
        n_boot=boot.n_boot,
        max_lag_used=J,
        error_bound=fit.error_bound,
        rank=len(fit.spectra),
    )
