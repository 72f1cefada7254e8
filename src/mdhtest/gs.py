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

Truncating at J drops the lags above J, and the full-lag fit holds
their terms too: it keeps every lag's gamma_j * sum_k u_jk^2 and |c_j|^2.
By the argument above, the terms of the lags above J fall short of their
exact sum by at most tr(R) * sum_{j > J} gamma_j * |c_j|^2, so the two
together bound the dropped mass (``truncation_bound``). Roundoff is the
rest. The terms are nonnegative and summed exactly, and each sums K
squares (K * 2^-53 relative), but u_jk comes out of an FFT whose error
scales with |L_k| |z| rather than with u_jk, so a lag with few surviving
residuals can lose digits. Against the expm1 oracle (decimal, percent,
+100 offset, tied, sd 1 and three-valued data with an exact factor; T
from 3 to 10 000, every lag at T <= 120 and the last lags beyond), the
unraised bound fell short of the dropped mass by at most 3.4e-13
relative. The bound is raised by _TRUNCATION_SLACK = 1e-11 relative,
thirty times that.

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
most replications settle that long before the last column. The bootstrap
runs on the factor rotated onto the eigenvectors V of its K x K Gram
matrix L'L, by falling eigenvalue: the columns of L V are orthogonal,
their squared norms are those eigenvalues, and the leading columns carry
most of any replication's value. L V V' L' = L L', so the rotation keeps
every quadratic form. With S_k a replication's value over the first k
rotated columns and tail[k] the squared Frobenius norm of the columns
from k on (tail[K] = 0),

    S_k <= S_K <= S_k + tail[k] * sum_j gamma_j |c*_j|^2
               <= S_k + tail[k] * sum_t eta_t^2 v_t.

The middle step holds because the tail block's squared spectral norm is
at most its squared Frobenius norm; the last because centering only
shrinks a vector, |c*_j|^2 <= |eta * e^(j)|^2, and v_t = sum_{j <= t}
gamma_j (z_t - shift_j)^2 regroups the lag sums by time index. The fit
builds v from prefix sums of gamma, gamma * shift and gamma * shift^2, so
a row's upper end costs one dot product. The Frobenius tail is computed
from the rotated columns themselves, so no eigenvalue, and no error of
the eigensolver, enters the bound; V need only be orthogonal, which it is
to O(K * 2^-53).

A block of replications runs through the rotated columns one at a time.
After each column, a row whose bracket lies above or below D^2 by more
than a slack is decided and leaves the block. Rows still open after the
last column, where the bracket is one value within the slack of D^2, are
evaluated on the original K columns and compared with D^2 as before, so
the exceedance count, and the p-value, equal the full-rank ones exactly.
The slack is 1e-9 * (D^2 + upper end), and covers roundoff. The rotated
and the original full-rank values differ by V's departure from
orthogonality and by the rounding of their sums of nonnegative terms,
each sum within (K + J) * 2^-53 relative of its exact value: under 3e-12
for T up to 1e4. The FFT error in the columns and the rounding of tail
and v move the upper end by amounts of the same relative size, far below
both the slack and the excess of the Frobenius bound over the tail it
bounds. On the benchmark's percent-scale series (T = 250, K 16 to 24) a
replication leaves after 0.24 * K columns on average, and none reaches
the full-rank finish.

A block holds as many rows as fit _BLOCK_BYTES at 64 * nfft bytes a row.
A row needs the multipliers and eta * z (8 * nfft bytes), their spectra
(16), one column's products (16) and correlations (16) and the per-lag
means (at most 4): about 60 * nfft. Nothing else of a row's size is held:
the suffix sums and eta^2 are computed into the correlation buffer before
the column loop needs it, and the per-lag means into eta * z's rows once
their spectrum is taken. The buffers are allocated flat once per test, and
each block, a short last one too, uses their leading part contiguously.
Every column step makes the same run of small numpy calls however few
rows it carries, and they hold the GIL while the FFTs release it, so
blocks of 1.5 MiB (22 rows at T = 520) let a second ``roll`` worker run
in parallel: smaller blocks left it mostly waiting, and 2 MiB ran little
faster but raised rolling GS's peak RSS by over 5%. The fit keeps one copy
of the unrotated factor L. The full-rank finish derives L's spectra and
prefix sums once per test, when a first row reaches it, and takes the
open rows in chunks of rows // K (at least one), in fresh arrays of about
one block's bytes, or of one row's K columns when K exceeds the block's
rows. Working memory is O(_BLOCK_BYTES + K * T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bootstrap import GS_DOMAIN, BootstrapConfig, _substreams, draw_multipliers
# perfbench/workloads.py patches gs.substream, so the name stays bound here
from .bootstrap import substream  # noqa: F401
from .series import ReturnSeries, _checked, _count, _fast_len

# Certified error of the Gram factor, relative to the statistic.
_REL_TOL = 1e-12
# Roundoff allowance of a bootstrap decision, relative to D^2 plus the
# row's upper end (module docstring).
_SLACK = 1e-9
# Roundoff allowance of truncation_bound, relative to the bound (module
# docstring).
_TRUNCATION_SLACK = 1e-11
# Bytes of a bootstrap block's buffers, at 64 * nfft a row for the 60 they
# take (module docstring). Every column step pays the same fixed run of
# numpy calls however few rows it carries, so small blocks cost time and
# idle a second thread; large ones cost memory. Rolling GS at T ~ 520 runs
# fastest on two threads at this size of those that raise its peak RSS by
# under 4% over 640 KiB blocks; 2 MiB raised it by 6%.
_BLOCK_BYTES = 1536 * 1024


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
    terms: np.ndarray  # (J,) gamma_j sum_k u_jk^2, the factored lag terms
    norms: np.ndarray  # (J,) |c_j|^2
    weight: np.ndarray  # (J,) gamma_j; 0 where one residual survives
    shift: np.ndarray  # (J,) per-lag mean minus overall mean
    counts: np.ndarray  # (J,) residuals per lag, T - j
    trace: float  # tr(R), the factor's residual trace
    z: np.ndarray  # (T,) data minus its mean
    factor: np.ndarray  # (K, T - 1) L' by rows, the pivoted factor
    rotated: np.ndarray  # (K, nfft//2 + 1) conjugate spectra of L V's columns
    rotated_prefix: np.ndarray  # (K, J) L V's column sums over the first T - j rows
    tail: np.ndarray  # (K + 1,) squared Frobenius norm of L V's columns k..K-1
    spread: np.ndarray  # (T,) v_t = sum_{j <= t} gamma_j (z_t - shift_j)^2

    @cached_property
    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """L's conjugate column spectra (K, nfft//2 + 1) and prefix sums (K, J),
        derived on the first full-rank finish and kept for the test's others."""
        spectra = np.conj(np.fft.rfft(self.factor, self.nfft))
        return spectra, np.cumsum(self.factor, axis=1)[:, self.counts - 1]


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


def _lagged(series: ReturnSeries, max_lag) -> tuple[np.ndarray, int]:
    """The checked values and max_lag as a count, T - 1 for None or "full"."""
    values = _checked(series.values, 2)
    T = len(values)
    if max_lag is None or max_lag == "full":
        max_lag = T - 1
    return values, _count(max_lag, "max_lag", 1, T - 1)


def _suffix_sums(a: np.ndarray, J: int, out=None) -> np.ndarray:
    """sum_{t >= j} a[..., t] for j = 1..J, summed into ``out`` if given
    (the shape of a[..., 1:])."""
    return np.cumsum(a[..., :0:-1], axis=-1, out=out)[..., ::-1][..., :J]


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
    sums = np.zeros(J)  # sum_k u_jk^2 per lag
    lower = 0.0  # the factored statistic so far, a lower bound on D^2
    K = 0
    trace = float(resid.sum())
    while trace * budget > _REL_TOL * lower:
        # tr(R) > 0 here, so the largest residual, the pivot, is positive
        q = int(np.argmax(resid))
        col = np.expm1(-0.5 * (x - x[q]) ** 2) - anchor - anchor[q]
        col -= rows[:K, q] @ rows[:K]
        col /= math.sqrt(resid[q])
        if K == len(rows):
            rows = np.concatenate([rows, np.empty((min(K, N - K), N))])
        rows[K] = col
        K += 1
        resid -= col * col
        resid[q] = 0.0
        np.maximum(resid, 0.0, out=resid)
        trace = float(resid.sum())
        # u_jk = xcorr(L_k, z)[j] - shift_j * sum_{t < T-j} L_tk, all j at once
        spec = np.conj(np.fft.rfft(col, nfft))
        pre = np.cumsum(col)[N - lags]
        u = np.fft.irfft(spec * z_spec, nfft)[1 : J + 1] - shift * pre
        sums += u * u
        lower = float(weight @ sums)
    terms = weight * sums
    statistic = math.fsum(terms)
    error_bound = trace * budget
    # (L V)' by rows, V the eigenvectors of L'L by falling eigenvalue
    # (module docstring); a real product, then one FFT per rotated column
    factor = rows[:K]
    turned = np.linalg.eigh(factor @ factor.T)[1][:, ::-1].T @ factor
    tail = np.cumsum(np.einsum("kt,kt->k", turned, turned)[::-1])[::-1]
    # prefix sums over lags j <= t of gamma_j, gamma_j shift_j, gamma_j shift_j^2
    g = np.cumsum([weight, weight * shift, weight * shift**2], axis=1)
    g = np.pad(g, ((0, 0), (1, 0)))[:, np.minimum(np.arange(T), J)]
    return _Fit(
        statistic=statistic,
        error_bound=error_bound,
        nfft=nfft,
        terms=terms,
        norms=norms,
        weight=weight,
        shift=shift,
        counts=counts,
        z=z,
        factor=factor,
        rotated=np.conj(np.fft.rfft(turned, nfft)),
        rotated_prefix=np.cumsum(turned, axis=1)[:, N - lags],
        tail=np.append(tail, 0.0),
        trace=trace,
        spread=np.maximum(z * (z * g[0] - 2.0 * g[1]) + g[2], 0.0),
    )


def gs_statistic(series: ReturnSeries, max_lag="full") -> float:
    """Cramer-von Mises norm D^2 over lags 1..max_lag (default all T-1).

    Residuals are re-centered on the per-lag mean of the surviving
    observations. Per-lag terms are each nonnegative sums of squares, and
    are combined with exact summation.
    """
    return _fit(*_lagged(series, max_lag)).statistic


def truncation_bound(series: ReturnSeries, max_lag) -> float:
    """Upper bound on the statistic mass dropped by truncating at max_lag.

    Sums, over the lags above max_lag, the factored terms of one full-lag
    fit plus tr(R) * gamma_j * |c_j|^2, which covers what the Gram factor
    leaves out, and raises the sum by _TRUNCATION_SLACK for roundoff
    (module docstring). The bound exceeds the dropped mass by at most the
    slack plus 1e-12 of the full-lag statistic, and is 0.0 at ``"full"``.
    It costs about one ``gs_statistic(series)``.
    """
    values, J = _lagged(series, max_lag)
    fit = _fit(values, len(values) - 1)
    unfactored = float(fit.trace * (fit.weight[J:] @ fit.norms[J:]))
    return (math.fsum(fit.terms[J:]) + unfactored) * (1.0 + _TRUNCATION_SLACK)


def _replicate(fit: _Fit, eta: np.ndarray) -> np.ndarray:
    """Full-rank bootstrap statistics for the multiplier rows of ``eta`` (m x T).

    For each lag and column k of the Gram factor, u*_jk = xcorr(L_k,
    eta*z)[j] - shift_j * xcorr(L_k, eta)[j] - mean_j(eta * e^(j)) *
    prefix_k(T - j). The columns' spectra and prefix sums are ``fit.finish``,
    derived once per test; each call computes into fresh arrays of about
    2 * m * K * nfft floats.
    """
    J = len(fit.weight)
    m = len(eta)
    spectra, prefix = fit.finish
    inputs = np.concatenate([eta * fit.z, eta])
    spec = np.fft.rfft(inputs, fit.nfft)
    corr = np.fft.irfft(spec[:, None, :] * spectra, fit.nfft)[..., 1 : J + 1]
    tails = _suffix_sums(inputs, J)
    mean = (tails[:m] - fit.shift * tails[m:]) / fit.counts
    u = corr[:m] - (corr[m:] * fit.shift + mean[:, None, :] * prefix)
    # a row-wise reduction, not a matrix product: each replication's sum
    # must not depend on how many others share its batch
    return (np.einsum("bkj,bkj->bj", u, u) * fit.weight).sum(axis=1)


def _retire(fit: _Fit, inputs: np.ndarray, spec: np.ndarray, work: tuple) -> tuple:
    """Decide a block's rows over the rotated columns, one column at a time.

    ``inputs`` is (2, n, T) with the block's multipliers in ``inputs[1]``;
    ``inputs[0]`` receives eta * z, then the per-lag means, and ``spec``
    (2, n, nfft//2 + 1) the spectra of both. After column k a row's value
    over the first k + 1 columns, ``low``, brackets its full-rank value with
    ``low + tail[k + 1] * sum_t eta_t^2 v_t``; a row leaves once the bracket
    lies clear of D^2 (module docstring). Returns the number of rows decided
    at or above D^2, and the indices of the rows still open after the last
    column.
    """
    K, J = fit.rotated_prefix.shape
    D = fit.statistic
    nfft = fit.nfft
    bins = nfft // 2 + 1
    _, n, T = inputs.shape
    prod, corr, lift = work
    eta = inputs[1]
    np.multiply(eta, fit.z, out=inputs[0])
    np.fft.rfft(inputs, nfft, out=spec)
    # before the column loop, its correlation buffer holds the suffix sums,
    # then eta^2; eta * z's rows, their spectrum taken, hold the per-lag means
    tails = _suffix_sums(inputs, J, out=corr[: 2 * n * (T - 1)].reshape(2, n, T - 1))
    mean = inputs[0].reshape(-1)[: n * J].reshape(n, J)
    np.multiply(fit.shift, tails[1], out=mean)
    np.subtract(tails[0], mean, out=mean)
    mean /= fit.counts
    energy = np.multiply(eta, eta, out=corr[: n * T].reshape(n, T)) @ fit.spread
    rows = np.arange(n)  # the open rows
    low = np.zeros(n)  # their values over the columns so far
    above = 0
    for k in range(K):
        n = len(rows)
        prod_k = prod[: 2 * n * bins].reshape(2, n, bins)
        corr_k = corr[: 2 * n * nfft].reshape(2, n, nfft)
        lift_k = lift[: n * J].reshape(n, J)
        open_spec, open_mean = spec, mean
        if n < len(eta):  # rows have left: gather the open ones into the buffers
            # mode="clip" writes into out directly; "raise" would buffer it
            open_spec = spec.take(rows, axis=1, out=prod_k, mode="clip")
            open_mean = mean.take(rows, axis=0, out=lift_k, mode="clip")
        np.multiply(open_spec, fit.rotated[k], out=prod_k)
        np.fft.irfft(prod_k, nfft, out=corr_k)
        np.multiply(open_mean, fit.rotated_prefix[k], out=lift_k)
        u, rest = corr_k[0, :, 1 : J + 1], corr_k[1, :, 1 : J + 1]
        rest *= fit.shift
        rest += lift_k
        u -= rest
        u *= u
        low += u @ fit.weight
        high = low + fit.tail[k + 1] * energy[rows]
        slack = _SLACK * (D + high)
        above += int(np.count_nonzero(low - D > slack))
        keep = (low - D <= slack) & (D - high <= slack)
        rows, low = rows[keep], low[keep]
        if not len(rows):
            break
    return above, rows


def _exceedances(fit: _Fit, boot: BootstrapConfig) -> int:
    """Bootstrap statistics at or above the observed one.

    Replication b reads ``substream(boot.seed, GS_DOMAIN, b)``, derived in
    bulk by ``_substreams``. Blocks of replications go through ``_retire``,
    and the rows it leaves open are evaluated at full rank by
    ``_replicate``. The block's buffers are allocated once per test, flat,
    and each block takes their leading part, so a short last block is
    contiguous too.
    """
    T = len(fit.z)
    K, J = fit.rotated_prefix.shape
    m = min(boot.n_boot, max(1, _BLOCK_BYTES // (64 * fit.nfft)))
    finish = max(1, m // max(K, 1))  # full-rank rows of about one block
    bins = fit.nfft // 2 + 1
    # the column loop's product, correlation and lift buffers, for m rows.
    # The first two exceed glibc's default mmap threshold (128 KiB) from
    # T ~ 250, so a fresh allocation per block is unmapped on free and
    # page-faulted back in on the next: at T = 250, B = 199 a test took
    # about 18 000 minor page faults that way, against about 180 with one set
    work = np.empty(2 * m * bins, complex), np.empty(2 * m * fit.nfft), np.empty(m * J)
    inputs = np.empty(2 * m * T)
    spectra = np.empty(2 * m * bins, dtype=complex)
    exceed = 0
    streams = _substreams(boot.seed, GS_DOMAIN, 0, boot.n_boot)
    for start in range(0, boot.n_boot, m):
        n = min(m, boot.n_boot - start)
        block = inputs[: 2 * n * T].reshape(2, n, T)
        for row, rng in zip(block[1], streams):
            row[:] = draw_multipliers(rng, boot.multiplier, T)
        spec = spectra[: 2 * n * bins].reshape(2, n, bins)
        above, rows = _retire(fit, block, spec, work)
        exceed += above
        eta = block[1, rows]
        for i in range(0, len(eta), finish):
            full = _replicate(fit, eta[i : i + finish])
            exceed += int(np.sum(full >= fit.statistic))
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
    values, J = _lagged(series, max_lag)
    fit = _fit(values, J)
    p_value = (1.0 + _exceedances(fit, boot)) / (boot.n_boot + 1.0)
    return GsOutcome(
        statistic=fit.statistic,
        p_value=p_value,
        n_boot=boot.n_boot,
        max_lag_used=J,
        error_bound=fit.error_bound,
        rank=len(fit.factor),
    )
