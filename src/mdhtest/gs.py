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
correction for the per-lag mean: one FFT per column. The FFTs are
T - 1 + J long (rounded up to a 5-smooth length), J the last lag kept:
the correlations at lags 1..J of a length-(T - 1) column with a length-T
series do not wrap at that length, and full lags give 2T - 2. Cost is
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
rotated columns and tail[k] a bound on the squared spectral norm of the
columns from k on (tail[K] = 0),

    S_k <= S_K <= S_k + tail[k] * sum_j gamma_j |c*_j|^2
               <= S_k + tail[k] * sum_t eta_t^2 v_t.

The last step holds because centering only shrinks a vector,
|c*_j|^2 <= |eta * e^(j)|^2, and v_t = sum_{j <= t} gamma_j
(z_t - shift_j)^2 regroups the lag sums by time index. The fit builds v
from prefix sums of gamma, gamma * shift and gamma * shift^2, so a row's
upper end costs one dot product.

The tail is certified from the rotated columns t_l themselves: it is the
smaller of two bounds on the largest eigenvalue of their Gram matrix
G[k:, k:], G_il = t_i' t_l. One is its trace, the squared Frobenius norm
sum_{l >= k} |t_l|^2. The other is Gershgorin's max_{i >= k}
sum_{l >= k} |G_il| over the computed G, raised by
N 2^-52 (sum_{l >= k} |t_l|)^2: each computed entry is a length-N dot
product within about N 2^-53 |t_i| |t_l| of its exact value, whatever the
order of its sum, and the factor 2 covers that and the rounding of the
row sums. So no eigenvalue, and no error of the eigensolver, enters the
bound; V need only be orthogonal, which it is to O(K * 2^-53). The
rotation leaves G nearly diagonal, so Gershgorin's bound is about the
k-th eigenvalue alone where the trace sums all those from k on; it is the
smaller until the last columns, where the pad can exceed the trace.

A block of replications runs through the rotated columns one at a time.
After each column, a row whose bracket lies above or below D^2 by more
than a slack is decided and leaves the block. A row still open after the
last column, where the bracket is one value within the slack of D^2, is a
tie with D^2 and counts as reaching it, as the add-one rule's D*^2 >= D^2
intends. The slack is 1e-9 * (D^2 + upper end), and covers roundoff. The
rotated and the exact full-rank values differ by V's departure from
orthogonality and by the rounding of their sums of nonnegative terms,
each sum within (K + J) * 2^-53 relative of its exact value: under 3e-12
for T up to 1e4. The FFT error in the columns and the rounding of tail
and v move the upper end by amounts of the same relative size, far below
the slack. So every exact tie counts, whatever the rounding: Rademacher
multipliers at small T give them, since a pattern equal to +1 or -1 on
every residual keeps every quadratic form. A row truly below D^2 by less
than the slack counts too, so the p-value is conservative by at most
those rows over B + 1. On the benchmark's percent-scale series (T = 250,
K 16 to 24) a replication leaves after 0.22 * K columns on average, and
none stays open after the last column.

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
of the unrotated factor L, whose rows give the rank. Working memory is
O(_BLOCK_BYTES + K * T).
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
# Roundoff allowance of a bootstrap decision, relative to D^2 plus the
# row's upper end; a row within it of D^2 after the last column is a tie
# and counts as reaching D^2 (module docstring).
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
    tail: np.ndarray  # (K + 1,) bound on L V's columns k..K-1, squared 2-norm
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


def _lagged(series: ReturnSeries, max_lag) -> tuple[np.ndarray, int]:
    """The checked values and max_lag, ``"full"`` or an integer, as a count."""
    values = _checked(series.values, 2)
    T = len(values)
    return values, _count(T - 1 if max_lag == "full" else max_lag, "max_lag", 1, T - 1)


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

    nfft = _fast_len(N + J)  # lags 1..J of a length-N column do not wrap
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
    energy = np.einsum("kt,kt->k", turned, turned)
    # tail[k]: the smaller of the trace and the padded Gershgorin bound of
    # the rotated columns' Gram matrix from k on (module docstring);
    # gersh[i, k] sums row i's |entries| from column k on, for i >= k
    gersh = np.tril(np.cumsum(np.abs(turned @ turned.T)[:, ::-1], axis=1)[:, ::-1])
    pad = N * 2.0**-52 * np.cumsum(np.sqrt(energy)[::-1])[::-1] ** 2
    tail = np.minimum(np.cumsum(energy[::-1])[::-1], gersh.max(0, initial=0.0) + pad)
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


def _retire(fit: _Fit, inputs: np.ndarray, spec: np.ndarray, work: tuple) -> int:
    """The number of a block's rows whose bootstrap statistic reaches D^2.

    ``inputs`` is (2, n, T) with the block's multipliers in ``inputs[1]``;
    ``inputs[0]`` receives eta * z, then the per-lag means, and ``spec``
    (2, n, nfft//2 + 1) the spectra of both. The rows run through the
    rotated columns one at a time: after column k a row's value over the
    first k + 1 columns, ``low``, brackets its full-rank value with
    ``low + tail[k + 1] * sum_t eta_t^2 v_t``, and a row leaves once the
    bracket lies clear of D^2 (module docstring). A row still open after the
    last column is within the slack of D^2, a tie, and counts as reaching it.
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
        # gather the open rows into the buffers, all of them at column 0;
        # mode="clip" writes into out directly, "raise" would buffer it
        spec.take(rows, axis=1, out=prod_k, mode="clip")
        mean.take(rows, axis=0, out=lift_k, mode="clip")
        prod_k *= fit.rotated[k]
        np.fft.irfft(prod_k, nfft, out=corr_k)
        lift_k *= fit.rotated_prefix[k]
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
    return above + len(rows)


def _exceedances(fit: _Fit, boot: BootstrapConfig) -> int:
    """Bootstrap statistics at or above the observed one.

    Replication b in [0, B) reads ``substream(boot.seed, GS_DOMAIN, b)``,
    derived in bulk by ``_substreams``, and blocks of replications go through
    ``_retire``. The block's buffers are allocated once per test, flat, and
    each block takes their leading part, so a short last block is
    contiguous too.
    """
    T = len(fit.z)
    J = len(fit.weight)
    m = min(boot.n_boot, max(1, _BLOCK_BYTES // (64 * fit.nfft)))
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
    streams = _substreams(boot.seed, GS_DOMAIN, boot.n_boot)
    for start in range(0, boot.n_boot, m):
        n = min(m, boot.n_boot - start)
        block = inputs[: 2 * n * T].reshape(2, n, T)
        for row, rng in zip(block[1], streams):
            row[:] = draw_multipliers(rng, boot.multiplier, T)
        spec = spectra[: 2 * n * bins].reshape(2, n, bins)
        exceed += _retire(fit, block, spec, work)
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
