import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdhtest import (
    BootstrapConfig,
    DegenerateSeriesError,
    DgpSpec,
    generate,
    gram_matrix,
    gs_statistic,
    gs_test,
    truncation_bound,
)
from mdhtest import gs
from mdhtest.bootstrap import GS_DOMAIN, _substreams, draw_multipliers, substream
from mdhtest.gs import _exceedances, _fit, _replicate
from conftest import generated_values, make_series
from reference import (
    random_series_values,
    ref_full_rank,
    ref_gs_statistic,
    ref_gs_statistic_expm1,
    ref_gs_sum_abs_bound,
    ref_gs_truncated_masses,
)


class TestGramMatrix:
    def test_two_point_example(self):
        w = gram_matrix(make_series([0.0, 1.0]))
        assert w[0, 0] == 1.0 and w[1, 1] == 1.0
        assert w[0, 1] == pytest.approx(0.6065306597126334, rel=1e-15)
        assert w[1, 0] == w[0, 1]

    def test_constant_series_gives_all_ones(self):
        w = gram_matrix(make_series([0.4, 0.4, 0.4]))
        assert np.array_equal(w, np.ones((3, 3)))

    def test_symmetric_unit_diagonal_psd(self):
        values = random_series_values(np.random.default_rng(21), 60)
        w = gram_matrix(make_series(values))
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diag(w), np.ones(60))
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        assert np.linalg.eigvalsh(w).min() >= -1e-10

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            gram_matrix(make_series([0.1]))


class TestGsStatistic:
    def test_frozen_three_point_value(self):
        got = gs_statistic(make_series([0.3, -0.1, 0.2]))
        assert got == pytest.approx(0.0007010948508168216, rel=1e-13)

    def test_two_observations_give_zero(self):
        # the only lag leaves a single residual, which centering annihilates
        assert gs_statistic(make_series([0.5, -0.2])) == 0.0

    def test_degenerate_series_rejected(self):
        # the mean of 455 x 9.351 does not round to 9.351
        for values in ([0.3, 0.3, 0.3, 0.3], [9.351] * 455):
            with pytest.raises(DegenerateSeriesError):
                gs_statistic(make_series(values))

    def test_max_lag_validation(self):
        s = make_series(random_series_values(np.random.default_rng(22), 10))
        boot = BootstrapConfig(n_boot=9, seed=0)
        # a float, bool or string is refused, never rounded or converted
        for bad in (0, 10, -3, 2.7, 5.0, True, "5"):
            for entry in (
                lambda: gs_statistic(s, max_lag=bad),
                lambda: gs_test(s, boot, max_lag=bad),
                lambda: truncation_bound(s, bad),
            ):
                with pytest.raises(ValueError, match="max_lag"):
                    entry()
        assert gs_statistic(s, max_lag=np.int64(5)) == gs_statistic(s, max_lag=5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for T in (3, 7, 20, 45):
            values = random_series_values(rng, T)
            got = gs_statistic(make_series(values))
            want = ref_gs_statistic(list(values))
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_brute_force_truncated(self):
        values = random_series_values(np.random.default_rng(24), 30)
        got = gs_statistic(make_series(values), max_lag=6)
        want = ref_gs_statistic(list(values), max_lag=6)
        assert got == pytest.approx(want, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(25)
        for T in (5, 40, 150):
            values = random_series_values(rng, T)
            assert gs_statistic(make_series(values)) >= -1e-12

    def test_translation_and_negation_invariance(self):
        values = random_series_values(np.random.default_rng(26), 80)
        base = gs_statistic(make_series(values))
        assert gs_statistic(make_series(values + 0.37)) == pytest.approx(
            base, rel=1e-10
        )
        assert gs_statistic(make_series(-values)) == pytest.approx(base, rel=1e-10)

    def test_not_scale_invariant(self):
        # the Gaussian weight has a fixed length scale, so rescaling the
        # data genuinely changes the statistic (unlike the AVR pipeline)
        values = random_series_values(np.random.default_rng(27), 80)
        base = gs_statistic(make_series(values))
        scaled = gs_statistic(make_series(5.0 * values))
        assert abs(scaled - base) > 1e-6 * abs(base)


class TestTruncationBound:
    def test_bounds_omitted_mass(self):
        rng = np.random.default_rng(28)
        for T in (12, 40):
            values = random_series_values(rng, T)
            s = make_series(values)
            full = gs_statistic(s)
            for J in (1, 3, T // 2):
                dropped = full - gs_statistic(s, max_lag=J)
                assert dropped <= truncation_bound(s, J) + 1e-12

    def test_full_lag_bound_is_zero(self):
        s = make_series(random_series_values(np.random.default_rng(29), 15))
        assert truncation_bound(s, "full") == 0.0

    @staticmethod
    def _regimes(rng, T):
        decimal = random_series_values(rng, T)
        yield "decimal", decimal
        yield "percent", decimal * 100.0
        yield "offset", decimal + 100.0
        yield "ties", np.round(decimal * 100.0, 2)
        yield "sd 1", rng.standard_normal(T)
        # three distinct values: the factor is exact, tr(R) = 0
        yield "factor", rng.permutation(np.resize([-0.01, 0.0, 0.01], T))

    @pytest.mark.parametrize("T", [3, 4, 30, 200])
    def test_tight_against_oracle(self, T):
        rng = np.random.default_rng(39 + T)
        lags = sorted({J for J in (1, 3, T // 2, T - 3) if 1 <= J <= T - 1})
        for regime, values in self._regimes(rng, T):
            s = make_series(values)
            # J = 0 drops every lag: the full-lag statistic
            full, *masses = ref_gs_truncated_masses(list(values), [0, *lags])
            for J, dropped in zip(lags, masses):
                bound = truncation_bound(s, J)
                case = (regime, T, J, bound, dropped)
                assert dropped <= bound, case
                # a zero dropped mass can come back as about 1e-44, so both
                # upper checks allow 1e-12 of the full-lag statistic
                assert bound <= dropped * (1 + 1e-10) + 1e-12 * full, case
                assert bound <= ref_gs_sum_abs_bound(values, J) + 1e-12 * full, case

    @given(values=generated_values(3, 120), data=st.data())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_covers_the_oracle_on_generated_series(self, values, data):
        # the bound carries its own roundoff allowance, _TRUNCATION_SLACK
        assume(np.ptp(values) > 0.0)
        J = data.draw(st.integers(1, len(values) - 1))
        (dropped,) = ref_gs_truncated_masses(list(values), [J])
        assert dropped <= truncation_bound(make_series(values), J)

    def test_covers_what_a_coarse_factor_leaves_out(self, monkeypatch):
        # stop pivoting at 1% certified error: the factored terms alone fall
        # short, and the tr(R) term has to make up the difference
        monkeypatch.setattr(gs, "_REL_TOL", 1e-2)
        rng = np.random.default_rng(40)
        short = 0
        for regime, values in self._regimes(rng, 30):
            s = make_series(values)
            fit = _fit(values, 29)
            lags = (1, 3, 15)
            for J, dropped in zip(lags, ref_gs_truncated_masses(list(values), lags)):
                assert dropped <= truncation_bound(s, J), (regime, J)
                short += math.fsum(fit.terms[J:]) * (1 + 1e-9) < dropped
        assert short > 0


class TestGramFactor:
    # the factored statistic against the brute-force oracles, over the data
    # a return series can be: decimal and percent scale, far larger scales,
    # a large mean, ticks (tied values) and the thinnest windows

    def _check(self, values):
        values = np.asarray(values, dtype=np.float64)
        out = gs_test(make_series(values), BootstrapConfig(n_boot=1, seed=0))
        assert out.statistic == pytest.approx(ref_gs_statistic(list(values)), rel=1e-10)
        # the certified bound covers the factor's error; the 1e-13 slack
        # covers floating-point roundoff, about 1e-15 relative here
        exact = ref_gs_statistic_expm1(list(values))
        assert exact - out.statistic <= out.error_bound + 1e-13 * exact
        assert out.statistic - exact <= 1e-13 * exact
        assert out.error_bound <= 1e-12 * out.statistic
        return out

    @pytest.mark.parametrize("scale", [0.01, 0.02, 1.0, 3.0, 10.0])
    def test_matches_oracle_at_every_scale(self, scale):
        values = scale * np.random.default_rng(41).standard_normal(60)
        out = self._check(values)
        assert 1 <= out.rank <= 58

    def test_large_mean_offset(self):
        values = random_series_values(np.random.default_rng(42), 60)
        self._check(values + 5.0)
        self._check(100.0 * values + 5.0)

    def test_tied_values(self):
        # percent returns quoted to one decimal: many exact ties
        values = np.round(np.random.default_rng(43).standard_normal(60), 1)
        self._check(values)

    def test_shortest_series(self):
        assert self._check([0.5, -0.2]).rank == 0
        self._check([0.3, -0.1, 0.2])
        self._check([1.3, -2.1, 0.4])

    def test_exhausted_factor_is_exact(self):
        # at scale 10 the Gram matrix has full numerical rank: pivoting runs
        # until the residual is gone, leaving an exact Cholesky factor of
        # the anchored matrix (whose anchor row is zero) with bound 0
        values = 10.0 * np.random.default_rng(44).standard_normal(8)
        out = self._check(values)
        assert out.rank == len(values) - 2
        assert out.error_bound == 0.0


class TestBootstrapMatrix:
    # each replication is the quadratic form eta' Q eta of an implicit
    # T x T matrix Q, evaluated through the Gram factor without forming Q

    def test_row_sums_reproduce_statistic(self):
        # with unit multipliers the quadratic form must collapse to the
        # observed statistic: 1'Q1 = D^2
        values = random_series_values(np.random.default_rng(31), 70)
        fit = _fit(values, len(values) - 1)
        ones = np.ones((1, len(values)))
        assert ref_full_rank(fit, ones)[0] == pytest.approx(fit.statistic, rel=1e-10)

    def test_positive_semidefinite(self):
        values = random_series_values(np.random.default_rng(32), 50)
        fit = _fit(values, 49)
        # recover Q by polarization: Q_ab = (r(e_a + e_b) - r(e_a) - r(e_b)) / 2
        eye = np.eye(50)
        diag = ref_full_rank(fit, eye)
        a, b = np.triu_indices(50, 1)
        q = np.diag(diag)
        pairs = ref_full_rank(fit, eye[a] + eye[b])
        q[a, b] = q[b, a] = (pairs - diag[a] - diag[b]) / 2
        assert np.linalg.eigvalsh(q).min() >= -1e-8 * np.abs(q).max()
        # every replication is a weighted sum of squares
        eta = np.random.default_rng(0).standard_normal((20, 50))
        assert np.all(ref_full_rank(fit, eta) >= 0.0)

    def test_quadratic_form_matches_direct_recentered_evaluation(self):
        # replication law computed two ways: (a) the batched FFT path,
        # (b) literally rescaling residuals, re-centering per lag, and
        # contracting against the raw Gram block
        values = random_series_values(np.random.default_rng(33), 40)
        s = make_series(values)
        w = gram_matrix(s)
        T = len(values)
        fit = _fit(values, T - 1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            eta = rng.standard_normal(T)
            direct = 0.0
            for j in range(1, T):
                n = T - j
                e = values[j:] - values[j:].mean()
                c = eta[j:] * e
                c = c - c.mean()
                gamma = (T - j) / (j * math.pi) ** 2
                direct += gamma * float(c @ (w[:n, :n] @ c))
            got = ref_full_rank(fit, eta[None, :])[0]
            assert got == pytest.approx(direct, rel=1e-10)


def _draws(boot, T):
    return np.array(
        [
            draw_multipliers(substream(boot.seed, GS_DOMAIN, b), boot.multiplier, T)
            for b in range(boot.n_boot)
        ]
    )


def _spy_finish(monkeypatch):
    """The multipliers' spectra that reach gs's full-rank finish, as a list
    of one (rows, nfft//2 + 1) array per chunk."""
    finished = []

    def spy(fit, spec, mean):
        finished.append(spec[1].copy())
        return _replicate(fit, spec, mean)

    monkeypatch.setattr(gs, "_replicate", spy)
    return finished


class TestEarlyDecision:
    # every replication runs through the rotated columns of the Gram factor
    # one at a time and retires once its bracket decides it; only rows
    # still open after the last column run at full rank

    REGIMES = pytest.mark.parametrize(
        "make",
        [
            lambda rng: 0.01 * rng.standard_normal(300),  # decimal, K ~ 4
            lambda rng: rng.standard_normal(300),  # percent
            lambda rng: 3.0 * rng.standard_normal(300),  # K ~ 46
            lambda rng: 100.0 + rng.standard_normal(300),
            lambda rng: np.round(rng.standard_normal(300), 1),  # ties
            lambda rng: np.array([0.5, -0.2]),  # rank 0
            lambda rng: rng.choice([-1.0, 1.0], 300),  # two values: rank 1
        ],
        ids=["decimal", "percent", "sd3", "offset100", "ties", "rank0", "rank1"],
    )

    @staticmethod
    def _turned(fit):
        # the rotated factor's columns, recovered from their spectra
        return np.fft.irfft(np.conj(fit.rotated), fit.nfft)[:, : len(fit.z) - 1]

    @REGIMES
    def test_bracket_holds(self, make):
        values = make(np.random.default_rng(51))
        T = len(values)
        fit = _fit(values, T - 1)
        K = len(fit.factor)
        eta = _draws(BootstrapConfig(n_boot=200, seed=3), T)
        full = ref_full_rank(fit, eta)
        turned = self._turned(fit)
        # partial[k]: the value over the first k rotated columns, by direct
        # products; norms: sum_j gamma_j |c*_j|^2, c*_j the re-centered
        # rescaled residuals
        partial = np.zeros((K + 1, len(eta)))
        norms = np.zeros(len(eta))
        for j in range(1, T):
            c = eta[:, j:] * (values[j:] - values[j:].mean())
            c -= c.mean(axis=1, keepdims=True)
            u = c @ turned[:, : T - j].T
            partial[1:] += fit.weight[j - 1] * np.cumsum(u * u, axis=1).T
            norms += fit.weight[j - 1] * np.einsum("bt,bt->b", c, c)
        tol = 1.0 + 1e-12
        for k in range(K + 1):
            low = partial[k]
            assert np.all(low <= full * tol)
            assert np.all(full <= (low + fit.tail[k] * norms) * tol)
        # so the upper end the code uses, low + tail[k] * sum_t eta_t^2 v_t,
        # holds too
        assert np.all(norms <= ((eta * eta) @ fit.spread) * tol)
        # the rotation keeps the quadratic form: all K columns give the
        # full-rank value
        assert np.allclose(partial[K], full, rtol=1e-12, atol=0.0)

    @REGIMES
    def test_tail_bounds_spectral_norm(self, make):
        # a Frobenius norm bounds the spectral norm: tail[k] caps the
        # largest eigenvalue of the trailing columns' Gram matrix
        values = make(np.random.default_rng(51))
        fit = _fit(values, len(values) - 1)
        turned = self._turned(fit)
        K = len(turned)
        assert fit.tail[K] == 0.0
        for k in range(K):
            top = np.linalg.eigvalsh(turned[k:] @ turned[k:].T)[-1]
            assert fit.tail[k] >= top * (1.0 - 1e-12)
        # falling eigenvalues: each column carries at most the one before,
        # up to the rounding of the largest
        energy = np.einsum("kt,kt->k", turned, turned)
        assert np.all(energy[1:] <= energy[:-1] + 1e-12 * energy[:1])

    @REGIMES
    def test_finish_reads_the_unrotated_factor(self, make):
        # the full-rank finish must read the factor the statistic was summed
        # from: each lag's terms, rebuilt from fit.factor column by column in
        # the pivot loop's order, equal fit.terms bit for bit
        values = make(np.random.default_rng(51))
        T = len(values)
        fit = _fit(values, T - 1)
        J = len(fit.weight)
        z_spec = np.fft.rfft(fit.z, fit.nfft)
        sums = np.zeros(J)
        for col in fit.factor:
            spec = np.conj(np.fft.rfft(col, fit.nfft))
            prefix = np.cumsum(col)[fit.counts - 1]
            u = np.fft.irfft(spec * z_spec, fit.nfft)[1 : J + 1] - fit.shift * prefix
            sums += u * u
        assert np.array_equal(fit.weight * sums, fit.terms)

    def test_straddling_rows_finish_at_full_rank(self, monkeypatch):
        values = random_series_values(np.random.default_rng(52), 300) * 100.0
        fit = _fit(values, 299)
        boot = BootstrapConfig(n_boot=200, seed=4)
        eta = _draws(boot, 300)
        # -eta gives the same value bit for bit: three rows tie with D, and
        # no column can decide a tie
        eta[[10, 20]] = -eta[0]
        D = float(ref_full_rank(fit, eta[:1])[0])
        full = ref_full_rank(fit, eta)
        assert np.sum(np.abs(full - D) <= 1e-6 * D) == 3
        # one draw per replication: the finish reuses a row's multipliers,
        # and a 201st draw would raise StopIteration
        rows = iter(eta)
        monkeypatch.setattr(gs, "draw_multipliers", lambda rng, law, T: next(rows))
        finished = _spy_finish(monkeypatch)
        exceed = _exceedances(replace(fit, statistic=D), boot)
        assert sorted(map(bytes, np.concatenate(finished))) == sorted(
            map(bytes, np.fft.rfft(eta[[0, 10, 20]], fit.nfft))
        )
        assert exceed == np.sum(full >= D)

    @pytest.mark.parametrize("law", ["normal", "rademacher", "mammen"])
    def test_p_value_equals_full_rank_count(self, law, monkeypatch):
        rng = np.random.default_rng(53)
        grid = [
            (sd * rng.standard_normal(T), max_lag)
            for sd in (0.01, 0.3, 1.0, 3.0, 10.0)
            for T in (3, 4, 5, 60, 300)
            for max_lag in ("full", max(1, T // 4))
        ]
        bilinear = DgpSpec(kind="bilinear", length=300, seed=5, params={"b": 0.4})
        grid += [
            ([0.5, -0.2], "full"),  # rank 0
            (rng.standard_normal(700), "full"),
            (100.0 + rng.standard_normal(300), "full"),
            (np.round(rng.standard_normal(300), 1), "full"),
            (generate(bilinear).values, "full"),
        ]
        finished = _spy_finish(monkeypatch)
        early = finishing = 0
        for i, (values, max_lag) in enumerate(grid):
            values = np.asarray(values, dtype=np.float64)
            boot = BootstrapConfig(n_boot=49, multiplier=law, seed=i)
            finished.clear()
            out = gs_test(make_series(values), boot, max_lag=max_lag)
            fit = _fit(values, out.max_lag_used)
            full = ref_full_rank(fit, _draws(boot, len(values)))
            exceed = np.sum(full >= fit.statistic)
            assert out.p_value == (1.0 + exceed) / 50.0
            early += not finished
            finishing += bool(finished)
        # both paths ran: some case retired every row early, and some sent
        # rows to the full-rank finish
        assert early and finishing

    @given(
        T=st.integers(min_value=2, max_value=120),
        points=st.one_of(
            st.none(),  # continuous values, else ties on 2 to 5 points
            st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5, unique=True),
        ),
        u=st.floats(min_value=-4.0, max_value=1.0),
        offset=st.sampled_from([0.0, 100.0, -100.0, 1e4]),
        law=st.sampled_from(["normal", "rademacher", "mammen"]),
        n_boot=st.sampled_from([19, 39]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_p_value_equals_full_rank_count_on_generated_series(
        self, T, points, u, offset, law, n_boot, seed, data
    ):
        draws = st.floats(-3.0, 3.0) if points is None else st.sampled_from(points)
        raw = data.draw(st.lists(draws, min_size=T, max_size=T))
        values = offset + 10.0**u * np.array(raw)
        assume(np.ptp(values) > 0.0)
        max_lag = data.draw(st.one_of(st.just("full"), st.integers(1, T - 1)))
        boot = BootstrapConfig(n_boot=n_boot, multiplier=law, seed=seed)
        out = gs_test(make_series(values), boot, max_lag=max_lag)
        fit = _fit(values, out.max_lag_used)
        full = ref_full_rank(fit, _draws(boot, T))
        assert out.p_value == (1.0 + np.sum(full >= fit.statistic)) / (n_boot + 1.0)

    @pytest.mark.parametrize("law", ["normal", "rademacher", "mammen"])
    def test_outcome_independent_of_block_size(self, law, monkeypatch):
        # each row's decision is certified and the exceedance count is a sum
        # of integers, so blocks of one row, of the default size and of every
        # row give the same outcome. At T = 300 the default blocks end on a
        # short one
        finished = _spy_finish(monkeypatch)
        boot = BootstrapConfig(n_boot=99, multiplier=law, seed=8)
        default = gs._BLOCK_BYTES
        for make in self.REGIMES.args[1]:
            series = make_series(make(np.random.default_rng(51)))
            nfft = _fit(series.values, len(series.values) - 1).nfft
            rows = default // (64 * nfft)
            assert rows >= boot.n_boot or boot.n_boot % rows
            outcomes = []
            for size in (1, default, boot.n_boot * 64 * nfft):
                monkeypatch.setattr(gs, "_BLOCK_BYTES", size)
                outcomes.append(gs_test(series, boot))
            assert outcomes[0] == outcomes[1] == outcomes[2]
        # rank 0 sends every row to the full-rank finish
        assert finished

    def test_finish_derives_the_factor_spectra_once(self, monkeypatch):
        # with every row forced to the full-rank finish, the rows arrive in
        # several chunks, and the unrotated factor's spectra are taken once
        # for all of them
        values = random_series_values(np.random.default_rng(54), 300) * 100.0
        series = make_series(values)
        boot = BootstrapConfig(n_boot=19, seed=6)
        expected = gs_test(series, boot)
        fits, transformed = [], []
        rfft = np.fft.rfft

        def fit_spy(values, J):
            fits.append(_fit(values, J))
            return fits[-1]

        def rfft_spy(a, *args, **kwargs):
            transformed.append(a)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(gs, "_fit", fit_spy)
        monkeypatch.setattr(np.fft, "rfft", rfft_spy)
        monkeypatch.setattr(gs, "_SLACK", np.inf)
        finished = _spy_finish(monkeypatch)
        assert gs_test(series, boot) == expected
        assert len(finished) > 1
        assert sum(a is fits[0].factor for a in transformed) == 1


class TestGsTest:
    def test_statistic_bit_identical_to_standalone(self):
        for T in (300, 1100):
            values = random_series_values(np.random.default_rng(T), T)
            s = make_series(values)
            out = gs_test(s, BootstrapConfig(n_boot=5, seed=2))
            assert out.statistic == gs_statistic(s)
            assert out.max_lag_used == T - 1

    def test_max_lag_echoed(self):
        s = make_series(random_series_values(np.random.default_rng(34), 60))
        out = gs_test(s, BootstrapConfig(n_boot=9, seed=0), max_lag=5)
        assert out.max_lag_used == 5
        assert out.statistic == gs_statistic(s, max_lag=5)

    def test_deterministic_and_worker_independent(self):
        s = make_series(random_series_values(np.random.default_rng(35), 90))
        boot = BootstrapConfig(n_boot=40, multiplier="rademacher", seed=17)
        a = gs_test(s, boot)
        b = gs_test(s, boot)
        assert a == b

    def test_matches_manual_bootstrap_reconstruction(self, monkeypatch):
        cases = [
            (random_series_values(np.random.default_rng(36), 50), 23),
            # percent scale: the rotated columns retire every replication
            # before the full-rank finish
            (100.0 * random_series_values(np.random.default_rng(16), 300), 39),
        ]
        finished = _spy_finish(monkeypatch)
        for values, n_boot in cases:
            T = len(values)
            s = make_series(values)
            boot = BootstrapConfig(n_boot=n_boot, multiplier="normal", seed=11)
            finished.clear()
            out = gs_test(s, boot)
            fit = _fit(values, T - 1)
            statistic = fit.statistic
            exceed = 0
            for j in range(boot.n_boot):
                rng = substream(boot.seed, GS_DOMAIN, j)
                eta = draw_multipliers(rng, boot.multiplier, T)
                exceed += ref_full_rank(fit, eta[None, :])[0] >= statistic
            assert out.p_value == (1.0 + exceed) / (boot.n_boot + 1.0)
            assert out.statistic == statistic
            assert out.n_boot == n_boot
        assert len(fit.factor) > 20 and not finished

    def test_one_draw_per_replication(self, monkeypatch):
        # the benchmark's tracer counts these calls through gs's globals
        streams, draws = [], []

        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(gs, "_substreams", counted(streams, _substreams))
        monkeypatch.setattr(gs, "draw_multipliers", counted(draws, draw_multipliers))
        values = 100.0 * random_series_values(np.random.default_rng(16), 300)
        gs_test(make_series(values), BootstrapConfig(n_boot=39, seed=11))
        assert streams == [(11, GS_DOMAIN, 0, 39)]
        assert len(draws) == 39

    def test_p_value_grid_and_range(self):
        s = make_series(random_series_values(np.random.default_rng(37), 40))
        out = gs_test(s, BootstrapConfig(n_boot=19, seed=4))
        assert 0.0 < out.p_value <= 1.0
        assert (out.p_value * 20.0) == pytest.approx(round(out.p_value * 20.0))

    def test_iid_size_within_band(self):
        # null rejection rate of the 5% test, iid normal, T=300, B=300
        M = 500
        rejections = 0
        for i in range(M):
            s = generate(DgpSpec(kind="iid_normal", length=300, seed=30_000 + i))
            out = gs_test(s, BootstrapConfig(n_boot=300, seed=i))
            rejections += out.p_value < 0.05
        assert 0.025 <= rejections / M <= 0.08

    @pytest.mark.parametrize(
        "T, sd", [(520, 1.0), (2000, 5.0), (6000, 1.5)], ids=["520", "2000sd5", "6000"]
    )
    def test_memory_within_block_plus_factor(self, T, sd):
        # working memory is O(_BLOCK_BYTES + K * T) (module docstring): the
        # bootstrap's buffers, plus arrays of T values for each factor
        # column and a few more. The constants are measured, with 1.34x
        # headroom or more on every case here; at T = 2000, sd 5 (K = 86)
        # and T = 6000, sd 1.5 (K = 36) a second copy of the factor's
        # spectra and a finish workspace of K rows would exceed the bound
        blocks = 2  # bootstrap blocks' worth of buffers
        column_bytes = 56  # bytes per factor column and observation
        extra_columns = 20  # the O(T) arrays of the fit, in columns
        values = sd * np.random.default_rng(T).standard_normal(T)
        tracemalloc.start()
        try:
            out = gs_test(make_series(values), BootstrapConfig(n_boot=19, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K = out.rank
        assert peak < blocks * gs._BLOCK_BYTES + column_bytes * (K + extra_columns) * T

    @pytest.mark.parametrize("T", [250, 520, 2000])
    def test_block_row_within_sized_bytes(self, T, monkeypatch):
        # blocks are sized at 64 * nfft bytes a row (module docstring): the
        # traced peak may grow by no more than that for each row a block
        # gains. Blocks of 30 and 60 rows over 199 replications, so the last
        # block is short in both
        series = make_series(np.random.default_rng(T).standard_normal(T))
        nfft = _fit(series.values, T - 1).nfft
        peaks = []
        for rows in (30, 60):
            monkeypatch.setattr(gs, "_BLOCK_BYTES", rows * 64 * nfft)
            tracemalloc.start()
            try:
                gs_test(series, BootstrapConfig(n_boot=199, seed=5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 30 <= 64 * nfft

    def test_long_series_bounded_memory(self):
        # a T x T matrix at T = 10 000 would alone take 800 MB
        s = make_series(random_series_values(np.random.default_rng(38), 10_000))
        tracemalloc.start()
        try:
            out = gs_test(s, BootstrapConfig(n_boot=19, seed=5))
            bound = truncation_bound(s, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert out.max_lag_used == 9_999
        assert 0.0 < out.p_value <= 1.0
        assert out.error_bound <= 1e-12 * out.statistic
        assert 0.0 < bound < out.statistic
