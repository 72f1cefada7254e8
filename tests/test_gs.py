import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
from mdhtest.gs import _SLACK, _bracket, _exceedances, _fit, _replicate
from conftest import make_series
from reference import (
    random_series_values,
    ref_gs_statistic,
    ref_gs_statistic_expm1,
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
        assert _replicate(fit, ones)[0] == pytest.approx(fit.statistic, rel=1e-10)

    def test_positive_semidefinite(self):
        values = random_series_values(np.random.default_rng(32), 50)
        fit = _fit(values, 49)
        # recover Q by polarization: Q_ab = (r(e_a + e_b) - r(e_a) - r(e_b)) / 2
        eye = np.eye(50)
        diag = _replicate(fit, eye)
        a, b = np.triu_indices(50, 1)
        q = np.diag(diag)
        q[a, b] = q[b, a] = (_replicate(fit, eye[a] + eye[b]) - diag[a] - diag[b]) / 2
        assert np.linalg.eigvalsh(q).min() >= -1e-8 * np.abs(q).max()
        # every replication is a weighted sum of squares
        eta = np.random.default_rng(0).standard_normal((20, 50))
        assert np.all(_replicate(fit, eta) >= 0.0)

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
            got = _replicate(fit, eta[None, :])[0]
            assert got == pytest.approx(direct, rel=1e-10)


def _draws(boot, T):
    return np.array(
        [
            draw_multipliers(substream(boot.seed, GS_DOMAIN, b), boot.multiplier, T)
            for b in range(boot.n_boot)
        ]
    )


class TestEarlyDecision:
    # every replication is bracketed from the first fit.split columns of the
    # Gram factor; only rows the bracket cannot decide run at full rank

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: 0.01 * rng.standard_normal(300),  # decimal, K ~ 4
            lambda rng: rng.standard_normal(300),  # percent
            lambda rng: 3.0 * rng.standard_normal(300),  # K ~ 46
            lambda rng: 100.0 + rng.standard_normal(300),
            lambda rng: np.round(rng.standard_normal(300), 1),  # ties
        ],
        ids=["decimal", "percent", "sd3", "offset100", "ties"],
    )
    def test_bracket_holds(self, make):
        values = make(np.random.default_rng(51))
        T = len(values)
        fit = _fit(values, T - 1)
        k = fit.split
        assert 1 <= k < len(fit.spectra)
        eta = _draws(BootstrapConfig(n_boot=200, seed=3), T)
        full = _replicate(fit, eta)
        low, high = _bracket(fit, eta)
        # sum_j gamma_j |c*_j|^2 with c*_j the re-centered rescaled residuals
        norms = np.zeros(len(eta))
        for j in range(1, T):
            c = eta[:, j:] * (values[j:] - values[j:].mean())
            c -= c.mean(axis=1, keepdims=True)
            norms += fit.weight[j - 1] * np.einsum("bt,bt->b", c, c)
        assert np.all(low <= full)
        assert np.all(full <= low + fit.traces[k] * norms)
        assert np.all(low + fit.traces[k] * norms <= high)

    def test_straddling_rows_finish_at_full_rank(self, monkeypatch):
        values = random_series_values(np.random.default_rng(52), 300) * 100.0
        fit = _fit(values, 299)
        boot = BootstrapConfig(n_boot=200, seed=4)
        eta = _draws(boot, 300)
        low, high = _bracket(fit, eta)
        # a point inside the most brackets becomes the observed statistic
        covered = [np.sum((low <= x) & (x <= high)) for x in low]
        D = float(low[int(np.argmax(covered))] + 0.5 * (high - low).min())
        slack = _SLACK * (D + high)
        straddle = (low - D <= slack) & (D - high <= slack)
        assert 2 <= straddle.sum() < 20
        finished = []

        def spy(fit, rows, work=None, columns=None):
            if columns is None:
                finished.extend(map(bytes, rows))
            return _replicate(fit, rows, work, columns)

        monkeypatch.setattr(gs, "_replicate", spy)
        exceed = _exceedances(replace(fit, statistic=D), boot)
        assert sorted(finished) == sorted(map(bytes, eta[straddle]))
        assert exceed == np.sum(_replicate(fit, eta) >= D)

    @pytest.mark.parametrize("law", ["normal", "rademacher", "mammen"])
    def test_p_value_equals_full_rank_count(self, law):
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
        early = full_only = 0
        for i, (values, max_lag) in enumerate(grid):
            values = np.asarray(values, dtype=np.float64)
            boot = BootstrapConfig(n_boot=49, multiplier=law, seed=i)
            out = gs_test(make_series(values), boot, max_lag=max_lag)
            fit = _fit(values, out.max_lag_used)
            exceed = np.sum(_replicate(fit, _draws(boot, len(values))) >= fit.statistic)
            assert out.p_value == (1.0 + exceed) / 50.0
            early += fit.split < len(fit.spectra)
            full_only += fit.split == len(fit.spectra)
        assert early and full_only


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

    def test_matches_manual_bootstrap_reconstruction(self):
        cases = [
            (random_series_values(np.random.default_rng(36), 50), 23),
            # percent scale: the bracket decides most replications and
            # leaves one to the full-rank pass
            (100.0 * random_series_values(np.random.default_rng(16), 300), 39),
        ]
        for values, n_boot in cases:
            T = len(values)
            s = make_series(values)
            boot = BootstrapConfig(n_boot=n_boot, multiplier="normal", seed=11)
            out = gs_test(s, boot)
            fit = _fit(values, T - 1)
            statistic = fit.statistic
            exceed = 0
            undecided = 0
            for j in range(boot.n_boot):
                rng = substream(boot.seed, GS_DOMAIN, j)
                eta = draw_multipliers(rng, boot.multiplier, T)
                exceed += _replicate(fit, eta[None, :])[0] >= statistic
                low, high = _bracket(fit, eta[None, :])
                undecided += bool(low[0] <= statistic <= high[0])
            assert out.p_value == (1.0 + exceed) / (boot.n_boot + 1.0)
            assert out.statistic == statistic
            assert out.n_boot == n_boot
        # the last case took the early path and left a row undecided
        assert fit.split < len(fit.spectra)
        assert undecided >= 1

    def test_one_draw_per_replication(self, monkeypatch):
        # the benchmark's tracer counts these calls through gs's globals;
        # this series leaves one replication to the full-rank pass, which
        # must reuse its multipliers rather than draw them again
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

    def test_long_series_bounded_memory(self):
        # a T x T matrix at T = 10 000 would alone take 800 MB
        s = make_series(random_series_values(np.random.default_rng(38), 10_000))
        tracemalloc.start()
        try:
            out = gs_test(s, BootstrapConfig(n_boot=19, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert out.max_lag_used == 9_999
        assert 0.0 < out.p_value <= 1.0
        assert out.error_bound <= 1e-12 * out.statistic
