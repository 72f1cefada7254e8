import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.stats import chi2

from mdhtest import (
    BootstrapConfig,
    DegenerateSeriesError,
    ReturnSeries,
    autocorr,
    autocorrelations,
    avr_statistic,
    avr_test,
    describe,
    gs_statistic,
    gs_test,
    jarque_bera_from_moments,
    truncation_bound,
    variance_ratio,
)
from mdhtest.series import _DIRECT_ACV_LIMIT, _demeaned, _fast_len
from conftest import make_series
from reference import ref_autocorr, ref_jarque_bera


class TestReturnSeries:
    def test_coerces_values_and_dates(self):
        s = make_series([1, 2, 3])
        assert s.values.dtype == np.float64
        assert s.dates.dtype == np.dtype("datetime64[D]")
        assert len(s) == 3

    def test_rejects_unknown_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            make_series([1.0, 2.0], frequency="monthly")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_series([])

    def test_rejects_2d_values(self):
        dates = np.datetime64("2000-01-03") + np.arange(4)
        with pytest.raises(ValueError):
            ReturnSeries(np.zeros((2, 2)), dates, "daily")

    def test_rejects_length_mismatch(self):
        dates = np.datetime64("2000-01-03") + np.arange(3)
        with pytest.raises(ValueError):
            ReturnSeries(np.zeros(4), dates, "daily")

    def test_rejects_nonfinite_with_position(self):
        with pytest.raises(ValueError, match="position 2"):
            make_series([0.1, 0.2, np.nan, 0.3])
        with pytest.raises(ValueError, match="position 0"):
            make_series([np.inf, 0.2])

    def test_rejects_nonincreasing_dates(self):
        dates = np.array(
            ["2000-01-03", "2000-01-04", "2000-01-04"], dtype="datetime64[D]"
        )
        with pytest.raises(ValueError, match="increasing"):
            ReturnSeries(np.zeros(3), dates, "daily")

    @pytest.mark.parametrize(
        "values, dates, position",
        [([0.1], ["NaT"], 0), ([0.1, 0.2], ["2000-01-03", "NaT"], 1)],
        ids=["only", "last"],
    )
    def test_rejects_nat_with_position(self, values, dates, position):
        with pytest.raises(ValueError) as err:
            ReturnSeries(values, dates, "daily")
        assert str(err.value) == (
            f"date at position {position} is NaT, not a calendar date"
        )

    def test_slice_bounds_checked(self):
        s = make_series([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError) as err:
            s.slice(3, 2)
        assert str(err.value) == "invalid slice [3, 2) for length 5"

    def test_slice_preserves_metadata(self):
        s = make_series([1.0, 2.0, 3.0, 4.0], frequency="weekly")
        sub = s.slice(1, 3)
        assert sub.frequency == "weekly"
        assert np.array_equal(sub.values, [2.0, 3.0])
        assert np.array_equal(sub.dates, s.dates[1:3])


class TestDescribe:
    def test_moments_match_population_conventions(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(400) * 0.01 + 0.0002
        m = describe(make_series(values))
        mu = values.mean()
        d = values - mu
        m2 = np.mean(d**2)
        assert m.size == 400
        assert m.mean == pytest.approx(mu, rel=1e-12)
        assert m.std == pytest.approx(np.sqrt(m2), rel=1e-12)
        assert m.skewness == pytest.approx(np.mean(d**3) / m2**1.5, rel=1e-12)
        assert m.kurtosis == pytest.approx(np.mean(d**4) / m2**2, rel=1e-12)
        assert m.jarque_bera == pytest.approx(ref_jarque_bera(list(values)), rel=1e-10)
        assert m.jb_p == pytest.approx(chi2.sf(m.jarque_bera, 2), rel=1e-12)

    def test_jb_recomputable_from_reported_moments(self):
        rng = np.random.default_rng(6)
        m = describe(make_series(rng.standard_normal(100)))
        again = jarque_bera_from_moments(m.size, m.skewness, m.kurtosis)
        assert again == m.jarque_bera  # same expression, bit for bit

    @pytest.mark.parametrize("power", [-330, 330])
    def test_any_scale(self, power):
        # d**4 underflows to 0 at 2^-330 and overflows at 2^330 unless the
        # centered values are rescaled first
        values = np.random.default_rng(7).standard_normal(50)
        m = describe(make_series(values))
        scaled = describe(make_series(values * 2.0**power))
        assert scaled.std == m.std * 2.0**power
        for field in ("skewness", "kurtosis", "jarque_bera"):
            assert getattr(scaled, field) == pytest.approx(getattr(m, field), rel=1e-12)

    def test_requires_four_observations(self):
        with pytest.raises(ValueError):
            describe(make_series([0.1, 0.2, 0.3]))

    def test_degenerate_series_rejected(self):
        # the mean of 10 x 0.3 does not round to 0.3
        for values in ([0.5] * 10, [0.3] * 10):
            with pytest.raises(DegenerateSeriesError):
                describe(make_series(values))


class TestAutocorr:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_explicit_loops(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(rng.integers(5, 40))
        s = make_series(values)
        for lag in (1, 2, len(values) - 1):
            assert autocorr(s, lag) == pytest.approx(
                ref_autocorr(list(values), lag), rel=1e-10, abs=1e-12
            )

    def test_lag_bounds(self):
        s = make_series(np.random.default_rng(0).standard_normal(10))
        for lag in (0, 10, -1, 2.5, True):
            with pytest.raises(ValueError, match="lag"):
                autocorr(s, lag)
        assert autocorr(s, np.int64(5)) == autocorr(s, 5)

    def test_degenerate_error(self):
        # the mean of 3 x 0.1 does not round to 0.1
        for values in ([1.0, 1.0, 1.0], [0.1] * 3):
            with pytest.raises(DegenerateSeriesError):
                autocorr(make_series(values), 1)


class TestAutocorrelations:
    def test_covers_lags_one_through_t_minus_one(self):
        values = np.random.default_rng(1).standard_normal(50)
        assert len(autocorrelations(values)) == 49

    def test_matches_per_lag_estimates(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(60)
        rho = autocorrelations(values)
        for lag in range(1, 60):
            assert rho[lag - 1] == pytest.approx(
                ref_autocorr(list(values), lag), rel=1e-10, abs=1e-13
            )

    @pytest.mark.parametrize("T", [50, _DIRECT_ACV_LIMIT, _DIRECT_ACV_LIMIT + 1])
    def test_autocorr_is_one_lag_of_it(self, T):
        # the direct (T <= _DIRECT_ACV_LIMIT) and FFT paths alike
        values = np.random.default_rng(T).standard_normal(T)
        s = make_series(values)
        for lag in (1, 2, T - 1):
            assert autocorr(s, lag) == autocorrelations(values)[lag - 1]

    def test_fft_and_direct_paths_agree(self):
        # T=2500 exercises the FFT path; compare against the direct product
        rng = np.random.default_rng(3)
        values = rng.standard_normal(2500)
        rho_fft = autocorrelations(values)
        d = values - values.mean()
        den = float(d @ d)
        for lag in (1, 7, 100, 2400):
            direct = float(d[: len(d) - lag] @ d[lag:]) / den
            assert rho_fft[lag - 1] == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_empty_input_message(self):
        # the suite turns a RuntimeWarning (a mean of no values) into an error
        with pytest.raises(ValueError) as exc:
            autocorrelations([])
        assert str(exc.value) == "need at least 2 observations, got 0"

    def test_centering_is_values_minus_mean_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for T in (2, 3, 7, 250, 599, 601, 4097, 20_000):
            for scale in (1e-3, 1.0, 1e3):
                for offset in (0.0, 100.0, -1e6):
                    values = offset + scale * rng.standard_normal(T)
                    d, den = _demeaned(values)
                    assert np.array_equal(d, values - values.mean())
                    assert den == float(d @ d)

    def test_fast_len_matches_scipy_next_fast_len(self):
        # the FFT path's padded length: the least 5-smooth n' >= n
        ns = range(1, 20_001)
        assert [_fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


class TestSeriesValidity:
    """Every test decides short and all-equal input by the same rule."""

    BOOT = BootstrapConfig(n_boot=9, seed=0)
    ENTRY_POINTS = {
        "avr_statistic": avr_statistic,
        "avr_test": lambda s: avr_test(s, TestSeriesValidity.BOOT),
        "variance_ratio": lambda s: variance_ratio(s, 2.0),
        "gs_statistic": gs_statistic,
        "gs_test": lambda s: gs_test(s, TestSeriesValidity.BOOT),
        "truncation_bound": lambda s: truncation_bound(s, 1),
        "describe": describe,
        "autocorr": lambda s: autocorr(s, 1),
        "autocorrelations": lambda s: autocorrelations(s.values),
    }

    def test_all_equal_rejected_by_every_entry_point(self):
        # Neither mean rounds to its value, so the centered values are
        # rounding noise rather than zeros.
        for n, level in ((455, 9.351), (588, 0.72)):
            s = make_series([level] * n)
            for name, entry in self.ENTRY_POINTS.items():
                with pytest.raises(DegenerateSeriesError) as exc:
                    entry(s)
                assert str(exc.value) == "degenerate series: zero sample variance", name

    def test_short_input_message(self):
        for name, entry in self.ENTRY_POINTS.items():
            need = 2 if name.startswith(("gs", "truncation", "autocorr")) else 4
            with pytest.raises(ValueError) as exc:
                entry(make_series([0.1, 0.2, 0.3][: need - 1]))
            assert str(exc.value) == f"need at least {need} observations, got {need - 1}"
