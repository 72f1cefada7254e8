import numpy as np
import pytest
from scipy.signal import lfilter

from mdhtest import BootstrapConfig, DgpSpec, avr_test, generate, gs_test
from mdhtest.bootstrap import DGP_DOMAIN, substream
from mdhtest.series import autocorrelations


class TestDgpSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DgpSpec(kind="ar2", length=100, seed=0)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            DgpSpec(kind="iid_normal", length=0, seed=0)

    def test_bad_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            DgpSpec(kind="iid_normal", length=10, seed=0, frequency="monthly")

    def test_param_sets_must_match_exactly(self):
        with pytest.raises(ValueError, match="takes params"):
            DgpSpec(kind="iid_normal", length=10, seed=0, params={"phi": 0.1})
        with pytest.raises(ValueError, match="takes params"):
            DgpSpec(kind="ar1", length=10, seed=0)
        with pytest.raises(ValueError, match="takes params"):
            DgpSpec(kind="ar1", length=10, seed=0, params={"phi": 0.1, "b": 0.2})
        with pytest.raises(ValueError, match="takes params"):
            DgpSpec(kind="garch11", length=10, seed=0, params={"omega": 0.1, "alpha": 0.1})

    def test_non_finite_param(self):
        with pytest.raises(ValueError, match="finite"):
            DgpSpec(kind="ar1", length=10, seed=0, params={"phi": float("nan")})

    def test_stationarity(self):
        cases = [
            ("ar1", {"phi": 1.0}, "ar1 requires |phi| < 1, got phi=1.0"),
            (
                "garch11",
                {"omega": 0.0, "alpha": 0.1, "beta": 0.8},
                "garch11 requires omega > 0, got 0.0",
            ),
            (
                "garch11",
                {"omega": 0.1, "alpha": -0.1, "beta": 0.8},
                "garch11 requires alpha, beta >= 0, got -0.1, 0.8",
            ),
            (
                "garch11",
                {"omega": 0.1, "alpha": 0.2, "beta": 0.8},
                "garch11 requires alpha + beta < 1, got 1.0",
            ),
            ("bilinear", {"b": -1.0}, "bilinear requires |b| < 1, got b=-1.0"),
        ]
        for kind, params, message in cases:
            with pytest.raises(ValueError) as info:
                DgpSpec(kind=kind, length=10, seed=0, params=params)
            assert str(info.value) == message

    def test_burn_in_rules(self):
        assert DgpSpec(kind="iid_normal", length=10, seed=0).burn_in == 0
        assert DgpSpec(kind="ar1", length=10, seed=0, params={"phi": 0.3}).burn_in == 200
        spec = DgpSpec(
            kind="garch11",
            length=10,
            seed=0,
            params={"omega": 0.05, "alpha": 0.1, "beta": 0.85},
            burn_in=150,
        )
        assert spec.burn_in == 150
        with pytest.raises(ValueError, match="burn_in"):
            DgpSpec(kind="ar1", length=10, seed=0, params={"phi": 0.3}, burn_in=50)
        with pytest.raises(ValueError, match="burn_in"):
            DgpSpec(kind="iid_normal", length=10, seed=0, burn_in=-1)


class TestGenerate:
    def test_deterministic(self):
        spec = DgpSpec(kind="garch11", length=300, seed=5,
                       params={"omega": 0.05, "alpha": 0.1, "beta": 0.85})
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.dates, b.dates)
        other = DgpSpec(kind="garch11", length=300, seed=6,
                        params={"omega": 0.05, "alpha": 0.1, "beta": 0.85})
        assert not np.array_equal(a.values, generate(other).values)

    def test_dates_and_length(self):
        daily = generate(DgpSpec(kind="iid_normal", length=5, seed=0))
        assert len(daily) == 5
        assert daily.frequency == "daily"
        assert daily.dates[0] == np.datetime64("2000-01-03")
        assert np.all(np.diff(daily.dates).astype(int) == 1)
        weekly = generate(DgpSpec(kind="iid_normal", length=5, seed=0, frequency="weekly"))
        assert weekly.frequency == "weekly"
        assert np.all(np.diff(weekly.dates).astype(int) == 7)

    def test_iid_moments(self):
        s = generate(DgpSpec(kind="iid_normal", length=10_000, seed=1))
        assert abs(s.values.mean()) <= 0.03
        assert 0.94 <= s.values.var() <= 1.06

    def test_ar1_first_autocorrelation(self):
        s = generate(DgpSpec(kind="ar1", length=10_000, seed=2, params={"phi": 0.5}))
        assert autocorrelations(s.values)[0] == pytest.approx(0.5, abs=0.03)

    @pytest.mark.parametrize("phi", [-0.9, -0.3, 0.0, 0.5, 0.95])
    def test_ar1_recursion_matches_lfilter(self, phi):
        spec = DgpSpec(kind="ar1", length=500, seed=9, params={"phi": phi})
        eps = substream(spec.seed, DGP_DOMAIN).standard_normal(spec.burn_in + spec.length)
        expected = lfilter([1.0], [1.0, -phi], eps)[spec.burn_in :]
        assert np.array_equal(generate(spec).values, expected)

    def test_garch_uncorrelated_levels_correlated_squares(self):
        s = generate(
            DgpSpec(
                kind="garch11",
                length=10_000,
                seed=3,
                params={"omega": 0.05, "alpha": 0.1, "beta": 0.85},
            )
        )
        levels = autocorrelations(s.values)[0]
        squares = autocorrelations(s.values**2)[0]
        assert abs(levels) <= 0.03
        assert squares > 0.05

    def test_bilinear_moments_match_closed_forms(self):
        # Y = b*Y'*e' + e with N(0,1) innovations has E[Y e] = 1, hence
        # mean b, raw second moment (1+2b^2)/(1-b^2), centered lag-1
        # autocovariance 2b^2 - b^2 = b^2: the LEVELS are mildly
        # autocorrelated, the conditional-mean dependence is what the
        # spectral test is for
        b = 0.4
        s = generate(DgpSpec(kind="bilinear", length=200_000, seed=7, params={"b": b}))
        v = s.values
        assert v.mean() == pytest.approx(b, abs=0.02)
        assert (v**2).mean() == pytest.approx((1 + 2 * b * b) / (1 - b * b), abs=0.06)
        rho1_theory = b * b * (1 - b * b) / (1 + b * b + b**4)
        assert autocorrelations(v)[0] == pytest.approx(rho1_theory, abs=0.02)


class TestPowerMonotoneInSampleSize:
    def run_rates(self, test, kind, params):
        rates = []
        for T in (250, 500, 1000):
            rejections = 0
            for i in range(40):
                spec = DgpSpec(kind=kind, length=T, seed=70_000 + 97 * T + i, params=params)
                out = test(generate(spec), BootstrapConfig(n_boot=99, seed=i))
                rejections += out.p_value < 0.05
            rates.append(rejections / 40)
        return rates

    def test_avr_power_on_ar1(self):
        rates = self.run_rates(avr_test, "ar1", {"phi": 0.2})
        assert rates == [32 / 40, 38 / 40, 40 / 40]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.075

    def test_gs_power_on_bilinear(self):
        rates = self.run_rates(gs_test, "bilinear", {"b": 0.3})
        assert rates == [39 / 40, 40 / 40, 40 / 40]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.075
