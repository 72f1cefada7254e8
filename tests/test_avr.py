import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdhtest import (
    MULTIPLIERS,
    AvrOutcome,
    BootstrapConfig,
    DegenerateSeriesError,
    DgpSpec,
    avr_statistic,
    avr_test,
    generate,
    qs_kernel,
    variance_ratio,
)
from mdhtest import avr
from mdhtest.avr import _CHUNK_BYTES, _bandwidth_from_rho1, _chunk_statistics
from mdhtest.bootstrap import AVR_DOMAIN, _substreams, draw_multipliers, substream
from mdhtest.series import _DIRECT_ACV_LIMIT, autocorrelations
from conftest import generated_values, make_series
from reference import ref_avr_statistic, ref_qs_kernel, random_series_values


class TestQsKernel:
    def test_origin_is_exactly_one(self):
        assert qs_kernel(0.0) == 1.0
        assert not math.isnan(qs_kernel(0.0))

    def test_value_where_cosine_term_vanishes(self):
        # at x = 5/6 the argument is pi, leaving 3/pi^2 exactly
        assert qs_kernel(5.0 / 6.0) == pytest.approx(3.0 / math.pi**2, abs=1e-12)

    def test_matches_published_form_at_moderate_arguments(self):
        for x in np.linspace(0.05, 5.0, 200):
            assert qs_kernel(float(x)) == pytest.approx(ref_qs_kernel(x), rel=1e-13)

    @given(st.floats(min_value=3e-4, max_value=0.0132))
    @settings(max_examples=200, deadline=None)
    def test_series_branch_matches_closed_form(self, x):
        # arguments just below the branch switch, where the closed form is
        # still accurate enough in doubles to referee the series expansion
        z = 1.2 * math.pi * x
        closed = 3.0 / z**2 * (math.sin(z) / z - math.cos(z))
        assert qs_kernel(x) == pytest.approx(closed, abs=1e-9)

    def test_vectorizes(self):
        x = np.array([0.0, 0.005, 0.5, 5.0 / 6.0])
        out = qs_kernel(x)
        assert out.shape == x.shape
        assert out[0] == 1.0
        assert out[3] == pytest.approx(3.0 / math.pi**2, abs=1e-12)

    def test_decays(self):
        assert abs(qs_kernel(50.0)) < 1e-3

    def test_limit_zero_at_infinity(self):
        # z * z overflows from |z| ~ 1.3e154 on, and sin(inf) is nan; the
        # suite turns the overflow RuntimeWarning into an error
        for x in (math.inf, -math.inf, 1e200, -1e200, 1e308):
            assert qs_kernel(x) == 0.0, x
        out = qs_kernel(np.array([math.inf, 0.0, 1e200]))
        assert out.tolist() == [0.0, 1.0, 0.0]


class TestBandwidth:
    def test_plugin_arithmetic(self):
        # rho=0.5, T=500: alpha(2) = 16, k = 1.3221 * 8000^(1/5)
        assert _bandwidth_from_rho1(np.array([0.5]), 500)[0] == pytest.approx(
            1.3221 * 8000.0**0.2, rel=1e-12
        )

    def test_floor_at_one(self):
        # rho=1 makes the plug-in non-finite
        assert _bandwidth_from_rho1(np.array([0.0, 1.0]), 1000).tolist() == [1.0, 1.0]

    def test_array_matches_scalar_elementwise(self):
        # each element equals its own one-element call, avr_statistic's one-row block
        near_one = [1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 1e-15, np.nextafter(1.0, 0.0)]
        rho1 = np.array([0.0, 0.5, -0.9, 1.0, *near_one])
        for n_obs in (4, 250, 1000):
            got = _bandwidth_from_rho1(rho1, n_obs)
            assert isinstance(got, np.ndarray) and got.shape == rho1.shape
            assert got.tolist() == [
                _bandwidth_from_rho1(np.array([r]), n_obs)[0] for r in rho1
            ]
            assert got[0] == got[3] == 1.0  # the floor and the non-finite plug-in
            assert np.all(np.isfinite(got[4:])) and np.all(got[4:] > 1.0)

    def test_auto_bandwidth_affine_invariant(self):
        values = random_series_values(np.random.default_rng(11), 200)
        k1 = avr_statistic(make_series(values))[2]
        k2 = avr_statistic(make_series(3.5 * values - 0.02))[2]
        assert k2 == pytest.approx(k1, rel=1e-9)

    def test_needs_four_observations(self):
        with pytest.raises(ValueError):
            avr_statistic(make_series([0.1, 0.2, 0.3]))[2]


class TestVarianceRatio:
    def test_alternating_series_frozen_value(self):
        s = make_series([1.0, -1.0, 1.0, -1.0])
        assert variance_ratio(s, 2.0) == pytest.approx(0.15028958517056773, rel=1e-12)

    def test_rejects_bad_holding_period(self):
        s = make_series(np.random.default_rng(0).standard_normal(10))
        for bad in (0.0, -1.0, 0, np.int64(-2)):
            with pytest.raises(ValueError, match="holding period k must be positive"):
                variance_ratio(s, bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="holding period k must be a finite"):
                variance_ratio(s, bad)

    def test_tiny_holding_period_weighs_no_lag(self):
        # every lag / k is at least 1e300 or overflows to inf: m = 0 there
        s = make_series(random_series_values(np.random.default_rng(18), 50))
        for k in (1e-300, 5e-324):
            assert variance_ratio(s, k) == 1.0, k

    def test_matches_brute_force_up_to_t_1000(self):
        rng = np.random.default_rng(12)
        for T in (8, 37, 200, 1000):
            values = random_series_values(rng, T)
            got, _, _ = avr_statistic(make_series(values))
            want, _, _ = ref_avr_statistic(list(values))
            assert got == pytest.approx(want, rel=1e-10)

    @given(values=generated_values(4, 650))
    @example(values=random_series_values(np.random.default_rng(19), _DIRECT_ACV_LIMIT))
    @example(
        values=random_series_values(np.random.default_rng(20), _DIRECT_ACV_LIMIT + 1)
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matches_brute_force_on_generated_series(self, values):
        # both sides of the direct/FFT split. The mean is rounded by up to
        # T eps |offset|, relative to the spread: that, not the method,
        # bounds how far two correct centrings can differ
        assume(np.ptp(values) > 0.0)
        T = len(values)
        centring = T * 2.0**-52 * abs(float(np.mean(values))) / np.std(values)
        got = avr_statistic(make_series(values))
        want = ref_avr_statistic(list(values))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10 + centring)

    @given(
        values=generated_values(4, 300),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_chunk_row_independent_of_its_block(self, values, rows, seed):
        # a replication's statistic, ratio and bandwidth are the same bits
        # whatever block it is computed in; the last row is a constant
        # replication, which avr_test enters as zeros
        assume(np.ptp(values) > 0.0)
        T = len(values)
        rng = np.random.default_rng(seed)
        block = np.zeros((rows + 1, T - 1))
        for i in range(rows):
            block[i] = autocorrelations(rng.standard_normal(T) * values)
        together = _chunk_statistics(block, T)
        for i in range(rows + 1):
            alone = _chunk_statistics(block[i : i + 1], T)
            assert [a[i] for a in together] == [a[0] for a in alone]


class TestAvrStatistic:
    def test_outcome_fields_satisfy_defining_identity(self):
        values = random_series_values(np.random.default_rng(13), 150)
        stat, vr, bw = avr_statistic(make_series(values))
        assert stat == math.sqrt(150.0 / bw) * (vr - 1.0) / math.sqrt(2.0)

    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=-5.0, max_value=5.0),
        flip=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, a, b, flip):
        values = random_series_values(np.random.default_rng(14), 120)
        scale = -a if flip else a
        s1, v1, k1 = avr_statistic(make_series(values))
        s2, v2, k2 = avr_statistic(make_series(scale * values + b))
        assert s2 == pytest.approx(s1, rel=1e-8, abs=1e-8)
        assert v2 == pytest.approx(v1, rel=1e-8)
        assert k2 == pytest.approx(k1, rel=1e-8)


def _rebuilt(values, boot):
    """The AvrOutcome of ``avr_test`` rebuilt one replication at a time.

    Replication j draws from ``substream(seed, AVR_DOMAIN, j)`` and runs
    ``avr_statistic`` once; a constant replication counts as 0.
    """
    stat, vr, bw = avr_statistic(make_series(values))
    boot_stats = np.zeros(boot.n_boot)
    for j in range(boot.n_boot):
        rng = substream(boot.seed, AVR_DOMAIN, j)
        eta = draw_multipliers(rng, boot.multiplier, len(values))
        try:
            boot_stats[j] = avr_statistic(make_series(eta * values))[0]
        except DegenerateSeriesError:
            pass
    exceed = int(np.sum(np.abs(boot_stats) >= abs(stat)))
    ci_low, ci_high = np.percentile(boot_stats, [2.5, 97.5])
    return AvrOutcome(
        statistic=stat,
        vr=vr,
        bandwidth=bw,
        p_value=(1.0 + exceed) / (boot.n_boot + 1.0),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_boot=boot.n_boot,
    )


class TestAvrTest:
    def test_deterministic(self):
        s = make_series(random_series_values(np.random.default_rng(15), 80))
        boot = BootstrapConfig(n_boot=60, multiplier="rademacher", seed=99)
        a = avr_test(s, boot)
        b = avr_test(s, boot)
        assert a == b

    def test_matches_manual_bootstrap_reconstruction(self):
        # Replications run in chunks of _CHUNK_BYTES // (8 (T-1)) rows; one at
        # a time here. Exact equality shows a replication's value does not
        # depend on its chunk: B = 2 chunks + 1 ends in a one-row chunk, for
        # the direct (T <= _DIRECT_ACV_LIMIT) and FFT (above) autocorrelations.
        cases = [(90, 37, "mammen", 5)]  # within one chunk
        for law in ("normal", "rademacher", "mammen"):
            cases.append((90, 1, law, 6))
            for T in (90, _DIRECT_ACV_LIMIT, _DIRECT_ACV_LIMIT + 1):
                cases.append((T, 2 * (_CHUNK_BYTES // (8 * (T - 1))) + 1, law, 7))
        for T, n_boot, law, seed in cases:
            values = random_series_values(np.random.default_rng(16), T)
            boot = BootstrapConfig(n_boot=n_boot, multiplier=law, seed=seed)
            assert avr_test(make_series(values), boot) == _rebuilt(values, boot), (
                T, n_boot, law)

    @given(
        values=generated_values(4, 120),
        n_boot=st.integers(1, 40),
        law=st.sampled_from(MULTIPLIERS),
        seed=st.integers(0, 2**130),
    )
    # Rademacher signs on equal |values| make constant replications; seed 56's
    # only one is constant, so its 0 is the whole band
    @example(values=np.array([0.01, -0.01] * 3), n_boot=40, law="rademacher", seed=0)
    @example(values=np.array([0.01, -0.01] * 3), n_boot=1, law="rademacher", seed=56)
    @settings(derandomize=True, deadline=None)
    def test_matches_manual_bootstrap_reconstruction_on_generated_series(
        self, values, n_boot, law, seed
    ):
        # tied, offset and tiny-scale data too; a constant series is refused
        # by both sides
        boot = BootstrapConfig(n_boot=n_boot, multiplier=law, seed=seed)
        try:
            want = _rebuilt(values, boot)
        except DegenerateSeriesError:
            with pytest.raises(DegenerateSeriesError):
                avr_test(make_series(values), boot)
            return
        assert avr_test(make_series(values), boot) == want

    def test_one_draw_per_replication(self, monkeypatch):
        # the benchmark's tracer counts these calls through avr's globals:
        # one draw per replication, one autocorrelation pass for the observed
        # series and one per replication
        streams, draws, acfs = [], [], []

        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(avr, "_substreams", counted(streams, _substreams))
        monkeypatch.setattr(avr, "draw_multipliers", counted(draws, draw_multipliers))
        monkeypatch.setattr(avr, "autocorrelations", counted(acfs, autocorrelations))
        # T = 300 runs 27 replications per chunk: two chunks share one stream
        values = random_series_values(np.random.default_rng(17), 300)
        avr_test(make_series(values), BootstrapConfig(n_boot=39, seed=11))
        assert streams == [(11, AVR_DOMAIN, 39)]
        assert len(draws) == 39
        assert len(acfs) == 40

    @pytest.mark.parametrize("law", ["normal", "rademacher", "mammen"])
    def test_constant_replication_counts_as_uncorrelated(self, law, monkeypatch):
        # Rademacher signs on equal |values| make some replications constant:
        # each counts as statistic 0 (bandwidth 1, VR 1), still after one
        # autocorrelation call, instead of failing the whole test
        acfs = []

        def counted(*args):
            acfs.append(args)
            return autocorrelations(*args)

        monkeypatch.setattr(avr, "autocorrelations", counted)
        values = np.array([0.01, -0.01] * 3)
        boot = BootstrapConfig(n_boot=199, multiplier=law, seed=0)
        out = avr_test(make_series(values), boot)
        assert len(acfs) == 200
        stat, _, _ = avr_statistic(make_series(values))
        boot_stats, constant = np.zeros(boot.n_boot), 0
        for j in range(boot.n_boot):
            eta = draw_multipliers(substream(0, AVR_DOMAIN, j), law, len(values))
            if np.ptp(eta * values) == 0.0:
                constant += 1
            else:
                boot_stats[j] = avr_statistic(make_series(eta * values))[0]
        assert (constant > 0) == (law == "rademacher")
        exceed = int(np.sum(np.abs(boot_stats) >= abs(stat)))
        assert out.p_value == (1.0 + exceed) / (boot.n_boot + 1.0)
        assert 0.0 < out.p_value < 1.0

    def test_long_series_bounded_memory(self):
        # one chunk of 32 replications would hold 32 x 10 000 autocorrelations
        # and their kernel temporaries, over 20 MB; the byte budget keeps one
        s = make_series(random_series_values(np.random.default_rng(39), 10_000))
        tracemalloc.start()
        try:
            out = avr_test(s, BootstrapConfig(n_boot=39, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert 0.0 < out.p_value <= 1.0
        assert out.ci_low <= out.ci_high

    def test_p_value_grid_and_range(self):
        s = make_series(random_series_values(np.random.default_rng(17), 60))
        out = avr_test(s, BootstrapConfig(n_boot=19, seed=3))
        assert 0.0 < out.p_value <= 1.0
        assert (out.p_value * 20.0) == pytest.approx(round(out.p_value * 20.0))
        assert out.ci_low <= out.ci_high
        assert out.n_boot == 19

    def test_iid_size_within_band(self):
        # null rejection rate of the 5% test, iid normal, T=500, B=300
        M = 500
        rejections = 0
        for i in range(M):
            s = generate(DgpSpec(kind="iid_normal", length=500, seed=60_000 + i))
            out = avr_test(s, BootstrapConfig(n_boot=300, seed=i))
            rejections += out.p_value < 0.05
        assert 0.025 <= rejections / M <= 0.08

    def test_null_sampling_std_of_plugin_statistic(self):
        # Under an iid null the plug-in bandwidth stays O(1) (its input
        # alpha(2)*T is scale-free in T), so the statistic's sampling std
        # sits well BELOW 1 - approximately sqrt(1 - 1/k). This pins the
        # actual behavior; it is exactly why p-values come from the
        # bootstrap and not from N(0,1) critical values.
        stats = np.empty(200)
        for i in range(200):
            s = generate(DgpSpec(kind="iid_normal", length=2000, seed=90_000 + i))
            stats[i], _, _ = avr_statistic(s)
        assert 0.55 <= stats.std(ddof=1) <= 0.85
