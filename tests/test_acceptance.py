"""End-to-end acceptance gate.

One test per shipping criterion, in order; each prints a single
``criterion N: PASS/FAIL`` line with the measured quantity so a full run
doubles as a validation report. Tolerances are stated inline.
"""

import math

import numpy as np
import pytest

from mdhtest import (
    BootstrapConfig,
    DgpSpec,
    WindowSpec,
    avr_statistic,
    avr_test,
    generate,
    gs_statistic,
    gs_test,
    jarque_bera_from_moments,
    qs_kernel,
    run_rolling,
    variance_ratio,
)
from mdhtest.cli import main
from mdhtest.series import ReturnSeries
from conftest import make_series
from reference import ref_avr_statistic, ref_gs_statistic, random_series_values


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_kernel_exact_values(capsys):
    at_zero = qs_kernel(0.0)
    at_node = qs_kernel(5.0 / 6.0)
    err = abs(at_node - 3.0 / math.pi**2)
    ok = at_zero == 1.0 and not math.isnan(at_zero) and err <= 1e-12
    _report(
        capsys, 1, ok,
        f"m(0) = {at_zero}, |m(5/6) - 3/pi^2| = {err:.3g} (tol 1e-12)",
    )


def test_criterion_2_jarque_bera_known_answers(capsys):
    # frozen normality statistics recomputed from rounded summary moments;
    # tolerances absorb the rounding of the inputs
    jb_daily = jarque_bera_from_moments(1254, 11.21, 214.3)
    jb_weekly = jarque_bera_from_moments(1250, 3.24, 42.4)
    rel_daily = abs(jb_daily - 2_359_173.0) / 2_359_173.0
    rel_weekly = abs(jb_weekly - 83_133.0) / 83_133.0
    ok = rel_daily <= 0.005 and rel_weekly <= 0.01
    _report(
        capsys, 2, ok,
        f"JB(1254, 11.21, 214.3) = {jb_daily:.1f} vs 2359173 (rel {rel_daily:.2e}, "
        f"tol 5e-3); JB(1250, 3.24, 42.4) = {jb_weekly:.1f} vs 83133 "
        f"(rel {rel_weekly:.2e}, tol 1e-2)",
    )


def test_criterion_3_avr_matches_brute_force(capsys):
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(8, 65))
        values = random_series_values(rng, T)
        got, _, _ = avr_statistic(make_series(values))
        want, _, _ = ref_avr_statistic(list(values))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    ok = worst <= 1e-10
    _report(
        capsys, 3, ok,
        f"100 series, T in [8, 64]: worst relative error {worst:.3g} (tol 1e-10)",
    )


def test_criterion_4_gs_matches_brute_force(capsys):
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        T = int(rng.integers(3, 51))
        values = random_series_values(rng, T)
        got = gs_statistic(make_series(values))
        want = ref_gs_statistic(list(values))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    ok = worst <= 1e-10
    _report(
        capsys, 4, ok,
        f"50 series, T in [3, 50]: worst relative error {worst:.3g} (tol 1e-10)",
    )


def test_criterion_5_size_under_garch_null(capsys):
    # conditionally heteroskedastic martingale difference: both tests must
    # hold their nominal 5% size, the wild bootstrap's entire purpose
    M, B, T = 300, 300, 500
    params = {"omega": 0.05, "alpha": 0.1, "beta": 0.85}
    avr_rej = gs_rej = 0
    for i in range(M):
        series = generate(DgpSpec(kind="garch11", length=T, seed=20_000 + i, params=params))
        boot = BootstrapConfig(n_boot=B, seed=i)
        avr_rej += avr_test(series, boot).p_value < 0.05
        gs_rej += gs_test(series, boot).p_value < 0.05
    avr_rate, gs_rate = avr_rej / M, gs_rej / M
    ok = 0.02 <= avr_rate <= 0.10 and 0.02 <= gs_rate <= 0.10
    _report(
        capsys, 5, ok,
        f"GARCH(1,1) null, T = {T}, B = {B}, M = {M}: rejection rates "
        f"AVR {avr_rate:.4f}, GS {gs_rate:.4f} (band [0.02, 0.10])",
    )


def test_criterion_6_power_against_ar1_and_bilinear(capsys):
    M, B = 200, 99
    avr_rej = sum(
        avr_test(
            generate(DgpSpec(kind="ar1", length=500, seed=50_000 + i, params={"phi": 0.3})),
            BootstrapConfig(n_boot=B, seed=i),
        ).p_value
        < 0.05
        for i in range(M)
    )
    gs_rej = sum(
        gs_test(
            generate(DgpSpec(kind="bilinear", length=300, seed=40_000 + i, params={"b": 0.4})),
            BootstrapConfig(n_boot=B, seed=i),
        ).p_value
        < 0.05
        for i in range(M)
    )
    avr_rate, gs_rate = avr_rej / M, gs_rej / M
    ok = avr_rate >= 0.60 and gs_rate >= 0.30
    _report(
        capsys, 6, ok,
        f"AVR power on AR(1) phi = 0.3, T = 500: {avr_rate:.3f} (>= 0.60); "
        f"GS power on bilinear b = 0.4, T = 300: {gs_rate:.3f} (>= 0.30)",
    )


def test_criterion_7_rolling_detects_regime_change(capsys):
    # 20 years of daily data: unpredictable first decade, AR(1) second
    half = 3650
    iid = generate(DgpSpec(kind="iid_normal", length=half, seed=71)).values
    ar = generate(DgpSpec(kind="ar1", length=half, seed=72, params={"phi": 0.5})).values
    dates = np.datetime64("2000-01-03", "D") + np.arange(2 * half)
    series = ReturnSeries(
        values=np.concatenate([iid, ar]), dates=dates, frequency="daily"
    )
    result = run_rolling(
        series,
        WindowSpec.for_frequency("daily"),
        "avr",
        BootstrapConfig(n_boot=199, seed=7),
    )
    flags = [w.significant_5pct for w in result.windows]
    assert all(f is not None for f in flags)
    mid = len(flags) // 2
    first = sum(flags[:mid]) / mid
    second = sum(flags[mid:]) / (len(flags) - mid)
    ok = second - first >= 0.3
    _report(
        capsys, 7, ok,
        f"{len(flags)} windows: significant share {first:.3f} first half vs "
        f"{second:.3f} second half (gap {second - first:.3f}, need >= 0.3)",
    )


def test_criterion_8_every_entry_point_deterministic(capsys, tmp_path):
    values = 0.01 * np.random.default_rng(81).standard_normal(400)
    series = make_series(values)
    boot = BootstrapConfig(n_boot=50, multiplier="rademacher", seed=13)
    checks = []

    a1 = avr_test(series, boot)
    checks.append(("avr rerun", a1 == avr_test(series, boot)))

    g1 = gs_test(series, boot)
    checks.append(("gs rerun", g1 == gs_test(series, boot)))

    long_series = generate(DgpSpec(kind="iid_normal", length=1500, seed=82))
    spec = WindowSpec(window_years=1)
    r1 = run_rolling(long_series, spec, "gs", boot)
    checks.append(("rolling rerun", r1 == run_rolling(long_series, spec, "gs", boot)))
    checks.append(
        ("rolling workers", r1 == run_rolling(long_series, spec, "gs", boot, workers=3))
    )

    sim1, sim2 = generate(DgpSpec(kind="iid_normal", length=30, seed=83)), generate(
        DgpSpec(kind="iid_normal", length=30, seed=83)
    )
    checks.append(("generate rerun", np.array_equal(sim1.values, sim2.values)))

    panel = str(tmp_path / "panel.csv")
    assert main(["simulate", "--kind", "iid_normal", "--length", "500",
                 "--seed", "84", "--out", panel]) == 0
    capsys.readouterr()
    argv = ["avr", panel, "--format", "wide", "--B", "40", "--seed", "5"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    checks.append(("cli avr bytes", out1 == out2))
    argv = ["roll", panel, "--format", "wide", "--test", "avr",
            "--window-years", "1", "--B", "20", "--seed", "6"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv + ["--workers", "3"])
    out2 = capsys.readouterr().out
    checks.append(("cli roll bytes", out1 == out2))

    failed = [name for name, ok in checks if not ok]
    _report(
        capsys, 8,
        not failed,
        f"{len(checks)} rerun/worker-count comparisons byte-identical"
        + (f"; FAILED: {failed}" if failed else ""),
    )


def test_criterion_9_fixed_bandwidth_statistic_near_standard_normal(capsys):
    # The normal limit holds as the bandwidth grows with T, so it is
    # checked on the standardized ratio at k = T^(2/5). The automatic
    # bandwidth stays O(1) on iid data by construction (its plug-in input
    # is scale-free in T), which keeps that statistic's spread below 1 --
    # about sqrt(1 - 1/k); its mean is still checked here, and its spread
    # is pinned by a regression band in the unit tests.
    M, T = 500, 5000
    k = T**0.4
    fixed = np.empty(M)
    auto_mean = 0.0
    for i in range(M):
        series = generate(DgpSpec(kind="iid_normal", length=T, seed=i))
        vr = variance_ratio(series, k)
        fixed[i] = math.sqrt(T / k) * (vr - 1.0) / math.sqrt(2.0)
        stat, _, _ = avr_statistic(series)
        auto_mean += stat
    auto_mean /= M
    mean, std = float(fixed.mean()), float(fixed.std(ddof=1))
    ok = abs(mean) <= 0.1 and 0.8 <= std <= 1.2 and abs(auto_mean) <= 0.1
    _report(
        capsys, 9, ok,
        f"{M} iid statistics at T = {T}, k = T^0.4 = {k:.2f}: mean {mean:.4f} "
        f"(band +/-0.1), std {std:.4f} (band [0.8, 1.2]); automatic-bandwidth "
        f"mean {auto_mean:.4f} (band +/-0.1)",
    )
