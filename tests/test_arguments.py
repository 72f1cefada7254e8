"""One table over every count and named-choice argument of the public API.

A count must be an integer at or above its bound (and at most its upper
bound, for lags): a float, a bool, a string or an out-of-range integer is a
ValueError that names the argument, and a numpy integer is accepted and
stored as a plain int. A named choice outside its options is a ValueError
with one shared wording. A DgpSpec param and variance_ratio's holding
period k must be finite reals (an int, a float or a numpy real, never a bool
or a string); a param is stored as a float, and k must also be positive.
"""

from fractions import Fraction

import numpy as np
import pytest

from mdhtest import (
    FORMATS,
    FREQUENCIES,
    KINDS,
    MULTIPLIERS,
    TESTS,
    BootstrapConfig,
    DgpSpec,
    ReturnSeries,
    WindowSpec,
    autocorr,
    draw_multipliers,
    gs_statistic,
    gs_test,
    load_panel,
    run_rolling,
    truncation_bound,
    variance_ratio,
)

_T = 40
SHORT = ReturnSeries(
    values=np.random.default_rng(3).standard_normal(_T),
    dates=np.datetime64("2000-01-03", "D") + np.arange(_T),
    frequency="daily",
)
# two calendar years, so WindowSpec(1) gives two windows of about 250
TWO_YEARS = ReturnSeries(
    values=np.random.default_rng(4).standard_normal(500) * 0.01,
    dates=np.datetime64("2000-01-03", "D") + np.arange(500),
    frequency="daily",
)
_BOOT = BootstrapConfig(n_boot=9)

# (argument name, call(value), lower bound, upper bound or None, a valid value,
#  attribute that stores the value or None)
COUNTS = {
    "BootstrapConfig.n_boot": (
        "n_boot", lambda v: BootstrapConfig(n_boot=v), 1, 2**32, 9, "n_boot"),
    "BootstrapConfig.seed": (
        "seed", lambda v: BootstrapConfig(seed=v), 0, None, 7, "seed"),
    "WindowSpec.window_years": (
        "window_years", lambda v: WindowSpec(window_years=v), 1, 10**6, 2,
        "window_years"),
    "WindowSpec.step_years": (
        "step_years", lambda v: WindowSpec(2, step_years=v), 1, 10**6, 1,
        "step_years"),
    "WindowSpec.min_observations": (
        "min_observations", lambda v: WindowSpec(2, min_observations=v), 10, None,
        30, "min_observations"),
    "run_rolling.workers": (
        "workers",
        lambda v: run_rolling(TWO_YEARS, WindowSpec(1), "avr", _BOOT, workers=v),
        1, None, 2, None),
    "DgpSpec.length": (
        "length", lambda v: DgpSpec("iid_normal", length=v, seed=0), 1, None, 50,
        "length"),
    "DgpSpec.seed": (
        "seed", lambda v: DgpSpec("iid_normal", length=5, seed=v), 0, None, 3,
        "seed"),
    "DgpSpec.burn_in": (
        "burn_in", lambda v: DgpSpec("iid_normal", 5, 0, burn_in=v), 0, None, 5,
        "burn_in"),
    "DgpSpec.burn_in(ar1)": (
        "burn_in", lambda v: DgpSpec("ar1", 5, 0, {"phi": 0.3}, burn_in=v), 100,
        None, 150, "burn_in"),
    "autocorr.lag": (
        "lag", lambda v: autocorr(SHORT, v), 1, _T - 1, 3, None),
    "gs_statistic.max_lag": (
        "max_lag", lambda v: gs_statistic(SHORT, v), 1, _T - 1, 3, None),
    "gs_test.max_lag": (
        "max_lag", lambda v: gs_test(SHORT, _BOOT, max_lag=v), 1, _T - 1, 3, None),
    "truncation_bound.max_lag": (
        "max_lag", lambda v: truncation_bound(SHORT, v), 1, _T - 1, 3, None),
}


def _bad_counts(low, high, valid):
    bad = [1.5, float(valid), valid + 0.5, True, "3", low - 1]
    if high is not None:
        bad.append(high + 1)
    return {repr(b): b for b in bad}  # one row per distinct value


@pytest.mark.parametrize(
    "entry, bad",
    [
        pytest.param(entry, bad, id=f"{entry}={text}")
        for entry, (_, _, low, high, valid, _) in COUNTS.items()
        for text, bad in _bad_counts(low, high, valid).items()
    ],
)
def test_count_refuses(entry, bad):
    name, call, low, high, _, _ = COUNTS[entry]
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be an integer {bound}, got {bad!r}"


@pytest.mark.parametrize("entry", list(COUNTS))
def test_count_accepts_numpy_integer(entry):
    _, call, _, _, valid, attr = COUNTS[entry]
    result = call(np.int64(valid))
    if attr is not None:
        stored = getattr(result, attr)
        assert type(stored) is int and stored == valid


@pytest.mark.parametrize(
    "entry", ["gs_statistic.max_lag", "gs_test.max_lag", "truncation_bound.max_lag"]
)
def test_gs_max_lag_refuses_none(entry):
    # "every lag" is spelled "full" only
    with pytest.raises(ValueError) as exc:
        COUNTS[entry][1](None)
    assert str(exc.value) == f"max_lag must be an integer in [1, {_T - 1}], got None"


CHOICES = {
    "ReturnSeries.frequency": (
        "frequency", FREQUENCIES,
        lambda v: ReturnSeries([0.1], ["2000-01-03"], v)),
    "DgpSpec.frequency": (
        "frequency", FREQUENCIES, lambda v: DgpSpec("iid_normal", 5, 0, frequency=v)),
    "WindowSpec.for_frequency": (
        "frequency", FREQUENCIES, WindowSpec.for_frequency),
    "BootstrapConfig.multiplier": (
        "multiplier", MULTIPLIERS, lambda v: BootstrapConfig(multiplier=v)),
    "draw_multipliers": (
        "multiplier", MULTIPLIERS,
        lambda v: draw_multipliers(np.random.default_rng(0), v, 3)),
    "DgpSpec.kind": ("kind", KINDS, lambda v: DgpSpec(v, 5, 0)),
    # the format is decided before the file is opened
    "load_panel.format": (
        "format", FORMATS, lambda v: load_panel("no-such-file.csv", v)),
    "run_rolling.test": (
        "test", TESTS, lambda v: run_rolling(TWO_YEARS, WindowSpec(1), v, _BOOT)),
}


@pytest.mark.parametrize("entry", list(CHOICES))
@pytest.mark.parametrize("bad", ["monthly", "bogus"])
def test_choice_refuses(entry, bad):
    name, options, call = CHOICES[entry]
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be one of {options}, got {bad!r}"


def _stored(kind, name, **others):
    """call(value): the float a DgpSpec of ``kind`` stores for param ``name``."""
    return lambda v: DgpSpec(kind, 5, 0, {**others, name: v}).params[name]


# (the name its error gives, call(value))
PARAMS = {
    "ar1.phi": ("param phi", _stored("ar1", "phi")),
    "garch11.alpha": ("param alpha", _stored("garch11", "alpha", omega=0.1, beta=0.5)),
    "bilinear.b": ("param b", _stored("bilinear", "b")),
}
REALS = {
    **PARAMS,
    "variance_ratio.k": ("holding period k", lambda v: variance_ratio(SHORT, v)),
}
BAD_PARAMS = ["abc", "0.5", None, True, np.True_, float("nan"), float("inf"),
              10**400, [0.5], 0.5j]


@pytest.mark.parametrize("entry", list(REALS))
@pytest.mark.parametrize("bad", BAD_PARAMS, ids=repr)
def test_param_refuses(entry, bad):
    name, call = REALS[entry]
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be a finite real, got {bad!r}"


@pytest.mark.parametrize(
    "good", [2, 2.0, np.float32(2.0), np.int64(2), Fraction(2)], ids=repr
)
def test_holding_period_accepts_real(good):
    assert variance_ratio(SHORT, good) == variance_ratio(SHORT, 2.0)


@pytest.mark.parametrize("entry", list(PARAMS))
@pytest.mark.parametrize(
    "good", [0, 0.25, np.float32(0.25), np.int64(0), Fraction(1, 4)], ids=repr
)
def test_param_accepts_real_and_stores_float(entry, good):
    _, call = PARAMS[entry]
    stored = call(good)
    assert type(stored) is float and stored == float(good)
