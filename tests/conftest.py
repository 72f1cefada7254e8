import numpy as np
import pytest
from hypothesis import strategies as st

from mdhtest import ReturnSeries


def make_series(values, frequency="daily", start="2000-01-03"):
    values = np.asarray(values, dtype=np.float64)
    step = 1 if frequency == "daily" else 7
    dates = np.datetime64(start, "D") + np.arange(len(values)) * step
    return ReturnSeries(values=values, dates=dates, frequency=frequency)


@st.composite
def generated_values(draw, min_size, max_size):
    """min_size to max_size values at scale 10^u (u in [-4, 1]), offset by 0,
    +-100 or 1e4, and either continuous or tied on 2 to 5 points. They may
    all be equal."""
    T = draw(st.integers(min_size, max_size))
    ties = draw(st.sampled_from([None, 2, 3, 4, 5]))
    u = draw(st.floats(-4.0, 1.0))
    offset = draw(st.sampled_from([0.0, 100.0, -100.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(-3.0, 3.0, T if ties is None else ties)
    if ties is not None:
        raw = rng.choice(raw, T)
    return offset + 10.0**u * raw


@pytest.fixture
def mk():
    return make_series
