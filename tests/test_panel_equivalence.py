"""The wide loader and equal-weighting against the row-by-row reference.

``reference.ref_load_wide`` stacks one float array per row and takes the
present cells through ``np.nonzero``; ``reference.ref_equal_weight`` groups
dates through ``np.unique(..., return_inverse=True)``. The package must give
the same arrays, in the same order and dtypes, and the same series bit for
bit. Needs only numpy and pytest, so the oldest supported numpy can run it:
the loader views an ``array("d")`` through ``np.frombuffer`` and indexes a
broadcast object array with a boolean mask.
"""

import numpy as np
import pytest

from mdhtest import PanelError, equal_weight_series, load_panel
from reference import ref_equal_weight, ref_load_wide


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(path):
    panel = load_panel(path, "wide")
    dates, instruments, returns = ref_load_wide(path)
    assert panel.dates.dtype == np.dtype("datetime64[D]")
    assert same_bits(panel.dates, dates)
    assert panel.instruments.dtype == object and instruments.dtype == object
    assert panel.instruments.shape == instruments.shape
    assert panel.instruments.tolist() == instruments.tolist()
    assert all(type(x) is str for x in panel.instruments)
    assert same_bits(panel.returns, returns)  # -0.0 keeps its sign
    if len(panel) == 0:
        with pytest.raises(PanelError, match="empty panel"):
            equal_weight_series(panel, "daily")
        return 0
    series = equal_weight_series(panel, "daily")
    want_dates, want_values = ref_equal_weight(dates, returns)
    assert same_bits(series.dates, want_dates)
    assert same_bits(series.values, want_values)
    return len(panel)


def random_wide_csv(rng, path, n_dates, n_ids, scale):
    """A wide panel with blank rows and columns, shuffled dates and -0.0 cells."""
    days = np.datetime64("1995-01-02") + np.sort(
        rng.choice(4000, size=n_dates, replace=False)
    )
    if rng.random() < 0.5:
        days = rng.permutation(days)  # rows out of calendar order
    values = rng.standard_normal((n_dates, n_ids)) * scale
    values[rng.random(values.shape) < 0.05] = -0.0
    present = rng.random(values.shape) > rng.uniform(0.0, 0.6)
    present[rng.random(n_dates) < 0.1] = False  # all-blank rows
    present[:, rng.random(n_ids) < 0.1] = False  # all-blank columns
    blanks = ["", " ", "  "]
    ids = [f"X{i}" for i in range(n_ids)]
    lines = ["date," + ",".join(ids)]
    for day, row, mask in zip(days, values, present):
        cells = [
            (repr(float(v)) if rng.random() < 0.5 else f"{v:.6f}")
            if m else blanks[int(rng.integers(3))]
            for v, m in zip(row, mask)
        ]
        lines.append(",".join([str(day)] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("scale", [0.02, 2.0], ids=["decimal", "percent"])
@pytest.mark.parametrize("seed", range(4))
def test_random_panels_match_reference(tmp_path, seed, scale):
    rng = np.random.default_rng([seed, int(scale * 100)])
    cells = 0
    for k in range(25):
        n_ids = 1 if k < 5 else int(rng.integers(2, 30))  # one column first
        n_dates = int(rng.integers(1, 80))
        path = random_wide_csv(rng, tmp_path / f"p{k}.csv", n_dates, n_ids, scale)
        cells += assert_matches_reference(path)
    assert cells > 1000


@pytest.mark.parametrize(
    "text",
    [
        "date,A\n",  # no rows
        "date,A,B\n2000-01-03,,\n2000-01-04, ,\n",  # every cell blank
        "date,A\n2000-01-05,-0.0\n2000-01-03,0.0\n2000-01-04,\n",
        "date,A,B,C\n2000-01-04,,-0.0,1e-300\n2000-01-03,5,,\n",
    ],
)
def test_edge_panels_match_reference(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_text(text, encoding="utf-8")
    assert_matches_reference(str(path))
