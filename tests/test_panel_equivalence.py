"""Both loaders and equal-weighting against the row-by-row references.

``reference.ref_load_wide`` stacks one float array per row and takes the
present cells through ``np.nonzero``; ``reference.ref_load_long`` checks one
record at a time against a ``seen`` dict of pairs;
``reference.ref_equal_weight`` groups dates through ``np.unique(...,
return_inverse=True)``. The package must give the same arrays, in the same
order and dtypes, and the same series bit for bit, or, on a faulty long
panel, the same error text, file and line. Needs only numpy and pytest, so
the oldest supported numpy can run it: the loader views an ``array("d")``
through ``np.frombuffer`` and indexes a broadcast object array with a
boolean mask.
"""

import csv

import numpy as np
import pytest

from mdhtest import PanelError, equal_weight_series, load_panel
from reference import ref_equal_weight, ref_load_long, ref_load_wide


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(path, format="wide"):
    panel = load_panel(path, format)
    reference = ref_load_wide if format == "wide" else ref_load_long
    dates, instruments, returns = reference(path)
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


def random_cells(rng, n_dates, n_ids, scale):
    """(dates, ids, cell texts) of a panel with blank rows and columns,
    shuffled dates and -0.0 cells; a blank cell's text is empty or spaces."""
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
    cells = [
        [
            (repr(float(v)) if rng.random() < 0.5 else f"{v:.6f}")
            if m else blanks[int(rng.integers(3))]
            for v, m in zip(row, mask)
        ]
        for row, mask in zip(values, present)
    ]
    return [str(day) for day in days], ids, cells


def random_wide_csv(rng, path, n_dates, n_ids, scale):
    days, ids, cells = random_cells(rng, n_dates, n_ids, scale)
    lines = ["date," + ",".join(ids)]
    lines += [",".join([day] + row) for day, row in zip(days, cells)]
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


BAD_FIELDS = {
    "date": ["2000-13-01", "2001-02-29", "20000103", "2000/01/03", "", "0000-01-01"],
    "return": ["abc", "", " ", "1.2.3", "0x10", "1,5"],
    "non-finite": ["nan", "-inf", "Infinity", "1e999", " NaN "],
    "id": ["", "   "],
}
FAULTS = ("repeat", "date", "return", "non-finite", "fields", "id", "repeat above")


def pad(rng, text):
    return " " * int(rng.integers(3)) + text + " " * int(rng.integers(3))


def long_records(rng, n_dates, n_ids, scale):
    """The present cells of ``random_cells`` as shuffled long records.

    Dates and ids are padded with spaces, and about one record in twenty
    has a field quoted across two lines.
    """
    days, ids, cells = random_cells(rng, n_dates, n_ids, scale)
    records = [
        [pad(rng, day), pad(rng, ids[k]), text]
        for day, row in zip(days, cells)
        for k, text in enumerate(row)
        if text.strip()
    ]
    for record in records:
        if rng.random() < 0.05:
            k = int(rng.integers(3))
            record[k] = "\n" + record[k] if k == 2 else record[k] + "\n"
    return [records[i] for i in rng.permutation(len(records))]


def malform(rng, records, kind):
    """Plant a fault of ``kind`` (not a repeat) in a random record."""
    row = int(rng.integers(len(records)))
    record = records[row]
    if kind == "fields":  # one or two fields, or four
        cut = int(rng.integers(1, 5))
        records[row] = record[:cut] if cut < 3 else record + ["0.1"]
    else:
        bad = BAD_FIELDS[kind]
        record[{"date": 0, "id": 1}.get(kind, 2)] = bad[int(rng.integers(len(bad)))]


def plant(rng, records, fault):
    """Plant ``fault`` in ``records``; a repeat copies a record's pair to a new row.

    With "repeat above", a malformed field lands below the repeat's second row.
    """
    if fault not in ("repeat", "repeat above"):
        malform(rng, records, fault)
        return
    source = int(rng.integers(len(records)))
    date, instrument = (text.strip() for text in records[source][:2])
    at = int(rng.integers(len(records) + 1))
    records.insert(at, [pad(rng, date), pad(rng, instrument), "0.5"])
    if fault == "repeat above":
        below = max(at, source + (at <= source)) + 1
        records.append(["2000-01-03", "Z", "0.0"])  # a clean row to malform
        tail = records[below:]
        malform(rng, tail, FAULTS[1 + int(rng.integers(5))])
        records[below:] = tail


def write_long_csv(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "instrument", "return"])
        writer.writerows(records)
    return str(path)


def assert_same_error(path):
    with pytest.raises(ValueError) as want:
        ref_load_long(path)
    with pytest.raises(PanelError) as got:
        load_panel(path, "long")
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.mark.parametrize("scale", [0.02, 2.0], ids=["decimal", "percent"])
@pytest.mark.parametrize("seed", range(4))
def test_random_long_panels_match_reference(tmp_path, seed, scale):
    # every panel once clean and once with a fault planted at a random row
    rng = np.random.default_rng([seed, int(scale * 100), 1])
    cells = 0
    for k in range(21):
        n_ids = 1 if k < 4 else int(rng.integers(2, 30))
        records = long_records(rng, int(rng.integers(1, 80)), n_ids, scale)
        path = write_long_csv(tmp_path / f"p{k}.csv", records)
        cells += assert_matches_reference(path, "long")
        if not records:
            continue
        fault = FAULTS[k % len(FAULTS)]
        plant(rng, records, fault)
        message = assert_same_error(write_long_csv(tmp_path / f"f{k}.csv", records))
        assert ("duplicate" in message) == (fault == "repeat")
    assert cells > 1000
