import tracemalloc
from datetime import date

import numpy as np
import pytest

from mdhtest import PanelError, PanelInput, equal_weight_series, load_panel
from mdhtest import panel as panel_module


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


LONG = """date,instrument,return
2000-01-03,A,0.01
2000-01-03,B,0.03
2000-01-04,A,0.01
2000-01-05,B,-0.02
"""

WIDE = """date,A,B
2000-01-03,0.01,0.03
2000-01-04,0.01,
2000-01-05,,-0.02
"""


class TestLoadLong:
    def test_happy_path(self, tmp_path):
        panel = load_panel(write(tmp_path, LONG))
        assert len(panel) == 4
        assert list(panel.instruments) == ["A", "B", "A", "B"]
        assert panel.dates[0] == np.datetime64("2000-01-03")
        assert panel.returns[3] == -0.02

    def test_header_required(self, tmp_path):
        path = write(tmp_path, "date,ticker,return\n2000-01-03,A,0.01\n")
        with pytest.raises(PanelError, match="long format needs header"):
            load_panel(path)

    def test_field_count(self, tmp_path):
        path = write(tmp_path, "date,instrument,return\n2000-01-03,A\n")
        with pytest.raises(PanelError, match="line 2: expected 3 fields, got 2"):
            load_panel(path)

    def test_invalid_date(self, tmp_path):
        path = write(tmp_path, "date,instrument,return\n03/01/2000,A,0.01\n")
        with pytest.raises(PanelError, match="line 2: invalid ISO-8601 date"):
            load_panel(path)

    @pytest.mark.parametrize("text", ["20000103", "2000-W01-1", "2000-02-30"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, text):
        path = write(
            tmp_path, f"date,instrument,return\n2000-01-03,A,0.01\n{text},A,0.02\n"
        )
        with pytest.raises(PanelError) as err:
            load_panel(path)
        assert str(err.value) == f"{path}: line 3: invalid ISO-8601 date '{text}'"

    def test_date_padding_stripped(self, tmp_path):
        path = write(tmp_path, "date,instrument,return\n 2000-01-03 ,A,0.01\n")
        panel = load_panel(path)
        assert panel.dates.tolist() == [date(2000, 1, 3)]

    def test_invalid_return(self, tmp_path):
        path = write(tmp_path, "date,instrument,return\n2000-01-03,A,one\n")
        with pytest.raises(PanelError, match="line 2: invalid return 'one'"):
            load_panel(path)

    def test_non_finite_return(self, tmp_path):
        path = write(tmp_path, "date,instrument,return\n2000-01-03,A,inf\n")
        with pytest.raises(PanelError, match="line 2: non-finite return"):
            load_panel(path)

    def test_empty_instrument(self, tmp_path):
        path = write(tmp_path, "date,instrument,return\n2000-01-03, ,0.01\n")
        with pytest.raises(PanelError, match="line 2: empty instrument id"):
            load_panel(path)

    def test_duplicate_names_both_lines(self, tmp_path):
        path = write(
            tmp_path,
            "date,instrument,return\n"
            "2000-01-03,A,0.01\n"
            "2000-01-04,A,0.02\n"
            "2000-01-03,A,0.05\n",
        )
        with pytest.raises(PanelError) as err:
            load_panel(path)
        assert "lines 2 and 4" in str(err.value)
        assert "2000-01-03" in str(err.value) and "'A'" in str(err.value)

    def test_duplicate_names_earliest_repeat_not_first_in_date_order(self, tmp_path):
        path = write(
            tmp_path,
            "date,instrument,return\n"
            "2000-01-05,B,0.01\n"
            "2000-01-03,A,0.02\n"
            "2000-01-05,B,0.03\n"
            "2000-01-03,A,0.04\n",
        )
        with pytest.raises(PanelError) as err:
            load_panel(path)
        assert str(err.value) == (
            f"{path}: duplicate (date, instrument) ('2000-01-05', 'B') at lines 2 and 4"
        )

    def test_parse_error_after_multiline_field_names_physical_line(self, tmp_path):
        path = write(
            tmp_path,
            'date,instrument,return\n2000-01-03,"A\nB",0.01\n2000-01-04,A,oops\n',
        )
        with pytest.raises(PanelError) as err:
            load_panel(path)
        assert str(err.value) == f"{path}: line 4: invalid return 'oops'"

    def test_duplicate_after_multiline_field_names_physical_lines(self, tmp_path):
        path = write(
            tmp_path,
            "date,instrument,return\n"
            "2000-01-03,A,0.01\n"
            '2000-01-03,"B\n\nC",0.02\n'
            "2000-01-03,A,0.05\n",
        )
        with pytest.raises(PanelError) as err:
            load_panel(path)
        assert str(err.value) == (
            f"{path}: duplicate (date, instrument) ('2000-01-03', 'A') at lines 2 and 6"
        )

    def test_empty_file(self, tmp_path):
        with pytest.raises(PanelError, match="empty file"):
            load_panel(write(tmp_path, ""))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format must be one of"):
            load_panel(write(tmp_path, LONG), format="tall")


class TestLoadWide:
    def test_happy_path_blank_means_absent(self, tmp_path):
        panel = load_panel(write(tmp_path, WIDE), format="wide")
        assert len(panel) == 4
        pairs = {
            (str(d), i): r
            for d, i, r in zip(panel.dates, panel.instruments, panel.returns)
        }
        assert pairs == {
            ("2000-01-03", "A"): 0.01,
            ("2000-01-03", "B"): 0.03,
            ("2000-01-04", "A"): 0.01,
            ("2000-01-05", "B"): -0.02,
        }

    def test_header_must_start_with_date(self, tmp_path):
        path = write(tmp_path, "day,A\n2000-01-03,0.01\n")
        with pytest.raises(PanelError, match="wide format needs header"):
            load_panel(path, format="wide")

    def test_duplicate_instrument_columns(self, tmp_path):
        path = write(tmp_path, "date,A,A\n2000-01-03,0.01,0.02\n")
        with pytest.raises(PanelError, match="duplicate instrument columns"):
            load_panel(path, format="wide")

    def test_empty_column_name(self, tmp_path):
        path = write(tmp_path, "date,A,\n2000-01-03,0.01,0.02\n")
        with pytest.raises(PanelError, match="empty instrument column"):
            load_panel(path, format="wide")

    def test_duplicate_date_both_lines(self, tmp_path):
        path = write(
            tmp_path, "date,A\n2000-01-03,0.01\n2000-01-04,0.02\n2000-01-03,0.03\n"
        )
        with pytest.raises(PanelError, match="duplicate date 2000-01-03 at lines 2 and 4"):
            load_panel(path, format="wide")

    @pytest.mark.parametrize("text", ["20000103", "2000-W01-1", "2000-02-30"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, text):
        path = write(tmp_path, f"date,A\n2000-01-03,0.01\n{text},0.02\n")
        with pytest.raises(PanelError) as err:
            load_panel(path, format="wide")
        assert str(err.value) == f"{path}: line 3: invalid ISO-8601 date '{text}'"

    def test_date_padding_stripped(self, tmp_path):
        path = write(tmp_path, "date,A\n 2000-01-03 ,0.01\n")
        panel = load_panel(path, format="wide")
        assert panel.dates.tolist() == [date(2000, 1, 3)]

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "date,A,B\n2000-01-03,0.01\n")
        with pytest.raises(PanelError, match="line 2: expected 3 fields, got 2"):
            load_panel(path, format="wide")

    def test_parse_error_after_multiline_field_names_physical_line(self, tmp_path):
        # a quoted blank cell spanning two lines is still a blank cell
        path = write(
            tmp_path, 'date,A,B\n2000-01-03,0.01,"\n"\n2000-01-04,0.02,oops\n'
        )
        with pytest.raises(PanelError) as err:
            load_panel(path, format="wide")
        assert str(err.value) == f"{path}: line 4: invalid return 'oops'"


class TestByteOrderMark:
    """A UTF-8 BOM, as spreadsheet exports write it, is not part of the header."""

    def test_same_series_with_and_without_bom(self, tmp_path):
        for text, layout in ((LONG, "long"), (WIDE, "wide")):
            plain = equal_weight_series(
                load_panel(write(tmp_path, text, "plain.csv"), layout), "daily"
            )
            marked = equal_weight_series(
                load_panel(write(tmp_path, "\ufeff" + text, "bom.csv"), layout), "daily"
            )
            assert np.array_equal(plain.dates, marked.dates)
            assert np.array_equal(plain.values, marked.values)

    def test_parse_error_names_same_line(self, tmp_path):
        for text, layout in (
            ('date,instrument,return\n2000-01-03,"A\nB",0.01\n2000-01-04,A,oops\n', "long"),
            ("date,instrument,return\n2000-01-03,A,0.01\n2000-01-03,A,0.02\n", "long"),
            ('date,A,B\n2000-01-03,0.01,"\n"\n2000-01-04,0.02,oops\n', "wide"),
        ):
            messages = []
            for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
                path = write(tmp_path, prefix + text, name)
                with pytest.raises(PanelError) as err:
                    load_panel(path, layout)
                messages.append(str(err.value).replace(path, "<path>"))
            assert messages[0] == messages[1]
            assert "line" in messages[0]


class TestPanelInput:
    def test_is_value_error(self):
        assert issubclass(PanelError, ValueError)

    def test_length_mismatch(self):
        with pytest.raises(PanelError, match="equal length"):
            PanelInput(
                dates=np.array(["2000-01-03"], dtype="datetime64[D]"),
                instruments=np.array(["A", "B"], dtype=object),
                returns=np.array([0.01]),
            )

    @pytest.mark.parametrize(
        "dates, instruments, returns",
        [
            ([["2000-01-03"]], [["A"]], [[0.1]]),
            (["2000-01-03"], [["A"]], [0.1]),
            ("2000-01-03", "A", 0.1),
        ],
        ids=["all-2d", "instruments-2d", "scalars"],
    )
    def test_not_one_dimensional(self, dates, instruments, returns):
        with pytest.raises(PanelError) as err:
            PanelInput(dates=dates, instruments=instruments, returns=returns)
        assert str(err.value) == (
            "dates, instruments and returns must be one-dimensional"
        )

    def test_unparseable_date(self):
        with pytest.raises(PanelError, match="^dates are not parseable .*2000-13-45"):
            PanelInput(dates=["2000-13-45"], instruments=["A"], returns=[0.1])

    def test_nat_date_rejected(self):
        with pytest.raises(PanelError) as err:
            PanelInput(["NaT", "2000-01-03"], ["A", "A"], [0.1, 0.2])
        assert str(err.value) == "date at position 0 is NaT, not a calendar date"

    def test_non_finite_return_rejected(self):
        with pytest.raises(PanelError) as err:
            PanelInput(["2000-01-03"] * 2, ["A", "B"], [0.1, np.inf])
        assert str(err.value) == "non-finite return at row 1"

    def test_duplicate_pair_rejected(self):
        with pytest.raises(PanelError, match="duplicate"):
            PanelInput(
                dates=np.array(["2000-01-03", "2000-01-03"], dtype="datetime64[D]"),
                instruments=np.array(["A", "A"], dtype=object),
                returns=np.array([0.01, 0.02]),
            )


    def test_empty_panel_constructs(self):
        panel = PanelInput(
            dates=np.array([], dtype="datetime64[D]"),
            instruments=np.array([], dtype=object),
            returns=np.array([]),
        )
        assert len(panel) == 0

    def test_three_occurrences_name_earliest_repeat_and_first_row(self):
        dates = np.array(
            ["2000-01-04", "2000-01-03", "2000-01-04", "2000-01-03", "2000-01-04",
             "2000-01-03"],
            dtype="datetime64[D]",
        )
        instruments = np.array(["B", "A", "C", "A", "C", "A"], dtype=object)
        with pytest.raises(PanelError) as err:
            PanelInput(dates=dates, instruments=instruments, returns=np.zeros(6))
        assert str(err.value) == (
            "duplicate (date, instrument) ('2000-01-03', 'A') "
            "at rows 1 and 3"
        )

    def test_extreme_dates_do_not_collide(self):
        # Keyed on raw day numbers with two instrument codes, 2^62 and -2^62
        # days both wrap to -2^63 in int64: (2^62, A) would meet (-2^62, A).
        days = np.array([2**62, -2**62, 0, 2**62, 0, 2**62], dtype=np.int64)
        dates = days.view("datetime64[D]")
        instruments = np.array(["A", "A", "B", "B", "A", "A"], dtype=object)
        PanelInput(dates=dates[:5], instruments=instruments[:5], returns=np.zeros(5))
        with pytest.raises(PanelError, match="at rows 0 and 5"):
            PanelInput(dates=dates, instruments=instruments, returns=np.zeros(6))

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_matches_row_by_row_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        dates = np.datetime64("2000-01-03") + rng.integers(0, 6, n)
        instruments = rng.choice(np.array(["A", "B", "C", "D"], dtype=object), n)
        seen, expected = {}, None
        for i in range(n):
            key = (dates[i], instruments[i])
            if key in seen:
                expected = f"at rows {seen[key]} and {i}"
                break
            seen[key] = i
        if expected is None:
            assert len(PanelInput(dates, instruments, np.zeros(n))) == n
        else:
            with pytest.raises(PanelError) as err:
                PanelInput(dates, instruments, np.zeros(n))
            assert str(err.value).endswith(expected)


def test_only_the_long_loader_scans_for_repeated_pairs(tmp_path, monkeypatch):
    # the wide loader refuses repeated dates and columns, so no pair repeats
    calls = []
    scan = panel_module._first_duplicate
    monkeypatch.setattr(
        panel_module, "_first_duplicate", lambda *a: calls.append(a) or scan(*a)
    )
    assert len(load_panel(write(tmp_path, WIDE, "w.csv"), "wide")) == 4
    assert calls == []
    assert len(load_panel(write(tmp_path, LONG, "l.csv"), "long")) == 4
    assert len(calls) == 1


class TestWideLongAgree:
    def test_same_panel_and_bit_identical_means(self, tmp_path):
        rng = np.random.default_rng(2024)
        ids = [f"S{i:02d}" for i in range(12)]
        dates = np.datetime64("2001-03-01") + np.arange(60)
        values = rng.normal(0.0, 0.02, (len(dates), len(ids)))
        present = rng.random(values.shape) > 0.25
        wide = ["date," + ",".join(ids)]
        long = ["date,instrument,return"]
        for d, row, mask in zip(dates, values, present):
            cells = [repr(float(v)) if m else "" for v, m in zip(row, mask)]
            wide.append(",".join([str(d)] + cells))
            long.extend(f"{d},{i},{float(v)!r}" for i, v, m in zip(ids, row, mask) if m)
        from_wide = load_panel(write(tmp_path, "\n".join(wide) + "\n", "w.csv"), "wide")
        from_long = load_panel(write(tmp_path, "\n".join(long) + "\n", "l.csv"), "long")
        assert len(from_wide) == len(from_long) == int(present.sum())
        assert np.array_equal(from_wide.dates, from_long.dates)
        assert np.array_equal(from_wide.instruments, from_long.instruments)
        assert np.array_equal(from_wide.returns, from_long.returns)
        assert np.array_equal(from_wide.returns, values[present])
        a = equal_weight_series(from_wide, "daily")
        b = equal_weight_series(from_long, "daily")
        assert np.array_equal(a.dates, b.dates)
        assert np.array_equal(a.values, b.values)


def write_memory_panel(tmp_path):
    """A seeded 1100-date x 100-instrument wide panel, 10% blank: about 100k cells."""
    rng = np.random.default_rng(8)
    n_dates, n_ids = 1100, 100
    values = rng.normal(0.0, 1.5, (n_dates, n_ids))
    present = rng.random(values.shape) > 0.1
    dates = np.datetime64("1990-01-01") + np.arange(n_dates)
    lines = ["date," + ",".join(f"I{i:03d}" for i in range(n_ids))]
    for d, row, mask in zip(dates, values, present):
        cells = [repr(float(v)) if m else "" for v, m in zip(row, mask)]
        lines.append(",".join([str(d)] + cells))
    return write(tmp_path, "\n".join(lines) + "\n"), int(present.sum())


def test_wide_load_memory_is_bounded_per_cell(tmp_path):
    path, cells = write_memory_panel(tmp_path)
    tracemalloc.start()
    try:
        panel = load_panel(path, format="wide")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(panel) == cells  # about 100k cells
    assert peak / len(panel) <= 150


def test_wide_load_to_series_holds_few_bytes_per_cell(tmp_path):
    # the cell matrix, its mask and the three long arrays, then one sorted
    # copy of the dates: about 34 bytes per present cell; per-row arrays,
    # index arrays or the pair check's keys would take it to about 75
    path, cells = write_memory_panel(tmp_path)
    tracemalloc.start()
    try:
        series = equal_weight_series(load_panel(path, format="wide"), "daily")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 1100
    assert peak / cells <= 48


class TestEqualWeightSeries:
    def test_cross_sectional_mean(self, tmp_path):
        panel = load_panel(write(tmp_path, LONG))
        series = equal_weight_series(panel, "daily")
        assert series.frequency == "daily"
        assert list(series.dates.astype(str)) == ["2000-01-03", "2000-01-04", "2000-01-05"]
        assert series.values[0] == pytest.approx(0.02, rel=1e-15)
        assert series.values[1] == 0.01  # single instrument: identity
        assert series.values[2] == -0.02

    def test_wide_missing_cells_do_not_dilute(self, tmp_path):
        panel = load_panel(write(tmp_path, WIDE), format="wide")
        series = equal_weight_series(panel, "daily")
        assert series.values[1] == 0.01
        assert series.values[2] == -0.02

    def test_unordered_rows_come_out_date_sorted(self, tmp_path):
        text = (
            "date,instrument,return\n"
            "2000-01-05,A,0.05\n"
            "2000-01-03,A,0.03\n"
            "2000-01-04,A,0.04\n"
        )
        series = equal_weight_series(load_panel(write(tmp_path, text)), "daily")
        assert list(series.values) == [0.03, 0.04, 0.05]

    def test_empty_panel_rejected(self, tmp_path):
        panel = load_panel(write(tmp_path, "date,instrument,return\n"))
        assert len(panel) == 0
        with pytest.raises(PanelError, match="empty panel"):
            equal_weight_series(panel, "daily")

    def test_frequency_validated(self, tmp_path):
        panel = load_panel(write(tmp_path, LONG))
        with pytest.raises(ValueError, match="frequency"):
            equal_weight_series(panel, "hourly")

    def test_sums_match_row_order_loop_bit_for_bit(self):
        rng = np.random.default_rng(12)
        n = 20_000
        days = np.datetime64("2000-01-03") + rng.integers(0, 300, n)
        instruments = np.arange(n).astype(str).astype(object)  # all pairs unique
        returns = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)
        panel = PanelInput(dates=days, instruments=instruments, returns=returns)
        sums, counts = {}, {}
        for day, value in zip(panel.dates, panel.returns):
            sums[day] = sums.get(day, 0.0) + value
            counts[day] = counts.get(day, 0) + 1
        series = equal_weight_series(panel, "daily")
        want = [sums[d] / counts[d] for d in series.dates]
        assert list(series.values) == want

    def test_random_panel_matches_manual_means(self, tmp_path):
        rng = np.random.default_rng(55)
        dates = [f"2000-02-{d:02d}" for d in range(1, 9)]
        ids = ["A", "B", "C", "D", "E"]
        rows, expected = [], {}
        for d in dates:
            present = [i for i in ids if rng.random() > 0.3] or ["A"]
            cells = {i: round(float(rng.normal(0, 0.02)), 6) for i in present}
            expected[d] = np.mean(list(cells.values()))
            rows.append(",".join([d] + [f"{cells[i]}" if i in cells else "" for i in ids]))
        path = write(tmp_path, "date," + ",".join(ids) + "\n" + "\n".join(rows) + "\n")
        series = equal_weight_series(load_panel(path, format="wide"), "daily")
        assert len(series) == len(dates)
        for d, v in zip(series.dates.astype(str), series.values):
            assert v == pytest.approx(expected[d], rel=1e-12)
