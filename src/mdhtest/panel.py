"""CSV panel ingestion and the equal-weighted portfolio series.

Input is a per-instrument return panel, either long form
(``date,instrument,return``) or wide form (``date`` plus one column per
instrument, blank cells meaning the instrument has no observation that
date). Validation is strict and every error names the file line where the
offending record starts (a quoted field may span lines); missing
observations stay missing and are never zero-filled.

Ingest is one streamed pass over the CSV reader: the file is never held as
a list of rows. Wide rows are parsed into a (dates x instruments) float
matrix with NaN for blank cells, and the long-form arrays come from its
present cells in one vectorized step, date-major and in column order.
Repeated (date, instrument) pairs are found once, vectorized, by
``PanelInput`` itself. The loaders locate faults by record index, and only
an error reads the file again to turn records into lines, so a clean load
keeps no line numbers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date as _date
from itertools import islice

import numpy as np

from .series import ReturnSeries

FORMATS = ("long", "wide")


class PanelError(ValueError):
    """Malformed panel input: parse failure or invariant violation."""


class _RecordError(PanelError):
    """A fault in the data records ``records`` (0-based, header excluded).

    ``load_panel`` names the file lines where those records start.
    """

    def __init__(self, message: str, records: tuple):
        super().__init__(message)
        self.records = records

    def at_lines(self, lines: list) -> str:
        what = self.args[0]
        if len(lines) == 1:
            return f"line {lines[0]}: {what}"
        return f"{what} at lines {lines[0]} and {lines[1]}"


class _DuplicatePair(_RecordError):
    """A repeated (date, instrument) pair; ``records`` are its two rows."""

    def __str__(self) -> str:
        return f"{self.args[0]} at rows {self.records[0]} and {self.records[1]}"


def _first_duplicate(dates: np.ndarray, instruments: np.ndarray):
    """Rows (first, second) of the earliest repeat of a (date, instrument) pair.

    ``second`` is the lowest row whose pair occurred before and ``first`` the
    row where that pair first occurred, which is what a row-by-row scan with
    a ``seen`` dict reports. None when every pair is unique.
    """
    codes_of = {}
    codes = np.fromiter(
        (codes_of.setdefault(x, len(codes_of)) for x in instruments),
        dtype=np.int64, count=len(instruments),
    )
    # Dense date ranks, not raw day numbers, keep the key below n² (NaT and
    # far-apart dates would overflow int64 as day·n_codes).
    _, day_codes = np.unique(dates.view(np.int64), return_inverse=True)
    key = day_codes * len(codes_of) + codes
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    repeated = sorted_key[1:] == sorted_key[:-1]
    if not repeated.any():
        return None
    second = int(order[1:][repeated].min())
    first = int(np.flatnonzero(key == key[second])[0])
    return first, second


@dataclass(frozen=True)
class PanelInput:
    """Validated long-form panel: parallel arrays of (date, instrument, return)."""

    dates: np.ndarray
    instruments: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        instruments = np.asarray(self.instruments, dtype=object)
        returns = np.asarray(self.returns, dtype=np.float64)
        if not (len(dates) == len(instruments) == len(returns)):
            raise PanelError(
                "dates, instruments and returns must have equal length, got "
                f"{len(dates)}, {len(instruments)}, {len(returns)}"
            )
        if len(returns) and not np.all(np.isfinite(returns)):
            bad = int(np.flatnonzero(~np.isfinite(returns))[0])
            raise PanelError(f"non-finite return at row {bad}")
        rows = _first_duplicate(dates, instruments)
        if rows is not None:
            key = (str(dates[rows[1]]), instruments[rows[1]])
            raise _DuplicatePair(f"duplicate (date, instrument) {key}", rows)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "instruments", instruments)
        object.__setattr__(self, "returns", returns)

    def __len__(self) -> int:
        return len(self.returns)


def _parse_date(text: str, record: int) -> _date:
    try:
        return _date.fromisoformat(text.strip())
    except ValueError:
        raise _RecordError(f"invalid ISO-8601 date {text!r}", (record,)) from None


def _parse_return(text: str, record: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _RecordError(f"invalid return {text!r}", (record,)) from None
    if not math.isfinite(value):
        raise _RecordError(f"non-finite return {text!r}", (record,))
    return value


def _undecodable_line(path: str) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8.

    The text layer decodes in chunks, so a decode error surfaces before the
    reader reaches the bad line; no UTF-8 sequence contains a newline byte,
    so decoding line by line finds it exactly.
    """
    number = 0
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return number


def _record_lines(path: str, records: tuple) -> list:
    """File lines where the data records ``records`` (0-based) start.

    A quoted field may span lines, so a record's line is not its index + 2.
    Only error paths need it, so the file is read again up to the last of
    ``records`` rather than a line number being kept for every row.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        starts = [reader.line_num + 1]
        for _ in islice(reader, max(records)):
            starts.append(reader.line_num + 1)
    return [starts[r] for r in records]


def load_panel(path: str, format: str = "long") -> PanelInput:
    """Read and validate a CSV panel in one streamed pass.

    Rows are parsed as the CSV reader yields them; the file is never held
    as a list of rows. All diagnostics name file lines.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    load = _load_long if format == "long" else _load_wide
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise PanelError(f"{path}: empty file")
            return load(path, [c.strip() for c in header], reader)
    except _RecordError as exc:
        lines = _record_lines(path, exc.records)
        raise PanelError(f"{path}: {exc.at_lines(lines)}") from None
    except csv.Error as exc:
        raise PanelError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise PanelError(
            f"{path}: line {_undecodable_line(path)}: invalid UTF-8 ({exc.reason})"
        ) from None
    except OSError as exc:
        raise PanelError(f"cannot read {path}: {exc}") from None


def _load_long(path, header, reader) -> PanelInput:
    if header != ["date", "instrument", "return"]:
        raise PanelError(
            f"{path}: long format needs header date,instrument,return, "
            f"got {','.join(header)}"
        )
    days, instruments, returns = [], [], []
    for record, row in enumerate(reader):
        if len(row) != 3:
            raise _RecordError(f"expected 3 fields, got {len(row)}", (record,))
        days.append(_parse_date(row[0], record).toordinal())
        instrument = row[1].strip()
        if not instrument:
            raise _RecordError("empty instrument id", (record,))
        instruments.append(instrument)
        returns.append(_parse_return(row[2], record))
    return PanelInput(
        dates=_dates(days),
        instruments=np.array(instruments, dtype=object),
        returns=np.array(returns, dtype=np.float64),
    )


def _load_wide(path, header, reader) -> PanelInput:
    if len(header) < 2 or header[0] != "date":
        raise PanelError(
            f"{path}: wide format needs header date,<id>,... got {','.join(header)}"
        )
    ids = header[1:]
    if any(not c for c in ids):
        raise PanelError(f"{path}: empty instrument column name in header")
    if len(set(ids)) != len(ids):
        dupes = sorted({c for c in ids if ids.count(c) > 1})
        raise PanelError(f"{path}: duplicate instrument columns {dupes}")
    days, cells, seen = [], [], {}
    for record, row in enumerate(reader):
        if len(row) != len(header):
            raise _RecordError(
                f"expected {len(header)} fields, got {len(row)}", (record,)
            )
        day = _parse_date(row[0], record)
        if day in seen:
            raise _RecordError(f"duplicate date {day}", (seen[day], record))
        seen[day] = record
        days.append(day.toordinal())
        # A blank cell is an explicit absence, never zero-filled: it stays
        # NaN here (no parsed return can be NaN) and is dropped below.
        cells.append(np.array(
            [_parse_return(c, record) if c.strip() else math.nan for c in row[1:]]
        ))
    matrix = np.array(cells, dtype=np.float64).reshape(len(cells), len(ids))
    del cells
    # Row-major nonzero keeps the long form date-major in column order.
    rows, cols = np.nonzero(~np.isnan(matrix))
    dates = _dates(days)[rows]
    instruments = np.array(ids, dtype=object)[cols]
    returns = matrix[rows, cols]
    del matrix, rows, cols  # freed before PanelInput's duplicate check, the peak
    return PanelInput(dates=dates, instruments=instruments, returns=returns)


_EPOCH = _date(1970, 1, 1).toordinal()


def _dates(ordinals: list) -> np.ndarray:
    """datetime64[D] days from proleptic Gregorian ordinals."""
    return (np.array(ordinals, dtype=np.int64) - _EPOCH).astype("datetime64[D]")


def equal_weight_series(panel: PanelInput, frequency: str) -> ReturnSeries:
    """Cross-sectional mean return per date over the instruments present."""
    if len(panel) == 0:
        raise PanelError("empty panel: no observations to average")
    unique_dates, inverse = np.unique(panel.dates, return_inverse=True)
    # each date's returns are added in row order, as a loop over rows would
    sums = np.bincount(inverse, weights=panel.returns, minlength=len(unique_dates))
    counts = np.bincount(inverse, minlength=len(unique_dates))
    return ReturnSeries(
        values=sums / counts, dates=unique_dates, frequency=frequency
    )
