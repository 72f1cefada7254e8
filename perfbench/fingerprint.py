"""Correctness fingerprints: the statistic and p-value of every op.

Values are kept as the 17-significant-digit strings the program prints,
which round-trip exactly. A check passes when every p-value, window date,
observation count, skip reason and rejection count is identical, and every
statistic and bootstrap band bound is within ``STAT_RTOL`` relative error.
The tolerance is the package's oracle tolerance: it admits a reordered but
equivalent computation (a different summation order or factorisation)
while any change in a decision shows up as a changed p-value.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

STAT_RTOL = 1e-10
STORE = Path(__file__).resolve().parent / "fingerprints"


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def roll_rows(stdout: bytes) -> list:
    """Rows of ``mdhtest roll`` CSV output, header dropped."""
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    if not rows or rows[0][:2] != ["window_start", "window_end"]:
        raise ValueError("not mdhtest roll output")
    return rows[1:]


# roll CSV columns: start, end, n_obs, statistic, p_value, ci_low, ci_high,
# significant_5pct, skip_reason
_ROLL_CLOSE = (3, 5, 6)


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    x, y = float(a), float(b)
    return abs(x - y) <= STAT_RTOL * max(abs(x), abs(y))


def compare_rows(expected: list, got: list) -> list:
    """Mismatch messages between two roll outputs (empty when they agree)."""
    if len(expected) != len(got):
        return [f"{len(got)} windows, expected {len(expected)}"]
    problems = []
    for w, (e, g) in enumerate(zip(expected, got)):
        if len(e) != len(g):
            problems.append(f"window {w}: {len(g)} fields, expected {len(e)}")
            continue
        for col, (a, b) in enumerate(zip(e, g)):
            ok = _close(a, b) if col in _ROLL_CLOSE else a == b
            if not ok:
                problems.append(f"window {w} column {col}: {b!r}, expected {a!r}")
    return problems


def compare_mc(expected: list, got: list) -> dict:
    """Op index -> mismatch, over [avr_stat, avr_p, gs_stat, gs_p] records.

    An op that raised (``None``) is reported by the caller, not here.
    """
    problems = {}
    for i, (e, g) in enumerate(zip(expected, got)):
        if g is None:
            continue
        if e is None:
            problems[i] = f"op {i}: no reference result"
            continue
        for col, (a, b) in enumerate(zip(e, g)):
            ok = _close(a, b) if col in (0, 2) else a == b
            if not ok:
                problems[i] = f"op {i} field {col}: {b!r}, expected {a!r}"
                break
    return problems


def rejections(ops: list, results: list, level: float = 0.05) -> dict:
    """Count of p < level per DGP kind and per test."""
    counts: dict = {}
    for op, res in zip(ops, results):
        per = counts.setdefault(op["kind"], {"avr": 0, "gs": 0})
        if res is None:
            continue
        per["avr"] += float(res[1]) < level
        per["gs"] += float(res[3]) < level
    return counts


def load(workload: str, seed: int, input_sha256: str):
    """Stored entry for (workload, seed) when it was made from the same input."""
    path = STORE / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)["seeds"].get(str(seed))
    if entry is None or entry["input_sha256"] != input_sha256:
        return None
    return entry
