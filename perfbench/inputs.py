"""Deterministic workload inputs, made by the benchmark from its seed.

The generators here use only numpy's PCG64 stream and Python's correctly
rounded float formatting, never the package under test, so the inputs of a
seed stay the same while the program changes. The same seed gives
byte-identical files and op lists; another seed gives different ones.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

FIRST_YEAR = 2000

# panel_roll_avr: 20 calendar years of weekdays x 100 instruments.
PANEL_YEARS = 20
PANEL_INSTRUMENTS = 100
PANEL_LISTING_SPREAD = 0.10  # listing dates staggered over the first 10% of rows
PANEL_BLANK_RATE = 0.05  # blanks after listing; ~10% blank cells in all

# gs_roll_daily: one instrument, 12 calendar years -> 11 two-year windows.
GS_YEARS = 12

# Percent-scale GARCH(1,1) with unit unconditional variance. The scale
# matters for GS: the Gram matrix's numerical rank grows with it.
GARCH_PERCENT = {"omega": 0.02, "alpha": 0.08, "beta": 0.90}
_GARCH_BURN_IN = 500

# mc_size_power: 120 ops at T=250, cycling over the four package DGPs.
MC_OPS = 120
MC_LENGTH = 250
MC_B = 199
MC_DGPS = (
    ("iid_normal", {}),
    ("garch11", {"omega": 0.05, "alpha": 0.1, "beta": 0.85}),
    ("ar1", {"phi": 0.2}),
    ("bilinear", {"b": 0.4}),
)

# Stream tags keep the inputs of one seed independent of each other.
_PANEL_TAG = 1
_GS_TAG = 2
_MC_TAG = 3


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def weekdays(first_year: int, years: int) -> np.ndarray:
    """Every Monday-to-Friday date of the given calendar years (~261 a year)."""
    start = np.datetime64(f"{first_year:04d}-01-01", "D")
    end = np.datetime64(f"{first_year + years:04d}-01-01", "D")
    days = np.arange(start, end, dtype="datetime64[D]")
    return days[np.is_busday(days)]


def garch_paths(rng: np.random.Generator, n: int, paths: int) -> np.ndarray:
    """n x paths independent GARCH(1,1) returns, burn-in dropped."""
    omega = GARCH_PERCENT["omega"]
    alpha = GARCH_PERCENT["alpha"]
    beta = GARCH_PERCENT["beta"]
    eps = rng.standard_normal((_GARCH_BURN_IN + n, paths))
    y = np.empty_like(eps)
    h = np.full(paths, omega / (1.0 - alpha - beta))
    for t in range(len(eps)):
        y[t] = np.sqrt(h) * eps[t]
        h = omega + alpha * y[t] * y[t] + beta * h
    return y[_GARCH_BURN_IN:]


def wide_csv(dates: np.ndarray, ids: list, cells: np.ndarray) -> bytes:
    """Wide CSV text; NaN cells are written blank. Six decimals, like vendor data."""
    lines = ["date," + ",".join(ids)]
    for d, row in zip(dates.astype(str), cells):
        lines.append(
            d + "," + ",".join("" if v != v else f"{v:.6f}" for v in row.tolist())
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def panel_csv(seed: int) -> bytes:
    """Wide daily panel: GARCH returns, staggered listings, ~10% blank cells."""
    rng = _rng(seed, _PANEL_TAG)
    dates = weekdays(FIRST_YEAR, PANEL_YEARS)
    n = len(dates)
    cells = garch_paths(rng, n, PANEL_INSTRUMENTS)
    listing = rng.integers(0, int(PANEL_LISTING_SPREAD * n), size=PANEL_INSTRUMENTS)
    listing[0] = 0  # one instrument covers the first day, so the anchor year is fixed
    unlisted = np.arange(n)[:, None] < listing[None, :]
    blank = rng.random((n, PANEL_INSTRUMENTS)) < PANEL_BLANK_RATE
    cells[unlisted | blank] = np.nan
    ids = [f"I{i:03d}" for i in range(PANEL_INSTRUMENTS)]
    return wide_csv(dates, ids, cells)


def gs_csv(seed: int) -> bytes:
    """Single-instrument daily GARCH series, sd ~ 1 (percent returns)."""
    rng = _rng(seed, _GS_TAG)
    dates = weekdays(FIRST_YEAR, GS_YEARS)
    return wide_csv(dates, ["R"], garch_paths(rng, len(dates), 1))


def mc_ops(seed: int) -> list:
    """The Monte Carlo op list: DGP spec and bootstrap seeds of every op."""
    state = np.random.SeedSequence([seed, _MC_TAG]).generate_state(3 * MC_OPS, np.uint64)
    ops = []
    for i in range(MC_OPS):
        kind, params = MC_DGPS[i % len(MC_DGPS)]
        ops.append(
            {
                "kind": kind,
                "params": dict(params),
                "length": MC_LENGTH,
                "dgp_seed": int(state[3 * i]),
                "avr_seed": int(state[3 * i + 1]),
                "gs_seed": int(state[3 * i + 2]),
                "n_boot": MC_B,
            }
        )
    return ops


def digest(data) -> str:
    """sha256 of bytes, or of the canonical JSON of a list or dict."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()
