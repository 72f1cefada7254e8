"""Hash the GS test's outcomes over a fixed grid, to show two trees agree.

    python tools/gs_grid.py TREE [TREE ...]

For each TREE, a checkout of this repository, runs the grid below in a
fresh interpreter with ``PYTHONPATH=TREE/src`` and prints one
``<calls> <sha256>  TREE`` line. The hash covers the exact bits of every
call's statistic, p-value, error bound, rank and lags used, and of
``truncation_bound`` where the lags are truncated. Exits 1 if the trees'
hashes differ.

The grid has 300 ``gs_test`` calls, all at B = 99: the normal, Rademacher
and Mammen multiplier laws x T in {2, 3, 4, 5, 8, 30, 250, 700} x sd in
{0.01, 1, 5} x mean offset {0, 100} x all and T // 4 lags (at least one),
then six percent-scale GARCH(1,1) series at T = 2000 with both lag
choices. The inputs come from numpy and from ``garch_paths`` in the
benchmark's ``perfbench/inputs.py`` beside this tool, never from the
package under test, so every tree sees the same bits.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
_LAWS = ("normal", "rademacher", "mammen")
_LENGTHS = (2, 3, 4, 5, 8, 30, 250, 700)
_SDS = (0.01, 1.0, 5.0)
_OFFSETS = (0.0, 100.0)
_GARCH_T = 2000
_GARCH_SERIES = 6
_B = 99
_GRID = "--grid"  # the child's argument: run the grid in this interpreter


def _cases():
    """(law, values, max_lag) for every call of the grid, in order."""
    for law in _LAWS:
        for T in _LENGTHS:
            base = np.random.default_rng(T).standard_normal(T)
            for sd in _SDS:
                for offset in _OFFSETS:
                    for max_lag in ("full", max(1, T // 4)):
                        yield law, offset + sd * base, max_lag
    spec = importlib.util.spec_from_file_location("perfbench_inputs", _INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    paths = inputs.garch_paths(np.random.default_rng(0), _GARCH_T, _GARCH_SERIES)
    for i, values in enumerate(paths.T):
        for max_lag in ("full", _GARCH_T // 4):
            yield _LAWS[i % len(_LAWS)], np.ascontiguousarray(values), max_lag


def grid_hash() -> tuple[int, str]:
    """The number of calls and the sha256 of their outcomes, in this tree."""
    from mdhtest import BootstrapConfig, ReturnSeries, gs_test, truncation_bound

    digest = hashlib.sha256()
    calls = 0
    for seed, (law, values, max_lag) in enumerate(_cases()):
        dates = np.datetime64("2000-01-03") + np.arange(len(values))
        series = ReturnSeries(values=values, dates=dates, frequency="daily")
        boot = BootstrapConfig(n_boot=_B, multiplier=law, seed=seed)
        out = gs_test(series, boot, max_lag)
        digest.update(
            struct.pack(
                "<dddqq",
                out.statistic,
                out.p_value,
                out.error_bound,
                out.rank,
                out.max_lag_used,
            )
        )
        if max_lag != "full":
            digest.update(struct.pack("<d", truncation_bound(series, max_lag)))
        calls += 1
    return calls, digest.hexdigest()


def main(argv=None) -> int:
    trees = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if not trees:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    hashes = set()
    for tree in trees:
        src = tree.resolve() / "src"
        if not (src / "mdhtest").is_dir():
            print(f"{tree}: no src/mdhtest", file=sys.stderr)
            return 2
        # the child's sys.path starts with tools/, then TREE/src; -B writes
        # no bytecode beside perfbench/inputs.py
        child = subprocess.run(
            [sys.executable, "-B", __file__, _GRID],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            text=True,
        )
        if child.returncode:
            print(f"{tree}: the grid failed", file=sys.stderr)
            return 2
        print(f"{child.stdout.strip()}  {tree}", flush=True)
        hashes.add(child.stdout)
    return int(len(hashes) > 1)


if __name__ == "__main__":
    if sys.argv[1:] == [_GRID]:
        print(*grid_hash())
        sys.exit(0)
    sys.exit(main())
