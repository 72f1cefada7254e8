"""Command-line interface: describe, avr, gs, roll, simulate.

Machine-readable results go to stdout (or --out atomically); progress and
human-readable summaries go to stderr. Every float in the JSON and CSV
results uses 17 significant digits, so it round-trips exactly; the
describe table is rounded to 6 significant digits. Runs with the same
flags and seed produce byte-identical output regardless of roll --workers.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from csv import writer as _csv_writer
from dataclasses import asdict, replace

import numpy as np

from .avr import avr_test
from .bootstrap import MULTIPLIERS, BootstrapConfig
from .dgp import KINDS, DgpSpec, generate
from .gs import gs_test, truncation_bound
from .panel import FORMATS, equal_weight_series, load_panel
from .rolling import TESTS, WindowSpec, run_rolling
from .series import FREQUENCIES, _count, describe

# GsOutcome's rank and error_bound describe the computation and go to stderr
_GS_JSON = ("statistic", "p_value", "n_boot", "max_lag_used")
# a gs window has no ci_low or ci_high, and a skipped window has none of these
_ROLL_NUMBERS = ("statistic", "p_value", "ci_low", "ci_high")
_ROLL_COLUMNS = (
    "window_start",
    "window_end",
    "n_obs",
    *_ROLL_NUMBERS,
    "significant_5pct",
    "skip_reason",
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _render_json(pairs) -> str:
    lines = []
    for key, value in pairs:
        text = str(value) if isinstance(value, int) else _fmt(value)
        lines.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _emit(text: str, out_path) -> None:
    """Write the fully assembled output, atomically when it is a file.

    The text goes to a new, uniquely named sibling of ``out_path`` that is
    then renamed onto it, so no other file is written or removed.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = f"{out_path}.{os.urandom(8).hex()}.tmp"
    try:
        # "x" refuses an existing file, which is then not ours to remove
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # strerror, not str(exc), which would name the temporary file
        raise OSError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _emit_csv(rows, out_path) -> None:
    """Write ``rows`` as CSV through :func:`_emit`; a None cell is left empty."""
    buf = io.StringIO()
    _csv_writer(buf, lineterminator="\n").writerows(rows)
    _emit(buf.getvalue(), out_path)


def _load_series(args):
    return equal_weight_series(load_panel(args.input, args.format), "daily")


def _boot_config(args) -> BootstrapConfig:
    return BootstrapConfig(n_boot=args.B, multiplier=args.eta, seed=args.seed)


def _max_lag(text: str):
    if text == "full":
        return "full"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'full', got {text!r}"
        ) from None


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="CSV panel of per-instrument returns")
    p.add_argument(
        "--format", choices=FORMATS, default="long",
        help="input layout (default: long)",
    )


def _add_boot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--B", type=int, default=BootstrapConfig.n_boot,
        help="bootstrap replications",
    )
    p.add_argument(
        "--seed", type=int, default=BootstrapConfig.seed, help="master seed"
    )
    p.add_argument(
        "--eta", choices=MULTIPLIERS, default=BootstrapConfig.multiplier,
        help="wild-bootstrap multiplier law (default: %(default)s)",
    )
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdhtest",
        description="Martingale-difference tests for return series: "
        "wild-bootstrap automatic variance ratio, generalized spectral, "
        "rolling windows, and synthetic data generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="summary moments and normality test")
    p.set_defaults(run=_cmd_describe)
    _add_input_args(p)

    p = sub.add_parser("avr", help="automatic variance ratio test")
    p.set_defaults(run=_cmd_avr)
    _add_input_args(p)
    _add_boot_args(p)

    p = sub.add_parser("gs", help="generalized spectral test")
    p.set_defaults(run=_cmd_gs)
    _add_input_args(p)
    _add_boot_args(p)
    p.add_argument(
        "--max-lag", type=_max_lag, default="full",
        help="lag truncation, integer or 'full' (default: full)",
    )

    p = sub.add_parser("roll", help="rolling-window test over calendar years")
    p.set_defaults(run=_cmd_roll)
    _add_input_args(p)
    p.add_argument("--test", choices=TESTS, required=True)
    p.add_argument(
        "--window-years", type=int, default=None,
        help="window width (default: 5 if the median date gap is >= 7 days, else 2)",
    )
    p.add_argument(
        "--step-years", type=int, default=WindowSpec.step_years,
        help="calendar years between window starts (default: %(default)s)",
    )
    p.add_argument(
        "--min-obs", type=int, default=WindowSpec.min_observations,
        help="fewest observations a window is tested on (default: %(default)s)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="threads that run windows in parallel (default: 1)",
    )
    _add_boot_args(p)

    p = sub.add_parser("simulate", help="generate a seeded synthetic series")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument(
        "--params", default="",
        help="comma-separated name=value pairs, e.g. phi=0.5",
    )
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--burn-in", type=int, default=DgpSpec.burn_in,
        help="warmup draws to discard (default: 200 recursive, 0 iid)",
    )
    p.add_argument("--frequency", choices=FREQUENCIES, default=DgpSpec.frequency)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def _cmd_describe(args) -> int:
    summary = describe(_load_series(args))
    stars = ""
    for level, mark in ((0.01, "***"), (0.05, "**"), (0.10, "*")):
        if summary.jb_p < level:
            stars = mark
            break
    rows = asdict(summary)
    width = max(len(name) for name in rows)
    for name, value in rows.items():
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        if name == "jarque_bera":
            text += stars
        print(f"{name:<{width}}  {text}")
    return 0


def _cmd_avr(args) -> int:
    boot = _boot_config(args)
    outcome = avr_test(_load_series(args), boot)
    _emit(_render_json(asdict(outcome).items()), args.out)
    print(
        f"AVR statistic {outcome.statistic:.6g} "
        f"(VR {outcome.vr:.6g}, bandwidth {outcome.bandwidth:.6g}), "
        f"p = {outcome.p_value:.4f} "
        f"[B = {outcome.n_boot}, eta = {args.eta}], "
        f"bootstrap 95% CI [{outcome.ci_low:.6g}, {outcome.ci_high:.6g}]",
        file=sys.stderr,
    )
    return 0


def _cmd_gs(args) -> int:
    boot = _boot_config(args)
    series = _load_series(args)
    outcome = gs_test(series, boot, max_lag=args.max_lag)
    if outcome.max_lag_used < len(series) - 1:
        bound = truncation_bound(series, outcome.max_lag_used)
        print(
            f"lag truncation at {outcome.max_lag_used}: "
            f"omitted statistic mass <= {_fmt(bound)}",
            file=sys.stderr,
        )
    _emit(
        _render_json((name, getattr(outcome, name)) for name in _GS_JSON),
        args.out,
    )
    print(
        f"GS statistic {outcome.statistic:.6g} "
        f"(lags 1..{outcome.max_lag_used}), "
        f"p = {outcome.p_value:.4f} [B = {outcome.n_boot}, eta = {args.eta}], "
        f"Gram factor rank {outcome.rank}, "
        f"certified error <= {outcome.error_bound:.3g}",
        file=sys.stderr,
    )
    return 0


def _cmd_roll(args) -> int:
    workers = _count(args.workers, "workers", 1)
    given = {"step_years": args.step_years, "min_observations": args.min_obs}
    if args.window_years is not None:
        given["window_years"] = args.window_years
    # a bad value is refused before the input is read
    replace(WindowSpec.for_frequency("daily"), **given)
    boot = _boot_config(args)
    series = _load_series(args)
    # The median date gap is 1 day in daily data, week-long holidays or not,
    # and 7 in weekly data. Data with two dates a week have gaps that sum to
    # 7 and a median of at most 6, so they take the daily windows
    gaps = np.diff(series.dates).astype(int)
    weekly = len(gaps) > 0 and np.median(gaps) >= 7
    spec = replace(WindowSpec.for_frequency("weekly" if weekly else "daily"), **given)
    result = run_rolling(series, spec, args.test, boot, workers=workers)
    rows = [_ROLL_COLUMNS]
    n_sig = n_skip = 0
    for win in result.windows:
        n_skip += win.outcome is None
        n_sig += bool(win.significant_5pct)
        numbers = [getattr(win.outcome, name, None) for name in _ROLL_NUMBERS]
        significant = {None: "", True: "true", False: "false"}[win.significant_5pct]
        rows.append(
            [
                str(win.start),
                str(win.end),
                win.n_obs,
                *(None if x is None else _fmt(x) for x in numbers),
                significant,
                win.skip_reason,
            ]
        )
    _emit_csv(rows, args.out)
    print(
        f"{len(result.windows)} windows: {n_sig} significant at 5%, "
        f"{n_skip} skipped",
        file=sys.stderr,
    )
    return 0


def _parse_params(text: str) -> dict:
    params = {}
    if not text.strip():
        return params
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"bad --params entry {piece!r}, expected name=value")
        if name in params:
            raise ValueError(f"bad --params: {name} given twice")
        try:
            params[name] = float(value)
        except ValueError:
            raise ValueError(f"bad --params value for {name}: {value!r}") from None
    return params


def _cmd_simulate(args) -> int:
    spec = DgpSpec(
        kind=args.kind,
        length=args.length,
        seed=args.seed,
        params=_parse_params(args.params),
        burn_in=args.burn_in,
        frequency=args.frequency,
    )
    series = generate(spec)
    rows = [("date", args.kind)]
    rows.extend((str(d), _fmt(v)) for d, v in zip(series.dates, series.values))
    _emit_csv(rows, args.out)
    print(
        f"simulated {args.kind} series, length {args.length}, seed {args.seed}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
