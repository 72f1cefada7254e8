"""Command-line interface: describe, avr, gs, roll, simulate.

Machine-readable results go to stdout (or --out atomically); progress and
human-readable summaries go to stderr. All floating-point output uses 17
significant digits so every emitted number round-trips exactly. Runs with
the same flags and seed produce byte-identical output regardless of
roll --workers.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from csv import writer as _csv_writer

from .avr import avr_test
from .bootstrap import MULTIPLIERS, BootstrapConfig
from .dgp import KINDS, DgpSpec, generate
from .gs import gs_test, truncation_bound
from .panel import FORMATS, equal_weight_series, load_panel
from .rolling import TESTS, WindowSpec, run_rolling
from .series import FREQUENCIES, _count, describe

_ROLL_COLUMNS = (
    "window_start",
    "window_end",
    "n_obs",
    "statistic",
    "p_value",
    "ci_low",
    "ci_high",
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
    """Write the fully assembled output, atomically when it is a file."""
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = out_path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_series(args, frequency="daily"):
    return equal_weight_series(load_panel(args.input, args.format), frequency)


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
    p.add_argument("--B", type=int, default=500, help="bootstrap replications")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--eta", choices=MULTIPLIERS, default="normal",
        help="wild-bootstrap multiplier law (default: normal)",
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
    _add_input_args(p)

    p = sub.add_parser("avr", help="automatic variance ratio test")
    _add_input_args(p)
    _add_boot_args(p)

    p = sub.add_parser("gs", help="generalized spectral test")
    _add_input_args(p)
    _add_boot_args(p)
    p.add_argument(
        "--max-lag", type=_max_lag, default="full",
        help="lag truncation, integer or 'full' (default: full)",
    )

    p = sub.add_parser("roll", help="rolling-window test over calendar years")
    _add_input_args(p)
    p.add_argument(
        "--frequency", choices=FREQUENCIES, default="daily",
        help="input frequency, for the default --window-years (default: daily)",
    )
    p.add_argument("--test", choices=TESTS, required=True)
    p.add_argument(
        "--window-years", type=int, default=None,
        help="window width (default: 2 daily / 5 weekly)",
    )
    p.add_argument("--step-years", type=int, default=1)
    p.add_argument("--min-obs", type=int, default=30)
    p.add_argument(
        "--workers", type=int, default=1,
        help="threads that run windows in parallel (default: 1)",
    )
    _add_boot_args(p)

    p = sub.add_parser("simulate", help="generate a seeded synthetic series")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument(
        "--params", default="",
        help="comma-separated name=value pairs, e.g. phi=0.5",
    )
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--burn-in", type=int, default=None,
        help="warmup draws to discard (default: 200 recursive, 0 iid)",
    )
    p.add_argument("--frequency", choices=FREQUENCIES, default="daily")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def _cmd_describe(args) -> int:
    summary = describe(_load_series(args))
    stars = ""
    for level, mark in ((0.01, "***"), (0.05, "**"), (0.10, "*")):
        if summary.jb_p < level:
            stars = mark
            break
    rows = [
        ("size", str(summary.size)),
        ("mean", f"{summary.mean:.6g}"),
        ("std", f"{summary.std:.6g}"),
        ("skewness", f"{summary.skewness:.6g}"),
        ("kurtosis", f"{summary.kurtosis:.6g}"),
        ("jarque_bera", f"{summary.jarque_bera:.6g}{stars}"),
        ("jb_p", f"{summary.jb_p:.6g}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _cmd_avr(args) -> int:
    boot = _boot_config(args)
    outcome = avr_test(_load_series(args), boot)
    _emit(
        _render_json(
            [
                ("statistic", outcome.statistic),
                ("vr", outcome.vr),
                ("bandwidth", outcome.bandwidth),
                ("p_value", outcome.p_value),
                ("ci_low", outcome.ci_low),
                ("ci_high", outcome.ci_high),
                ("n_boot", outcome.n_boot),
            ]
        ),
        args.out,
    )
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
            f"omitted statistic mass <= {bound:.6g}",
            file=sys.stderr,
        )
    _emit(
        _render_json(
            [
                ("statistic", outcome.statistic),
                ("p_value", outcome.p_value),
                ("n_boot", outcome.n_boot),
                ("max_lag_used", outcome.max_lag_used),
            ]
        ),
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
    window_years = args.window_years
    if window_years is None:
        window_years = WindowSpec.for_frequency(args.frequency).window_years
    spec = WindowSpec(
        window_years=window_years,
        step_years=args.step_years,
        min_observations=args.min_obs,
    )
    boot = _boot_config(args)
    series = _load_series(args, args.frequency)
    result = run_rolling(series, spec, args.test, boot, workers=workers)
    buf = io.StringIO()
    rows = _csv_writer(buf, lineterminator="\n")
    rows.writerow(_ROLL_COLUMNS)
    n_sig = n_skip = 0
    for win in result.windows:
        if win.outcome is None:
            n_skip += 1
            rows.writerow(
                [str(win.start), str(win.end), win.n_obs, "", "", "", "", "",
                 win.skip_reason]
            )
            continue
        significant = win.significant_5pct
        n_sig += bool(significant)
        ci_low = getattr(win.outcome, "ci_low", None)
        ci_high = getattr(win.outcome, "ci_high", None)
        rows.writerow(
            [
                str(win.start),
                str(win.end),
                win.n_obs,
                _fmt(win.outcome.statistic),
                _fmt(win.outcome.p_value),
                "" if ci_low is None else _fmt(ci_low),
                "" if ci_high is None else _fmt(ci_high),
                "true" if significant else "false",
                "",
            ]
        )
    _emit(buf.getvalue(), args.out)
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
    buf = io.StringIO()
    rows = _csv_writer(buf, lineterminator="\n")
    rows.writerow(["date", args.kind])
    for date, value in zip(series.dates, series.values):
        rows.writerow([str(date), _fmt(value)])
    _emit(buf.getvalue(), args.out)
    print(
        f"simulated {args.kind} series, length {args.length}, seed {args.seed}",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "avr": _cmd_avr,
    "gs": _cmd_gs,
    "roll": _cmd_roll,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
