"""Martingale-difference tests for financial return series.

Two complementary tests of return unpredictability, sharing one wild
bootstrap and one seeding discipline:

- the automatic variance ratio test (``avr_test``), with a data-driven
  quadratic-spectral bandwidth, against linear serial correlation;
- the generalized spectral test (``gs_test``), a Cramer-von Mises norm
  over all lags and exponential weightings, against nonlinear
  conditional-mean dependence.

Plus a calendar rolling-window engine (``run_rolling``) for time-varying
efficiency studies, seeded synthetic processes (``generate``) for size and
power work, and CSV panel ingestion (``load_panel``, ``equal_weight_series``).
"""

from .avr import (
    AvrOutcome,
    avr_statistic,
    avr_test,
    qs_kernel,
    variance_ratio,
)
from .bootstrap import (
    MULTIPLIERS,
    BootstrapConfig,
    derive_seed,
    draw_multipliers,
    substream,
)
from .dgp import KINDS, DgpSpec, generate
from .gs import GsOutcome, gram_matrix, gs_statistic, gs_test, truncation_bound
from .panel import FORMATS, PanelError, PanelInput, equal_weight_series, load_panel
from .rolling import (
    TESTS,
    RollingResult,
    Window,
    WindowResult,
    WindowSpec,
    make_windows,
    run_rolling,
)
from .series import (
    FREQUENCIES,
    DegenerateSeriesError,
    MomentSummary,
    ReturnSeries,
    autocorr,
    autocorrelations,
    describe,
    jarque_bera_from_moments,
)

__version__ = "1.0.0"

__all__ = [
    "AvrOutcome",
    "BootstrapConfig",
    "DegenerateSeriesError",
    "DgpSpec",
    "FORMATS",
    "FREQUENCIES",
    "GsOutcome",
    "KINDS",
    "MULTIPLIERS",
    "MomentSummary",
    "PanelError",
    "PanelInput",
    "ReturnSeries",
    "RollingResult",
    "TESTS",
    "Window",
    "WindowResult",
    "WindowSpec",
    "autocorr",
    "autocorrelations",
    "avr_statistic",
    "avr_test",
    "derive_seed",
    "describe",
    "draw_multipliers",
    "equal_weight_series",
    "generate",
    "gram_matrix",
    "gs_statistic",
    "gs_test",
    "jarque_bera_from_moments",
    "load_panel",
    "make_windows",
    "qs_kernel",
    "run_rolling",
    "substream",
    "truncation_bound",
    "variance_ratio",
]
