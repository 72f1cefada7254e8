"""Seeded synthetic data-generating processes for size/power studies.

Four reference processes: iid Gaussian noise (the plain null), GARCH(1,1)
(a martingale difference with conditional heteroskedasticity, the null the
wild bootstrap exists for), AR(1) (a linear-in-mean alternative), and the
diagonal bilinear process Y_t = b*Y_{t-1}*eps_{t-1} + eps_t (predictable
through a nonlinear channel, with only a faint linear trace: lag-1
autocorrelation b^2*(1-b^2)/(1+b^2+b^4), under 0.12 for |b| <= 0.4, and
zero at every longer lag -- the case where the generalized spectral test
holds a large power advantage over autocorrelation-based tests).

Generation draws from ``substream(seed, DGP_DOMAIN)``: the same spec always
yields the same series, and nothing touches global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .bootstrap import DGP_DOMAIN, substream
from .series import FREQUENCIES, ReturnSeries, _choice, _count, _real

# The one declaration of the processes: each kind and the parameters it takes.
# Every kind but iid_normal is a recursion that starts from its first draw.
_PARAM_NAMES = {
    "iid_normal": frozenset(),
    "ar1": frozenset({"phi"}),
    "garch11": frozenset({"omega", "alpha", "beta"}),
    "bilinear": frozenset({"b"}),
}
KINDS = tuple(_PARAM_NAMES)
_START_DATE = np.datetime64("2000-01-03", "D")


@dataclass(frozen=True)
class DgpSpec:
    """Full description of one synthetic series; validated at construction."""

    kind: str
    length: int
    seed: int
    params: Mapping[str, float] = field(default_factory=dict)
    burn_in: Optional[int] = None
    frequency: str = "daily"

    def __post_init__(self):
        _choice(self.kind, KINDS, "kind")
        object.__setattr__(self, "length", _count(self.length, "length", 1))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        _choice(self.frequency, FREQUENCIES, "frequency")
        expected = _PARAM_NAMES[self.kind]
        got = frozenset(self.params)
        if got != expected:
            raise ValueError(
                f"{self.kind} takes params {sorted(expected)}, got {sorted(got)}"
            )
        params = {name: _real(v, f"param {name}") for name, v in self.params.items()}
        object.__setattr__(self, "params", params)
        recursive = self.kind != "iid_normal"
        # recursive processes need warmup to forget their start state
        burn_in = (200 if recursive else 0) if self.burn_in is None else self.burn_in
        object.__setattr__(
            self, "burn_in", _count(burn_in, "burn_in", 100 if recursive else 0)
        )
        self._check_stationarity()

    def _check_stationarity(self):
        p = self.params
        if self.kind == "garch11":
            omega, alpha, beta = p["omega"], p["alpha"], p["beta"]
            if omega <= 0.0:
                raise ValueError(f"garch11 requires omega > 0, got {omega}")
            if alpha < 0.0 or beta < 0.0:
                raise ValueError(
                    f"garch11 requires alpha, beta >= 0, got {alpha}, {beta}"
                )
            if alpha + beta >= 1.0:
                raise ValueError(
                    f"garch11 requires alpha + beta < 1, got {alpha + beta}"
                )
        elif p:  # ar1 and bilinear: one coefficient, inside the unit interval
            ((name, x),) = p.items()
            if not abs(x) < 1.0:
                raise ValueError(f"{self.kind} requires |{name}| < 1, got {name}={x}")


def generate(spec: DgpSpec) -> ReturnSeries:
    """Simulate the process, drop burn-in, attach evenly spaced dates.

    One draw of innovations serves every kind: it is the iid series as
    drawn, and the start value each recursion overwrites from its first
    update on.
    """
    total = spec.burn_in + spec.length
    eps = substream(spec.seed, DGP_DOMAIN).standard_normal(total)
    y = eps.copy()
    if spec.kind == "ar1":
        phi = spec.params["phi"]
        for t in range(1, total):
            y[t] = phi * y[t - 1] + eps[t]
    elif spec.kind == "garch11":
        p = spec.params
        omega, alpha, beta = p["omega"], p["alpha"], p["beta"]
        h = omega / (1.0 - alpha - beta)  # unconditional variance
        for t in range(total):
            y[t] = math.sqrt(h) * eps[t]
            h = omega + alpha * y[t] * y[t] + beta * h
    elif spec.kind == "bilinear":
        b = spec.params["b"]
        for t in range(1, total):
            y[t] = b * y[t - 1] * eps[t - 1] + eps[t]
    step = np.timedelta64(1 if spec.frequency == "daily" else 7, "D")
    dates = _START_DATE + np.arange(spec.length) * step
    return ReturnSeries(values=y[spec.burn_in:], dates=dates, frequency=spec.frequency)
