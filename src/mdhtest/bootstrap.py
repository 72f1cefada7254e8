"""Bootstrap configuration and the repo-wide seeded substream discipline.

Every stochastic operation derives an independent random stream from
(master seed, context indices) via :func:`substream`; nothing touches global
RNG state. Replication j of a bootstrap always reads stream
``substream(seed, domain, j)``, so results do not depend on execution order
or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import _choice, _count

MULTIPLIERS = ("normal", "rademacher", "mammen")

# Domain tags keep substreams of unrelated consumers disjoint under one seed.
AVR_DOMAIN = 1
GS_DOMAIN = 2
WINDOW_DOMAIN = 3
DGP_DOMAIN = 4

# Mammen's two-point law: golden-ratio support with mean 0, variance 1.
_SQRT5 = np.sqrt(5.0)
_MAMMEN_LOW = (1.0 - _SQRT5) / 2.0
_MAMMEN_HIGH = (1.0 + _SQRT5) / 2.0
_MAMMEN_P_LOW = (_SQRT5 + 1.0) / (2.0 * _SQRT5)


@dataclass(frozen=True)
class BootstrapConfig:
    """Wild-bootstrap settings: replication count, multiplier law, master seed."""

    n_boot: int = 500
    multiplier: str = "normal"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_boot", _count(self.n_boot, "n_boot", 1))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        _choice(self.multiplier, MULTIPLIERS, "multiplier")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given (seed, context indices) path."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for handing to a nested consumer."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def draw_multipliers(rng: np.random.Generator, law: str, size: int) -> np.ndarray:
    """One i.i.d. mean-0 variance-1 multiplier per observation."""
    if law == "normal":
        return rng.standard_normal(size)
    if law == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if law == "mammen":
        u = rng.random(size)
        return np.where(u < _MAMMEN_P_LOW, _MAMMEN_LOW, _MAMMEN_HIGH)
    _choice(law, MULTIPLIERS, "multiplier")  # raises: law is none of the above
