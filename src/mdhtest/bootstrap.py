"""Bootstrap configuration and the repo-wide seeded substream discipline.

Every stochastic operation derives an independent random stream from
(master seed, context indices) via :func:`substream`; nothing touches global
RNG state. Replication j of a bootstrap always reads stream
``substream(seed, domain, j)``, so results do not depend on execution order
or worker count. A test takes its replications' streams from
:func:`_substreams`, which derives the same streams in bulk.
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

# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's multiplier.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# Keys hashed per block by _substreams: memory stays flat in the key count.
_KEY_BLOCK = 1024


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


def _words(n: int) -> list:
    """``n`` as 32-bit words, least significant first; [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's ``mix`` of two words (ints or uint32 arrays)."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix``: hash constant ``const``, times ``mult`` per call.

    The constant steps the same way whatever the value hashed is, so one
    hasher serves ints and uint32 arrays alike.
    """

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_pool(entropy: list) -> list:
    """SeedSequence's pool for entropy words that are ints or uint32 arrays.

    numpy's ``mix_entropy`` with pool size 4. One pass hashes every key
    whose words are array elements, and constant words stay Python ints.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _pcg_states(pool: list) -> list:
    """PCG64 (state, inc) per key of a pool, as ``PCG64(SeedSequence)`` seeds.

    ``generate_state(4, uint64)`` on each key's pool, then PCG64's
    ``srandom``: inc = 2 initseq + 1, state = (inc + initstate) mult + inc
    mod 2^128.
    """
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL]) for i in range(2 * _POOL)]
    words = np.stack(halves, axis=1).astype("<u4").view("<u8").tolist()
    out = []
    for hi_state, lo_state, hi_seq, lo_seq in words:
        inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _MASK128
        state = ((hi_state << 64 | lo_state) + inc) * _PCG_MULT + inc
        out.append((state & _MASK128, inc))
    return out


def _substreams(seed: int, domain: int, start: int, stop: int):
    """Generators bit-identical to ``substream(seed, domain, j)``, j in [start, stop).

    The keys are hashed ``_KEY_BLOCK`` at a time as uint32 arrays, and each
    yielded generator is one reused ``Generator`` set to key j's state, so
    it is valid only until the next one is taken.
    """
    # with a spawn key, SeedSequence pads the seed's words to the pool size
    prefix = _words(seed)
    prefix += [0] * (_POOL - len(prefix)) + _words(domain)
    rng = np.random.default_rng(0)
    j = start
    while j < stop:
        # every key of a block shares j's words above the lowest
        high = j >> 32
        n = min(stop, j + _KEY_BLOCK, (high + 1) << 32) - j
        low = np.arange(j & _MASK32, (j & _MASK32) + n, dtype=np.uint32)
        entropy = prefix + [low] + _words(j)[1:]
        # scoped to the hash: the caller's draws between yields keep its own
        with np.errstate(over="ignore"):
            states = _pcg_states(_seed_pool(entropy))
        for state, inc in states:
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
        j += n


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
