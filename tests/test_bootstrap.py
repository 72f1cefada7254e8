import math
import tracemalloc

import numpy as np
import pytest

from mdhtest import (
    MULTIPLIERS,
    BootstrapConfig,
    derive_seed,
    draw_multipliers,
    substream,
)
from mdhtest.bootstrap import _KEY_BLOCK, _substreams


class TestBootstrapConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.n_boot == 500
        assert cfg.multiplier == "normal"
        assert cfg.seed == 0

    def test_rejects_nonpositive_n_boot(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_boot"):
                BootstrapConfig(n_boot=bad)

    def test_n_boot_reaches_two_to_the_32(self):
        # the upper bound is accepted (tests/test_arguments.py refuses 2^32 + 1);
        # every replication key j < n_boot is one 32-bit word
        assert BootstrapConfig(n_boot=2**32).n_boot == 2**32

    def test_rejects_unknown_multiplier(self):
        with pytest.raises(ValueError, match="multiplier"):
            BootstrapConfig(multiplier="uniform")


class TestSubstreams:
    def test_same_path_reproduces(self):
        a = substream(42, 1, 7).standard_normal(16)
        b = substream(42, 1, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = substream(42, 1, 7).standard_normal(16)
        b = substream(42, 1, 8).standard_normal(16)
        c = substream(42, 2, 7).standard_normal(16)
        d = substream(43, 1, 7).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_bulk_streams_match_substream_draw_for_draw(self):
        # 32 (seed, domain) pairs x 3 200 keys, crossing a hash block three
        # times; laws rotate by pair
        seeds = [0, 1, 2**32 - 1, 2**32, 2**32 + 17, 2**64 - 1, 2**64, 2**130 + 5]
        n = 3200
        assert n > 3 * _KEY_BLOCK
        keys = mismatched = 0
        for s, seed in enumerate(seeds):
            for domain in (1, 2, 3, 4):
                law = MULTIPLIERS[(s + domain) % 3]
                got = [
                    draw_multipliers(rng, law, 6)
                    for rng in _substreams(seed, domain, n)
                ]
                want = [
                    draw_multipliers(substream(seed, domain, j), law, 6)
                    for j in range(n)
                ]
                keys += len(want)
                mismatched += sum(
                    not np.array_equal(g, w) for g, w in zip(got, want, strict=True)
                )
        assert keys >= 100_000
        assert mismatched == 0

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_bulk_streams_yield_exactly_n(self, n):
        # an empty count yields nothing; the others end on either side of a block
        got = [rng.random(2) for rng in _substreams(5, 3, n)]
        assert len(got) == n
        want = [substream(5, 3, j).random(2) for j in range(n)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_bulk_streams_bounded_memory(self):
        # hashing 2e5 keys at once would hold tens of MB of states
        tracemalloc.start()
        try:
            n = sum(1 for _ in _substreams(9, 1, 200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 200_000
        assert peak < 2 * 2**20

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = [derive_seed(9, 3, w) for w in range(64)]
        assert seeds == [derive_seed(9, 3, w) for w in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**64 for s in seeds)


class TestMultipliers:
    def test_rademacher_support(self):
        eta = draw_multipliers(substream(0, 1), "rademacher", 5000)
        assert set(np.unique(eta)) == {-1.0, 1.0}

    def test_mammen_support_and_probability(self):
        eta = draw_multipliers(substream(0, 2), "mammen", 200_000)
        lo = (1.0 - math.sqrt(5.0)) / 2.0
        hi = (1.0 + math.sqrt(5.0)) / 2.0
        points = np.unique(eta)
        assert points == pytest.approx([lo, hi], rel=1e-15)
        p_lo = np.mean(eta == points[0])
        assert p_lo == pytest.approx((math.sqrt(5.0) + 1.0) / (2.0 * math.sqrt(5.0)), abs=0.005)

    @pytest.mark.parametrize("law", MULTIPLIERS)
    def test_mean_zero_variance_one(self, law):
        eta = draw_multipliers(substream(7, 3), law, 200_000)
        assert abs(eta.mean()) < 0.01
        assert eta.var() == pytest.approx(1.0, abs=0.02)

    def test_mammen_third_moment_is_one(self):
        # the property the law was constructed for
        eta = draw_multipliers(substream(7, 4), "mammen", 200_000)
        assert (eta**3).mean() == pytest.approx(1.0, abs=0.03)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="multiplier"):
            draw_multipliers(substream(0, 0), "bad", 4)
