"""Deterministic stream generator: reference vectors and sampling properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankforge.rng import (
    SplitMix64,
    box_muller,
    mix64,
    mix64_array,
    state_below,
    state_sample,
    state_uniforms,
    substream,
    substreams,
)

_GOLDEN = 0x9E3779B97F4A7C15
# seeds 0, 1 and 2^64 - 1, and a state three steps below the 2^64 wrap, so
# a block of more than three draws wraps inside the block
EDGE_SEEDS = [0, 1, 2**64 - 1, (-3 * _GOLDEN) % 2**64]


class TestKnownVectors:
    def test_seed_zero_sequence(self):
        """First outputs for seed 0 match the published splitmix64 vectors."""
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_mix64_is_bijective_on_samples(self):
        seen = {mix64(i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_mix64_masks_to_64_bits(self):
        assert mix64(1 << 100) == mix64(0)
        assert 0 <= mix64(2**64 - 1) < 2**64


class TestSubstream:
    def test_deterministic(self):
        assert substream(42, 1, 2, 3) == substream(42, 1, 2, 3)

    def test_key_order_matters(self):
        assert substream(42, 1, 2) != substream(42, 2, 1)

    def test_distinct_keys_distinct_streams(self):
        seeds = {substream(7, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_no_key_collision_with_zero_key(self):
        # (seed,) and (seed, 0) must not alias: key 0 still folds through mix64
        assert substream(5) != substream(5, 0)


class TestDraws:
    def test_uniform_range(self):
        rng = SplitMix64(1)
        xs = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.02

    def test_below_bounds_and_rejection(self):
        rng = SplitMix64(2)
        for n in (1, 2, 3, 7, 100):
            assert all(0 <= rng.below(n) < n for _ in range(200))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_below_unbiased_small_n(self):
        rng = SplitMix64(3)
        counts = [0, 0, 0]
        for _ in range(30_000):
            counts[rng.below(3)] += 1
        # 5 sigma band around 10_000 for a binomial(30000, 1/3)
        for c in counts:
            assert abs(c - 10_000) < 5 * math.sqrt(30_000 * (1 / 3) * (2 / 3))

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(4)
        items = list(range(50))
        rng.shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))

    def test_sample_without_replacement(self):
        rng = SplitMix64(5)
        got = rng.sample(list(range(20)), 8)
        assert len(got) == 8
        assert len(set(got)) == 8
        assert set(got) <= set(range(20))

    def test_sample_too_many_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(0).sample([1, 2], 3)

    def test_gauss_moments(self):
        rng = SplitMix64(6)
        xs = [box_muller(rng.uniform(), rng.uniform()) for _ in range(20_000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert abs(mean) < 0.03
        assert abs(var - 1.0) < 0.05

    def test_streams_reproducible(self):
        a = SplitMix64(substream(9, 1))
        b = SplitMix64(substream(9, 1))
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


class TestBlockDraws:
    """Block draws equal the scalar draws they replace, bit for bit."""

    def test_mix64_array_matches_scalar(self):
        edges = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**53, 2**63 - 1, 2**63,
                 2**64 - 2, 2**64 - 1, _GOLDEN, (-_GOLDEN) % 2**64]
        got = mix64_array(np.array(edges, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(z) for z in edges]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 10_000])
    def test_uniforms_match_scalar_draws(self, seed, n):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got = block.uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == [scalar.uniform() for _ in range(n)]
        assert block.next_u64() == scalar.next_u64()

    def test_block_uniforms_match_scalar_draws(self):
        counts = [0, 1, 10_000, 3, 0, 7]
        seeds = [*EDGE_SEEDS, substream(7, 1), 12345]
        state = np.array(seeds, dtype=np.uint64)
        scalar = [SplitMix64(s) for s in seeds]
        got = state_uniforms(state, counts)
        want = [rng.uniform() for rng, c in zip(scalar, counts) for _ in range(c)]
        assert got.tolist() == want
        assert [SplitMix64(int(s)).next_u64() for s in state] == [r.next_u64() for r in scalar]

    def test_block_uniforms_no_generators(self):
        got = state_uniforms(np.empty(0, dtype=np.uint64), [])
        assert got.shape == (0,) and got.dtype == np.float64

    def test_block_uniforms_rejects_bad_counts(self):
        state = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError):
            state_uniforms(state, [3])
        with pytest.raises(ValueError):
            state_uniforms(state, [3, -1])

    def test_gauss_is_box_muller_of_two_uniforms(self):
        # deviates drawn one at a time equal those from one block's pairs
        a, b = SplitMix64(11), SplitMix64(11)
        u = b.uniforms(2000).tolist()
        assert [box_muller(a.uniform(), a.uniform()) for _ in range(1000)] == [
            box_muller(u1, u2) for u1, u2 in zip(u[0::2], u[1::2])
        ]
        assert math.isfinite(box_muller(0.0, 0.5))


_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
# bounds at 2^k + 1 reject about half their masked draws, at 2^k - 1 almost
# none; below() takes bounds up to 2^63
_BOUNDS = st.one_of(
    st.integers(1, 70),
    st.sampled_from([2**k + d for k in range(1, 63) for d in (-1, 1)] + [2**63 - 1, 2**63]),
)
_POOLS = st.one_of(st.integers(0, 70), st.sampled_from([2**k + d for k in range(1, 8)
                                                        for d in (-1, 1)]))


def _next_outputs(states) -> list[int]:
    """The next output of a generator in each state: equal outputs mean
    equal states."""
    return [SplitMix64(s).next_u64() for s in np.asarray(states).tolist()]


@st.composite
def _sample_draws(draw):
    """A pool length n, some seeds and a draw size k in 0..n: one for every
    row, or one per row (often 1 or n)."""
    n = draw(_POOLS)
    seeds = draw(st.lists(_SEEDS, max_size=8))
    sizes = st.one_of(st.just(n), st.just(min(1, n)), st.integers(0, n))
    k = draw(st.one_of(sizes, st.lists(sizes, min_size=len(seeds), max_size=len(seeds))))
    return n, seeds, k


class TestStateDraws:
    """The array-state draws equal the scalar generator's, draw for draw, and
    leave every row's state where the scalar generator ends."""

    def test_substreams_match_scalar(self):
        keys = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        for seed in (0, 2**64 - 1):
            got = substreams(seed, 7, keys, keys[::-1])
            want = [substream(seed, 7, a, b) for a, b in zip(keys.tolist(), keys[::-1].tolist())]
            assert got.tolist() == want
            assert substreams(seed, 7).tolist() == [substream(seed, 7)]

    @given(st.lists(_SEEDS, max_size=8), _BOUNDS)
    @example([0, 2**64 - 1], 2**63)
    @example([0, 2**64 - 1, 5], 3)
    @example([], 5)
    @settings(max_examples=150, deadline=None)
    def test_below_equals_scalar_draws(self, seeds, m):
        state = np.array(seeds, dtype=np.uint64)
        scalar = [SplitMix64(s) for s in seeds]
        got = state_below(state, m)
        assert got.dtype == np.int64
        assert got.tolist() == [rng.below(m) for rng in scalar]
        assert _next_outputs(state) == [rng.next_u64() for rng in scalar]

    @given(_sample_draws())
    @example((65, [0, 2**64 - 1], 65))
    @example((129, [2**64 - 1, 0, 3], [1, 129, 0]))
    @example((9, [0, 2**64 - 1], [2, 9]))
    @example((3, [], 2))
    @example((0, [1, 2], 0))
    @settings(max_examples=150, deadline=None)
    def test_sample_equals_scalar_draws(self, drawn):
        n, seeds, k = drawn
        sizes = k if isinstance(k, list) else [k] * len(seeds)
        state = np.array(seeds, dtype=np.uint64)
        scalar = [SplitMix64(s) for s in seeds]
        got = state_sample(state, n, k)
        assert got.shape == (len(seeds), max(sizes, default=0) if isinstance(k, list) else k)
        for row, rng, size in zip(got.tolist(), scalar, sizes):
            assert row[:size] == rng.sample(range(n), size)
        assert _next_outputs(state) == [rng.next_u64() for rng in scalar]

    def test_zero_rows(self):
        empty = np.zeros(0, dtype=np.uint64)
        assert state_below(empty, 7).shape == (0,)
        assert state_sample(empty, 5, 3).shape == (0, 3)
        assert state_sample(empty, 5, []).shape == (0, 0)

    def test_sample_more_than_the_pool_raises(self):
        state = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError, match="cannot sample 4 from 3 items"):
            state_sample(state, 3, 4)
        with pytest.raises(ValueError, match="cannot sample 4 from 3 items"):
            state_sample(state, 3, [1, 4])
        with pytest.raises(ValueError, match="negative"):
            state_sample(state, 3, [1, -1])
        assert state.tolist() == [1, 2]

    def test_below_bounds(self):
        state = np.array([1], dtype=np.uint64)
        for m in (0, -1, 2**63 + 1):
            with pytest.raises(ValueError, match="below"):
                state_below(state, m)
        assert state.tolist() == [1]
