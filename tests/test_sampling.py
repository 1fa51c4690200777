"""Hard negative sampling: exclusion, canonical order, determinism, uniformity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankforge.data import ContrastiveInstance, Query, Ranking
from rankforge.errors import DataError
from rankforge.rng import SplitMix64, substream
from rankforge.sampling import (
    _HARD_TAG,
    SamplerConfig,
    sample_instance,
    sample_positions,
)
from rankforge.training import QueryExample, StageConfig, stage_pool


def _ranking(n: int = 10) -> Ranking:
    return Ranking("q1", [f"d{i}" for i in range(n)], [float(n - i) for i in range(n)])


def _hard_pool(ranking, positive_id, config):
    """The negatives `stage_pool` gives an lce stage of this sampler when
    positive_id is the query's only judged doc."""
    example = QueryExample(Query(ranking.query_id, "text"), {positive_id: 1}, ranking)
    return stage_pool(example, StageConfig("lce", 1e-3, 1, sampler=config))[1:]


def _sample(ranking, positive_id, config, query_ordinal, epoch):
    """One draw from the ranking's hard pool, as a training step makes it."""
    pool = _hard_pool(ranking, positive_id, config)
    return sample_instance(ranking.query_id, positive_id, pool, config, query_ordinal, epoch)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.negatives == 99
        assert cfg.pool_depth == 200

    def test_negatives_positive(self):
        with pytest.raises(ValueError, match="negatives"):
            SamplerConfig(negatives=0)

    def test_pool_must_cover_negatives(self):
        with pytest.raises(ValueError, match="pool depth"):
            SamplerConfig(negatives=10, pool_depth=5)


class TestHardPool:
    @pytest.mark.parametrize("depth, positive, pool", [
        (10, "d2", ["d0", "d1", "d3", "d4"]),
        (10, "d7", ["d0", "d1", "d2", "d3", "d4"]),
        (3, "d0", ["d1", "d2"]),
    ], ids=["positive-inside", "positive-outside", "short-ranking"])
    def test_top_depth_without_the_positive(self, depth, positive, pool):
        cfg = SamplerConfig(negatives=2, pool_depth=5)
        assert _hard_pool(_ranking(depth), positive, cfg) == pool


class TestSampleHard:
    CFG = SamplerConfig(negatives=3, pool_depth=8, seed=5)

    def test_excludes_positive_and_stays_in_pool(self):
        ranking = _ranking(10)
        inst = _sample(ranking, "d2", self.CFG, query_ordinal=0, epoch=0)
        assert inst.query_id == "q1"
        assert inst.positive_id == "d2"
        assert len(inst.negatives) == 3
        assert "d2" not in inst.negatives
        pool = set(ranking.ids[:8])
        assert set(inst.negatives) <= pool

    def test_no_duplicates(self):
        for epoch in range(20):
            inst = _sample(_ranking(10), "d0", self.CFG, 1, epoch)
            assert len(set(inst.negatives)) == len(inst.negatives)

    def test_deterministic(self):
        a = _sample(_ranking(), "d0", self.CFG, 3, 2)
        b = _sample(_ranking(), "d0", self.CFG, 3, 2)
        assert a == b

    def test_epoch_and_ordinal_matter(self):
        cfg = SamplerConfig(negatives=4, pool_depth=50, seed=5)
        ranking = _ranking(50)
        base = _sample(ranking, "d0", cfg, 0, 0)
        assert _sample(ranking, "d0", cfg, 0, 1) != base
        assert _sample(ranking, "d0", cfg, 1, 0) != base

    def test_exhaustive_draw_is_rank_ordered(self):
        # h equals the whole eligible pool, so the sample is forced; the
        # canonicalization then produces exactly the original rank order
        cfg = SamplerConfig(negatives=7, pool_depth=8, seed=1)
        inst = _sample(_ranking(10), "d3", cfg, 0, 0)
        assert inst.negatives == ("d0", "d1", "d2", "d4", "d5", "d6", "d7")

    def test_negatives_canonicalized_to_rank_order(self):
        ranking = _ranking(30)
        ranks = {d: i for i, d in enumerate(ranking.ids)}
        cfg = SamplerConfig(negatives=5, pool_depth=30, seed=9)
        for epoch in range(10):
            inst = _sample(ranking, "d0", cfg, 0, epoch)
            positions = [ranks[d] for d in inst.negatives]
            assert positions == sorted(positions)

    def test_pool_too_small(self):
        cfg = SamplerConfig(negatives=5, pool_depth=5, seed=0)
        stage = StageConfig("lce", 1e-3, 1, sampler=cfg)
        example = QueryExample(Query("q1", "text"), {"d0": 1}, _ranking(5))
        with pytest.raises(DataError, match="q1: only 4 eligible negatives in pool, need 5"):
            stage_pool(example, stage)

    def test_positive_outside_pool_is_fine(self):
        # d9 ranks below the pool cutoff; all 5 pooled docs are eligible
        cfg = SamplerConfig(negatives=5, pool_depth=5, seed=0)
        inst = _sample(_ranking(10), "d9", cfg, 0, 0)
        assert inst.negatives == ("d0", "d1", "d2", "d3", "d4")

    def test_single_draw_is_uniform(self):
        # one negative from four eligible docs, resampled across epochs:
        # each doc should land near 10000/4 (3 sigma of a binomial)
        cfg = SamplerConfig(negatives=1, pool_depth=5, seed=123)
        ranking = _ranking(5)
        counts = {f"d{i}": 0 for i in range(1, 5)}
        n = 10_000
        for epoch in range(n):
            inst = _sample(ranking, "d0", cfg, 0, epoch)
            counts[inst.negatives[0]] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        for doc, c in counts.items():
            assert abs(c - n / 4) < 3 * sigma, (doc, c)


def _dict_ordered_draw(ranking, positive_id, config, query_ordinal, epoch):
    """Reference draw: sample the eligible ids themselves, then restore
    their rank order through a doc -> position dict."""
    eligible = [d for d in ranking.ids[: config.pool_depth] if d != positive_id]
    rng = SplitMix64(substream(config.seed, 0x48415244, epoch, query_ordinal))
    order = {d: i for i, d in enumerate(eligible)}
    chosen = sorted(rng.sample(eligible, config.negatives), key=order.__getitem__)
    return ContrastiveInstance(ranking.query_id, positive_id, tuple(chosen))


class TestPositionDraw:
    @pytest.mark.parametrize("positive", ["d3", "d45"], ids=["inside", "outside"])
    def test_bit_identical_to_dict_ordered_draw(self, positive):
        ranking = _ranking(50)
        cfg = SamplerConfig(negatives=12, pool_depth=30, seed=77)
        pairs = [(ordinal, epoch) for ordinal in range(20) for epoch in range(10)]
        for ordinal, epoch in pairs:
            assert _sample(ranking, positive, cfg, ordinal, epoch) == (
                _dict_ordered_draw(ranking, positive, cfg, ordinal, epoch)
            )


_KEYS = st.one_of(st.integers(0, 40), st.integers(2**32, 2**64 - 1))


@st.composite
def _block_draws(draw):
    """A pool length n (often 2^k + 1, where half the masked draws are
    rejected), a draw size h in 1..n, a seed and some (epoch, ordinal) keys."""
    n = draw(st.one_of(st.integers(1, 70), st.sampled_from([2**k + 1 for k in range(1, 8)])))
    h = draw(st.one_of(st.just(n), st.just(1), st.integers(1, n)))
    seed = draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    keys = draw(st.lists(st.tuples(_KEYS, _KEYS), min_size=1, max_size=6))
    return n, h, seed, keys


class TestSamplePositions:
    @given(_block_draws())
    @example((5, 5, 0, [(0, 0), (2**32, 2**64 - 1)]))
    @example((65, 1, 2**64 - 1, [(2**40, 3), (7, 2**33)]))
    @example((129, 20, 2**64 - 1, [(2**64 - 1, 2**64 - 1)] * 2))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_scalar_draws(self, drawn):
        n, h, seed, keys = drawn
        config = SamplerConfig(negatives=h, pool_depth=h, seed=seed)
        epochs, ordinals = zip(*keys)
        want = [sorted(SplitMix64(substream(seed, _HARD_TAG, e, o)).sample(range(n), h))
                for e, o in keys]
        got = sample_positions(config, n, epochs, ordinals)
        assert got.shape == (len(keys), h)
        assert got.tolist() == want

    def test_uint64_key_arrays(self):
        config = SamplerConfig(negatives=3, pool_depth=3, seed=11)
        epochs = np.array([0, 1, 2**63], dtype=np.uint64)
        ordinals = np.array([2**64 - 1, 5, 2**32], dtype=np.uint64)
        got = sample_positions(config, 9, epochs, ordinals)
        for row, e, o in zip(got.tolist(), epochs.tolist(), ordinals.tolist()):
            assert row == sorted(SplitMix64(substream(11, _HARD_TAG, e, o)).sample(range(9), 3))

    def test_no_rows(self):
        config = SamplerConfig(negatives=2, pool_depth=2)
        assert sample_positions(config, 4, [], []).shape == (0, 2)

    def test_pool_shorter_than_draw(self):
        with pytest.raises(ValueError, match="cannot sample 3 from 2"):
            sample_positions(SamplerConfig(negatives=3, pool_depth=3), 2, [0], [0])
