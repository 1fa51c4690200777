"""Hard negative sampling: exclusion, canonical order, determinism, uniformity."""

import math

import pytest

from rankforge.data import ContrastiveInstance, Ranking
from rankforge.errors import DataError
from rankforge.rng import SplitMix64, substream
from rankforge.sampling import SamplerConfig, hard_pool, sample_instance


def _ranking(n: int = 10) -> Ranking:
    return Ranking.from_scores("q1", [(f"d{i}", float(n - i)) for i in range(n)])


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


class TestSampleHard:
    CFG = SamplerConfig(negatives=3, pool_depth=8, seed=5)

    def test_excludes_positive_and_stays_in_pool(self):
        ranking = _ranking(10)
        inst = sample_instance(ranking, "d2", self.CFG, query_ordinal=0, epoch=0)
        assert inst.query_id == "q1"
        assert inst.positive_id == "d2"
        assert len(inst.negatives) == 3
        assert "d2" not in inst.negatives
        pool = set(ranking.doc_ids()[:8])
        assert set(inst.negatives) <= pool

    def test_no_duplicates(self):
        for epoch in range(20):
            inst = sample_instance(_ranking(10), "d0", self.CFG, 1, epoch)
            assert len(set(inst.negatives)) == len(inst.negatives)

    def test_deterministic(self):
        a = sample_instance(_ranking(), "d0", self.CFG, 3, 2)
        b = sample_instance(_ranking(), "d0", self.CFG, 3, 2)
        assert a == b

    def test_epoch_and_ordinal_matter(self):
        cfg = SamplerConfig(negatives=4, pool_depth=50, seed=5)
        ranking = _ranking(50)
        base = sample_instance(ranking, "d0", cfg, 0, 0)
        assert sample_instance(ranking, "d0", cfg, 0, 1) != base
        assert sample_instance(ranking, "d0", cfg, 1, 0) != base

    def test_exhaustive_draw_is_rank_ordered(self):
        # h equals the whole eligible pool, so the sample is forced; the
        # canonicalization then produces exactly the original rank order
        cfg = SamplerConfig(negatives=7, pool_depth=8, seed=1)
        inst = sample_instance(_ranking(10), "d3", cfg, 0, 0)
        assert inst.negatives == ("d0", "d1", "d2", "d4", "d5", "d6", "d7")

    def test_negatives_canonicalized_to_rank_order(self):
        ranking = _ranking(30)
        ranks = {d: i for i, d in enumerate(ranking.doc_ids())}
        cfg = SamplerConfig(negatives=5, pool_depth=30, seed=9)
        for epoch in range(10):
            inst = sample_instance(ranking, "d0", cfg, 0, epoch)
            positions = [ranks[d] for d in inst.negatives]
            assert positions == sorted(positions)

    def test_pool_too_small(self):
        cfg = SamplerConfig(negatives=5, pool_depth=5, seed=0)
        with pytest.raises(DataError, match="q1"):
            sample_instance(_ranking(5), "d0", cfg, 0, 0)  # 4 eligible, need 5

    def test_positive_outside_pool_is_fine(self):
        # d9 ranks below the pool cutoff; all 5 pooled docs are eligible
        cfg = SamplerConfig(negatives=5, pool_depth=5, seed=0)
        inst = sample_instance(_ranking(10), "d9", cfg, 0, 0)
        assert inst.negatives == ("d0", "d1", "d2", "d3", "d4")

    def test_single_draw_is_uniform(self):
        # one negative from four eligible docs, resampled across epochs:
        # each doc should land near 10000/4 (3 sigma of a binomial)
        cfg = SamplerConfig(negatives=1, pool_depth=5, seed=123)
        ranking = _ranking(5)
        counts = {f"d{i}": 0 for i in range(1, 5)}
        n = 10_000
        for epoch in range(n):
            inst = sample_instance(ranking, "d0", cfg, 0, epoch)
            counts[inst.negatives[0]] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        for doc, c in counts.items():
            assert abs(c - n / 4) < 3 * sigma, (doc, c)


def _dict_ordered_draw(ranking, positive_id, config, query_ordinal, epoch):
    """Reference draw: sample the eligible ids themselves, then restore
    their rank order through a doc -> position dict."""
    eligible = [d for d in hard_pool(ranking, config) if d != positive_id]
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
            assert sample_instance(ranking, positive, cfg, ordinal, epoch) == (
                _dict_ordered_draw(ranking, positive, cfg, ordinal, epoch)
            )
