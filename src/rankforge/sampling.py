"""Training-instance construction: hard negatives from the first-stage ranking.

Localized contrastive estimation (LCE; Gao, Dai & Callan, ECIR 2021) draws
its negatives from the top of the first-stage ranking, and so do BCE stages:
this is the one sampler. Negatives are drawn through counter-based
substreams keyed by (seed, epoch, query_ordinal), so any instance of the
training stream can be reproduced without replaying earlier draws, and
per-epoch resampling is free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import ContrastiveInstance, Ranking
from .errors import DataError
from .rng import SplitMix64, substream

__all__ = ["SamplerConfig", "hard_pool", "sample_instance"]

_HARD_TAG = 0x48415244  # "HARD"


@dataclass(frozen=True)
class SamplerConfig:
    negatives: int = 99
    pool_depth: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.pool_depth < self.negatives:
            raise ValueError(
                f"pool depth {self.pool_depth} smaller than negative count {self.negatives}"
            )


def hard_pool(ranking: Ranking, config: SamplerConfig) -> list[str]:
    """The ranked docs hard negatives are drawn from: the top pool_depth."""
    return list(ranking.ids[: config.pool_depth])


def sample_instance(
    ranking: Ranking,
    positive_id: str,
    config: SamplerConfig,
    query_ordinal: int,
    epoch: int,
) -> ContrastiveInstance:
    """Uniform h-subset of the top pool_depth ranked docs, excluding the positive.

    The sampled negatives are canonicalized to original rank order.
    """
    eligible = [d for d in hard_pool(ranking, config) if d != positive_id]
    h = config.negatives
    if len(eligible) < h:
        raise DataError(
            f"query {ranking.query_id}: only {len(eligible)} eligible negatives "
            f"in pool, need {h}"
        )
    rng = SplitMix64(substream(config.seed, _HARD_TAG, epoch, query_ordinal))
    chosen = sorted(rng.sample(range(len(eligible)), h))
    return ContrastiveInstance(ranking.query_id, positive_id, tuple(eligible[i] for i in chosen))
