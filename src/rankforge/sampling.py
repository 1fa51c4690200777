"""Training-instance construction: hard negatives from the first-stage ranking.

Localized contrastive estimation (LCE; Gao, Dai & Callan, ECIR 2021) draws
its negatives from the top of the first-stage ranking, and so do BCE stages:
this is the one sampler. `hard_pool` defines what a query's group may
draw; training builds it once per query and stage. Negatives are drawn
through counter-based substreams keyed by (seed, epoch, query_ordinal),
so any instance of the training stream can be reproduced without
replaying earlier draws, and per-epoch resampling is free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import ContrastiveInstance, Ranking
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


def hard_pool(ranking: Ranking, positive_id: str, config: SamplerConfig) -> list[str]:
    """The negatives a group may draw: the top pool_depth ranked docs other
    than the positive, in rank order."""
    return [d for d in ranking.ids[: config.pool_depth] if d != positive_id]


def sample_instance(
    query_id: str,
    positive_id: str,
    pool: list[str],
    config: SamplerConfig,
    query_ordinal: int,
    epoch: int,
) -> ContrastiveInstance:
    """Uniform h-subset of a `hard_pool`, which must hold at least h docs.

    The sampled negatives are canonicalized to pool (rank) order.
    """
    rng = SplitMix64(substream(config.seed, _HARD_TAG, epoch, query_ordinal))
    chosen = sorted(rng.sample(range(len(pool)), config.negatives))
    return ContrastiveInstance(query_id, positive_id, tuple(pool[i] for i in chosen))
