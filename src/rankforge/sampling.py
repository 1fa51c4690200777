"""Training-instance construction: hard negatives from the first-stage ranking.

Localized contrastive estimation (LCE; Gao, Dai & Callan, ECIR 2021) draws
its negatives from the top of the first-stage ranking, and so do BCE stages:
this is the one sampler. `training.stage_pool` decides what a query's
group may draw (the positive, and a pool without the other documents
judged relevant), once per query and stage. Negatives are drawn through
counter-based substreams keyed by (seed, epoch, query_ordinal),
so any instance of the training stream can be reproduced without
replaying earlier draws, and per-epoch resampling is free.

The draws of many instances from pools of one length are independent, so
`sample_positions` makes them all in one numpy pass: `rng.state_sample`
over one substream per row. A row holds the same positions as
`SplitMix64(substream(seed, _HARD_TAG, epoch, ordinal)).sample(range(n),
h)`, sorted; `sample_instance` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ContrastiveInstance
from .rng import state_sample, substreams

__all__ = ["SamplerConfig", "sample_instance", "sample_positions"]

_HARD_TAG = 0x48415244  # "HARD"


@dataclass(frozen=True)
class SamplerConfig:
    negatives: int = 20
    pool_depth: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.pool_depth < self.negatives:
            raise ValueError(
                f"pool depth {self.pool_depth} smaller than negative count {self.negatives}"
            )


def sample_positions(
    config: SamplerConfig, n: int, epochs: Sequence[int], ordinals: Sequence[int]
) -> np.ndarray:
    """The (len(epochs), negatives) positions in a pool of n docs that the
    draws keyed (epochs[r], ordinals[r]) choose, each row ascending.

    Keys are non-negative and below 2^64.
    """
    state = substreams(config.seed, _HARD_TAG, epochs, ordinals)
    return np.sort(state_sample(state, n, config.negatives), axis=1)


def sample_instance(
    query_id: str,
    positive_id: str,
    pool: list[str],
    config: SamplerConfig,
    query_ordinal: int,
    epoch: int,
) -> ContrastiveInstance:
    """Uniform h-subset of a hard pool, the negatives of a
    `training.stage_pool`, which must hold at least h docs.

    The sampled negatives are canonicalized to pool (rank) order.
    """
    chosen = sample_positions(config, len(pool), [epoch], [query_ordinal])[0]
    return ContrastiveInstance(query_id, positive_id, tuple(pool[i] for i in chosen))
