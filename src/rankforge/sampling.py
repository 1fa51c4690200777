"""Training-instance construction: hard negatives from the first-stage ranking.

Localized contrastive estimation (LCE; Gao, Dai & Callan, ECIR 2021) draws
its negatives from the top of the first-stage ranking, and so do BCE stages:
this is the one sampler. `hard_pool` defines what a query's group may
draw; training builds it once per query and stage. Negatives are drawn
through counter-based substreams keyed by (seed, epoch, query_ordinal),
so any instance of the training stream can be reproduced without
replaying earlier draws, and per-epoch resampling is free.

The draws of many instances from pools of one length are independent, so
`sample_positions` makes them all in one numpy pass: each row's substream
and splitmix64 counters are uint64 arrays, and each partial Fisher-Yates
position redraws, by masked rejection, only the rows it rejected. A row
holds the same positions as `SplitMix64(substream(seed, _HARD_TAG, epoch,
ordinal)).sample(range(n), h)`, sorted; `sample_instance` is its one-row
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ContrastiveInstance, Ranking
from .rng import _GOLDEN, mix64_array, substream

__all__ = ["SamplerConfig", "hard_pool", "sample_instance", "sample_positions"]

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


def sample_positions(
    config: SamplerConfig, n: int, epochs: Sequence[int], ordinals: Sequence[int]
) -> np.ndarray:
    """The (len(epochs), negatives) positions in a pool of n docs that the
    draws keyed (epochs[r], ordinals[r]) choose, each row ascending.

    Keys are non-negative and below 2^64. The uint64 arithmetic runs on
    arrays only, which wrap mod 2^64 as the scalar masks do.
    """
    h = config.negatives
    if h > n:
        raise ValueError(f"cannot sample {h} from {n} items")
    golden = np.uint64(_GOLDEN)
    base = np.full(1, substream(config.seed, _HARD_TAG), dtype=np.uint64)
    state = mix64_array(base ^ np.asarray(epochs, dtype=np.uint64) * golden)
    state = mix64_array(state ^ np.asarray(ordinals, dtype=np.uint64) * golden)
    rows = np.arange(state.size)
    perm = np.broadcast_to(np.arange(n, dtype=np.int32), (state.size, n)).copy()
    v = np.empty_like(state)
    for i in range(h):
        # below(n - i): masked rejection, one pass per round of rejects
        m = n - i
        mask = np.uint64((1 << m.bit_length()) - 1)
        pending = rows
        while pending.size:
            state[pending] += golden
            v[pending] = mix64_array(state[pending]) & mask
            pending = pending[v[pending] >= m]
        j = v.astype(np.intp) + i
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    return np.sort(perm[:, :h], axis=1)


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
    chosen = sample_positions(config, len(pool), [epoch], [query_ordinal])[0]
    return ContrastiveInstance(query_id, positive_id, tuple(pool[i] for i in chosen))
