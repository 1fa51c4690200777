"""Training-instance construction: hard and random negative sampling.

Negatives are drawn through counter-based substreams keyed by
(seed, epoch, query_ordinal), so any instance of the training stream can be
reproduced without replaying earlier draws, and per-epoch resampling is free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import ContrastiveInstance, Corpus, Ranking
from .errors import DataError
from .rng import SplitMix64, substream

__all__ = ["SamplerConfig", "hard_pool", "sample_hard", "sample_random", "sample_instance"]

_HARD_TAG = 0x48415244  # "HARD"
_RAND_TAG = 0x524E444D  # "RNDM"


@dataclass(frozen=True)
class SamplerConfig:
    negatives: int = 99
    pool_depth: int = 200
    policy: str = "hard"
    seed: int = 0

    def __post_init__(self):
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.policy == "hard" and self.pool_depth < self.negatives:
            raise ValueError(
                f"pool depth {self.pool_depth} smaller than negative count {self.negatives}"
            )
        if self.policy not in ("hard", "random"):
            raise ValueError(f"unknown sampling policy {self.policy!r}")


def hard_pool(ranking: Ranking, config: SamplerConfig) -> list[str]:
    """The ranked docs hard negatives are drawn from: the top pool_depth."""
    return ranking.doc_ids()[: config.pool_depth]


def sample_hard(
    ranking: Ranking,
    positive_id: str,
    config: SamplerConfig,
    query_ordinal: int,
    epoch: int,
) -> ContrastiveInstance:
    """Uniform h-subset of the top pool_depth ranked docs, excluding the positive.

    The sampled negatives are canonicalized to original rank order.
    """
    if config.policy != "hard":
        raise ValueError(f"sample_hard called with policy {config.policy!r}")
    eligible = [d for d in hard_pool(ranking, config) if d != positive_id]
    h = config.negatives
    if len(eligible) < h:
        raise DataError(
            f"query {ranking.query_id}: only {len(eligible)} eligible negatives "
            f"in pool, need {h}"
        )
    rng = SplitMix64(substream(config.seed, _HARD_TAG, epoch, query_ordinal))
    order = {d: i for i, d in enumerate(eligible)}
    chosen = sorted(rng.sample(eligible, h), key=order.__getitem__)
    return ContrastiveInstance(ranking.query_id, positive_id, tuple(chosen))


def sample_random(
    corpus: Corpus,
    query_id: str,
    positive_id: str,
    config: SamplerConfig,
    query_ordinal: int,
    epoch: int,
) -> ContrastiveInstance:
    """Uniform h-subset of all corpus ids excluding the positive (NCE-style)."""
    if config.policy != "random":
        raise ValueError(f"sample_random called with policy {config.policy!r}")
    h = config.negatives
    if corpus.size <= h:
        raise DataError(
            f"query {query_id}: corpus of {corpus.size} docs too small for {h} negatives"
        )
    eligible = [doc.id for doc in corpus if doc.id != positive_id]
    rng = SplitMix64(substream(config.seed, _RAND_TAG, epoch, query_ordinal))
    order = {d: i for i, d in enumerate(eligible)}
    chosen = sorted(rng.sample(eligible, h), key=order.__getitem__)
    return ContrastiveInstance(query_id, positive_id, tuple(chosen))


def sample_instance(
    config: SamplerConfig,
    query_id: str,
    positive_id: str,
    query_ordinal: int,
    epoch: int,
    ranking: Ranking | None = None,
    corpus: Corpus | None = None,
) -> ContrastiveInstance:
    """Policy dispatch used by the training loop."""
    if config.policy == "hard":
        if ranking is None:
            raise DataError(f"query {query_id}: no first-stage ranking for hard sampling")
        return sample_hard(ranking, positive_id, config, query_ordinal, epoch)
    if corpus is None:
        raise DataError(f"query {query_id}: no corpus for random sampling")
    return sample_random(corpus, query_id, positive_id, config, query_ordinal, epoch)
