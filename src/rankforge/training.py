"""AdamW optimization and single- or multi-stage fine-tuning.

One optimizer step consumes one query group: a sampled contrastive instance
(1 positive + h negatives) for LCE/BCE stages, which carry a sampler, or
the teacher's list (up to 20 docs) for RankNet stages, which carry none.
Queries are visited in a seeded shuffle, reshuffled every epoch. AdamW's
hyperparameters are fixed (beta1 0.9, beta2 0.999, eps 1e-8, weight decay
0.01); its state (step count and moments) is reset at stage boundaries;
parameters carry across.

Before its first step a stage decides every group. It builds each train
and validation query's `stage_pool` (every document the stage can group
with it: the teacher's head, or the positive its judgments give and the
hard pool; a query without one is not trainable) and asks the feature memo
for it once, which extracts it in one block; the stage keeps these
blocks. Its schedule holds each step's query (the epoch shuffles end to
end) and, for LCE/BCE stages, the rows of the step's group in that query's
block, drawn by `sampling.sample_positions` in one numpy pass per pool
length. A step gathers those rows. A row does not depend on the block it
was extracted in, and a block draw holds the positions the scalar draw
would, so no value changes. AdamW updates every parameter in place, in
scratch vectors held by the optimizer state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .data import Query, Ranking, TeacherRanking
from .errors import DataError
from .losses import LossOutput, bce, lce, ranknet
from .rng import SplitMix64, substream
from .sampling import SamplerConfig, sample_positions
from .sampling import sample_instance  # noqa: F401  (perfbench's trace wraps it here)
from .scorer import (
    ScorerConfig,
    ScorerParams,
    ScoringContext,
    backward_batch,
    init_params,
    score_batch,
)

__all__ = [
    "OptimizerState",
    "StageConfig",
    "TrainLog",
    "QueryExample",
    "adamw_step",
    "run_stage",
    "run_plan",
    "stage_pool",
    "split_train_val",
]

_SHUFFLE_TAG = 0x53485546
_SPLIT_TAG = 0x53504C54
_VAL_TAG = 0x56414C00

TEACHER_GROUP_CAP = 20  # forwards per distillation step

# AdamW's hyperparameters, the same for every stage
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_WEIGHT_DECAY = 0.01


class OptimizerState:
    """AdamW's step count `t` and its first and second moments `m` and `v`,
    flat vectors of the parameters' size that start at zero, plus two
    scratch vectors of that size that `adamw_step` computes in."""

    __slots__ = ("t", "m", "v", "scratch")

    def __init__(self, params: ScorerParams):
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def adamw_step(
    params: ScorerParams, grads: ScorerParams, state: OptimizerState, lr: float
) -> None:
    """One AdamW update with decoupled weight decay, in place on params and
    state.

    m <- b1 m + (1-b1) g ; v <- b2 v + (1-b2) g^2 ; bias-corrected m^, v^ ;
    w <- w - lr * ( m^ / (sqrt(v^) + eps) + wd * w ), elementwise on `flat`,
    one operation at a time in that order, into the state's scratch vectors.

    lr = 0 leaves parameters bit-identical while the moments still advance.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    g, m, v, w = grads.flat, state.m, state.v, params.flat
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient passed to adamw_step")

    state.t += 1
    a, b = state.scratch
    m *= _BETA1
    m += np.multiply(1.0 - _BETA1, g, out=a)
    v *= _BETA2
    np.multiply(g, g, out=a)
    v += np.multiply(1.0 - _BETA2, a, out=a)
    if lr != 0.0:
        m_hat = np.divide(m, 1.0 - _BETA1 ** state.t, out=a)
        v_hat = np.divide(v, 1.0 - _BETA2 ** state.t, out=b)
        step = np.divide(m_hat, np.add(np.sqrt(v_hat, out=b), _EPS, out=b), out=a)
        step += np.multiply(_WEIGHT_DECAY, w, out=b)
        w -= np.multiply(lr, step, out=a)


@dataclass(frozen=True)
class StageConfig:
    """One fine-tuning stage: objective, learning rate, and step budget."""

    loss: str  # "lce" | "ranknet" | "bce"
    lr: float
    max_steps: int
    val_interval: int = 500
    sampler: SamplerConfig | None = None  # LCE/BCE stages need one, ranknet takes none
    seed: int = 0

    def __post_init__(self):
        if self.loss not in ("lce", "ranknet", "bce"):
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if not (self.lr >= 0 and np.isfinite(self.lr)):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.val_interval < 1:
            raise ValueError(f"val_interval must be >= 1, got {self.val_interval}")
        if self.loss == "ranknet":
            if self.sampler is not None:
                raise ValueError("ranknet stage takes no sampler config")
        elif self.sampler is None:
            raise ValueError(f"{self.loss} stage needs a sampler config")


@dataclass
class TrainLog:
    """Per-step training losses, periodic validation losses, stage wall time."""

    losses: list[float] = field(default_factory=list)
    val: list[tuple[int, float]] = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class QueryExample:
    """Everything the training loop may need for one query; `judged` is
    its {doc_id: grade} judgments."""

    query: Query
    judged: Mapping[str, int] | None = None
    ranking: Ranking | None = None
    teacher: TeacherRanking | None = None


def stage_pool(example: QueryExample, stage: StageConfig) -> list[str]:
    """Every doc a group of this example can contain in this stage: the
    teacher's head (the whole group, in loss-alignment order) for a stage
    without a sampler (ranknet), else the positive followed by the hard
    pool the negatives are drawn from. The positive is the judged doc of
    highest grade >= 1, ties going to the smaller id. The pool drops from
    the first-stage ranking every other doc judged relevant (RocketQA's
    denoised hard negatives; Qu et al., NAACL 2021), keeps the top
    pool_depth and leaves the positive out, in rank order. Raises
    DataError naming the query when the example cannot form the stage's
    groups."""
    qid = example.query.id
    if stage.sampler is None:
        if example.teacher is None:
            raise DataError(f"query {qid}: no teacher ranking for distillation")
        return list(example.teacher.doc_ids[:TEACHER_GROUP_CAP])
    judged = example.judged or {}
    positive = min((d for d, g in judged.items() if g >= 1),
                   key=lambda d: (-judged[d], d), default=None)
    if positive is None:
        raise DataError(f"query {qid}: no positive document for {stage.loss} stage")
    if example.ranking is None:
        raise DataError(f"query {qid}: no first-stage ranking for hard sampling")
    kept = [d for d in example.ranking.ids if d == positive or judged.get(d, 0) < 1]
    pool = [d for d in kept[: stage.sampler.pool_depth] if d != positive]
    h = stage.sampler.negatives
    if len(pool) < h:
        raise DataError(f"query {qid}: only {len(pool)} eligible negatives in pool, need {h}")
    return [positive, *pool]


def _group_positions(
    sampler: SamplerConfig, sizes: Sequence[int], queries: np.ndarray, epochs: np.ndarray
) -> np.ndarray:
    """The (len(queries), 1 + negatives) row positions of each group in
    its query's `stage_pool` block: [0 (the positive), 1 + sorted draw],
    the draw keyed (epoch, query index) from a pool of sizes[query] - 1
    negatives; one `sample_positions` pass per pool length."""
    positions = np.zeros((queries.size, 1 + sampler.negatives), dtype=np.int32)
    lengths = np.asarray(sizes, dtype=np.intp)[queries] - 1
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == n)
        positions[rows, 1:] = 1 + sample_positions(sampler, n, epochs[rows], queries[rows])
    return positions


def _group_loss(stage: StageConfig, scores: np.ndarray) -> LossOutput:
    if stage.loss == "lce":
        return lce(scores)
    if stage.loss == "ranknet":
        return ranknet(scores)
    return bce(scores)


def run_stage(
    params: ScorerParams,
    stage: StageConfig,
    train: Sequence[QueryExample],
    val: Sequence[QueryExample],
    ctx: ScoringContext,
) -> tuple[ScorerParams, TrainLog]:
    """Run exactly stage.max_steps optimizer steps; returns new params and log.

    The input params object is not mutated. Validation loss is computed every
    val_interval steps over fixed validation groups (sampled once, epoch 0 of
    a dedicated substream) and never gates training. Before the first step
    each train and val query's `stage_pool` is built, once, and ctx is asked
    for it, which extracts one block per query whose pool it does not hold
    yet. The stage keeps those blocks and its schedule (each step's query
    and, for lce/bce, its group's rows in the query's block,
    `[0, 1 + sorted draw]`; a ranknet group is the whole block) until it
    returns, so its steps call neither ctx nor a sampler. Steps update a
    copy of params in place.
    """
    if not train:
        raise DataError("training data is empty")
    log = TrainLog()
    started = time.perf_counter()

    pools = [stage_pool(ex, stage) for ex in (*train, *val)]
    blocks = [ctx.feature_matrix(ex.query, pool) for ex, pool in zip((*train, *val), pools)]
    params = params.copy()
    state = OptimizerState(params)

    # the schedule: each step's query (epoch orders end to end) and, for
    # sampled groups, its rows in the query's block
    n = len(train)
    queries = np.empty(stage.max_steps, dtype=np.intp)
    for start in range(0, stage.max_steps, n):
        order = list(range(n))
        SplitMix64(substream(stage.seed, _SHUFFLE_TAG, start // n)).shuffle(order)
        queries[start : start + n] = order[: stage.max_steps - start]
    positions = None
    val_groups = blocks[n:]
    if stage.sampler is not None:
        sizes = [len(pool) for pool in pools]
        positions = _group_positions(
            stage.sampler, sizes[:n], queries, np.arange(stage.max_steps) // n
        )
        val_sampler = replace(stage.sampler, seed=substream(stage.sampler.seed, _VAL_TAG))
        val_rows = _group_positions(
            val_sampler, sizes[n:], np.arange(len(val)), np.zeros(len(val), dtype=np.intp)
        )
        val_groups = [x[rows] for x, rows in zip(val_groups, val_rows)]

    for step, i in enumerate(queries.tolist()):
        x_mat = blocks[i]
        if positions is not None:
            x_mat = x_mat[positions[step]]
        scores, acts = score_batch(params, x_mat)
        loss = _group_loss(stage, scores)
        grads = backward_batch(params, x_mat, acts, loss.grad)
        adamw_step(params, grads, state, stage.lr)
        log.losses.append(loss.value)

        if (step + 1) % stage.val_interval == 0 and val_groups:
            total = 0.0
            for x_mat in val_groups:
                v_scores, _ = score_batch(params, x_mat)
                total += _group_loss(stage, v_scores).value
            log.val.append((step + 1, total / len(val_groups)))

    log.wall_seconds = time.perf_counter() - started
    return params, log


def run_plan(
    config: ScorerConfig,
    stages: tuple[StageConfig, ...],
    train: Sequence[QueryExample],
    val: Sequence[QueryExample],
    ctx: ScoringContext,
    trained: dict[tuple[StageConfig, ...], tuple[ScorerParams, list[TrainLog]]]
    | None = None,
) -> tuple[ScorerParams, list[TrainLog]]:
    """Initialize from config and apply the stages, at least one, left to
    right.

    Parameters carry across stage boundaries; optimizer state does not.
    A stage's result depends only on its start parameters, its config and
    the data, so `trained` memoises (params, logs) by stage prefix: the plan
    continues from its longest prefix found there, and every prefix it trains
    is added. Plans that share a memo must share `config` and the data. A
    memo filled in another process (as the experiment driver's workers do)
    serves as well: the process a stage runs in changes none of its bits.
    """
    if not stages:
        raise ValueError("a train plan needs at least one stage")
    memo = {} if trained is None else trained
    memo.setdefault((), (init_params(config), []))
    done = max(k for k in range(len(stages) + 1) if stages[:k] in memo)
    params, logs = memo[stages[:done]]
    for k in range(done, len(stages)):
        params, log = run_stage(params, stages[k], train, val, ctx)
        logs = [*logs, log]
        memo[stages[: k + 1]] = (params, logs)
    return params, logs


def split_train_val(queries: Sequence, fraction: float, seed: int) -> tuple[list, list]:
    """Seeded disjoint partition; validation gets round(n * fraction), min 1."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(queries)
    n_val = max(1, round(n * fraction))
    if n_val >= n:
        raise DataError(f"{n} queries cannot support a non-empty train/val split")
    idx = list(range(n))
    SplitMix64(substream(seed, _SPLIT_TAG)).shuffle(idx)
    val_idx = set(idx[:n_val])
    train = [q for i, q in enumerate(queries) if i not in val_idx]
    val = [q for i, q in enumerate(queries) if i in val_idx]
    return train, val

