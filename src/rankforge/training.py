"""AdamW optimization and single- or multi-stage fine-tuning.

One optimizer step consumes one query group: a sampled contrastive instance
(1 positive + h negatives) for LCE/BCE stages, or the teacher's list (up to
20 docs) for RankNet stages. Queries are visited in a seeded shuffle,
reshuffled every epoch. Optimizer state is reset at stage boundaries;
parameters carry across.

Before its first step a stage decides every group. It builds each train
and validation query's `stage_pool` (every document the stage can group
with it; a query without one is not trainable) and asks the feature memo
for it once, which extracts it in one block and gives the query's
columns; the stage keeps these blocks. Its schedule holds each step's
query (the epoch shuffles end to end) and, for LCE/BCE stages, the rows
of the step's group in that query's block, drawn by
`sampling.sample_positions` in one numpy pass per pool length. A step
gathers those rows. A row does not depend on the block it was extracted
in, and a block draw holds the positions the scalar draw would, so no
value changes. AdamW updates in place, in scratch vectors held by
the optimizer state, the W1 columns the stage's queries reach; the other
columns only decay (see `run_stage`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import Query, Ranking, TeacherRanking
from .errors import DataError
from .losses import LossOutput, bce, lce, ranknet
from .rng import SplitMix64, substream
from .sampling import SamplerConfig, hard_pool, sample_positions
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
    "TrainPlan",
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


@dataclass
class OptimizerState:
    """AdamW moments plus the (decoupled) hyperparameters, and two scratch
    vectors of the moments' size that `adamw_step` computes in."""

    m: ScorerParams
    v: ScorerParams
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m.flat), np.empty_like(self.m.flat))

    @staticmethod
    def for_params(params: ScorerParams) -> "OptimizerState":
        m, v = (ScorerParams.from_flat(np.zeros_like(params.flat), *params.w1.shape)
                for _ in range(2))
        return OptimizerState(m, v)


def adamw_step(
    params: ScorerParams, grads: ScorerParams, state: OptimizerState, lr: float
) -> tuple[ScorerParams, OptimizerState]:
    """One AdamW update with decoupled weight decay (mutates params and state).

    m <- b1 m + (1-b1) g ; v <- b2 v + (1-b2) g^2 ; bias-corrected m^, v^ ;
    w <- w - lr * ( m^ / (sqrt(v^) + eps) + wd * w ), elementwise on `flat`,
    one operation at a time in that order, into the state's scratch vectors.

    lr = 0 leaves parameters bit-identical while the moments still advance.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    g, m, v, w = grads.flat, state.m.flat, state.v.flat, params.flat
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient passed to adamw_step")

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    a, b = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=a)
    v *= b2
    np.multiply(g, g, out=a)
    v += np.multiply(1.0 - b2, a, out=a)
    if lr != 0.0:
        m_hat = np.divide(m, 1.0 - b1 ** state.t, out=a)
        v_hat = np.divide(v, 1.0 - b2 ** state.t, out=b)
        step = np.divide(m_hat, np.add(np.sqrt(v_hat, out=b), state.eps, out=b), out=a)
        step += np.multiply(state.weight_decay, w, out=b)
        w -= np.multiply(lr, step, out=a)
    return params, state


@dataclass(frozen=True)
class StageConfig:
    """One fine-tuning stage: objective, learning rate, and step budget."""

    loss: str  # "lce" | "ranknet" | "bce"
    lr: float
    max_steps: int
    val_interval: int = 500
    sampler: SamplerConfig | None = None  # LCE/BCE stages only
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
        if self.loss in ("lce", "bce") and self.sampler is None:
            raise ValueError(f"{self.loss} stage needs a sampler config")


@dataclass(frozen=True)
class TrainPlan:
    stages: tuple[StageConfig, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a train plan needs at least one stage")


@dataclass
class TrainLog:
    """Per-step training losses, periodic validation losses, stage wall time."""

    losses: list[float] = field(default_factory=list)
    val: list[tuple[int, float]] = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class QueryExample:
    """Everything the training loop may need for one query."""

    query: Query
    positive_id: str | None = None
    ranking: Ranking | None = None
    teacher: TeacherRanking | None = None


def stage_pool(example: QueryExample, stage: StageConfig) -> list[str]:
    """Every doc a group of this example can contain in this stage: the
    teacher's head (the whole group, in loss-alignment order) for ranknet,
    else the positive followed by its `hard_pool`. Raises DataError naming
    the query when the example cannot form the stage's groups."""
    qid = example.query.id
    if stage.loss == "ranknet":
        if example.teacher is None:
            raise DataError(f"query {qid}: no teacher ranking for distillation")
        return list(example.teacher.doc_ids[:TEACHER_GROUP_CAP])
    if example.positive_id is None:
        raise DataError(f"query {qid}: no positive document for {stage.loss} stage")
    if example.ranking is None:
        raise DataError(f"query {qid}: no first-stage ranking for hard sampling")
    pool = hard_pool(example.ranking, example.positive_id, stage.sampler)
    h = stage.sampler.negatives
    if len(pool) < h:
        raise DataError(f"query {qid}: only {len(pool)} eligible negatives in pool, need {h}")
    return [example.positive_id, *pool]


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
    yet and gives the query's W1 columns. The stage keeps those blocks and
    its schedule (each step's query and, for lce/bce, its group's rows in
    the query's block, `[0, 1 + sorted draw]`; a ranknet group is the
    whole block) until it returns, so its steps call neither ctx nor a
    sampler.

    Steps update in place a copy of the stage's reach, the W1 columns of its
    train and val queries plus b1, w2 and b2, with moments of that size.
    Any other W1 column's gradient is 0 at every step, so its moments stay
    0 and its AdamW update is, rounding for rounding, w - lr * (wd * w),
    applied max_steps times at the end (none at lr = 0): only a weight of
    exactly -0.0 can differ, and then in the sign of zero.
    """
    if not train:
        raise DataError("training data is empty")
    log = TrainLog()
    started = time.perf_counter()

    pools = [stage_pool(ex, stage) for ex in (*train, *val)]
    blocks = [ctx.feature_matrix(ex.query, pool) for ex, pool in zip((*train, *val), pools)]
    reached = np.zeros(params.feature_dim, dtype=bool)
    for _, cols in blocks:
        reached[cols] = True
    # slot[c] is reached column c's position among the live columns
    slot = np.cumsum(reached) - 1
    reach = np.flatnonzero(reached)
    blocks = [(x, slot[cols]) for x, cols in blocks]
    live = ScorerParams(params.w1[:, reach], params.b1, params.w2, params.b2)
    state = OptimizerState.for_params(live)

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
    if stage.loss != "ranknet":
        sizes = [len(pool) for pool in pools]
        positions = _group_positions(
            stage.sampler, sizes[:n], queries, np.arange(stage.max_steps) // n
        )
        val_sampler = replace(stage.sampler, seed=substream(stage.sampler.seed, _VAL_TAG))
        val_rows = _group_positions(
            val_sampler, sizes[n:], np.arange(len(val)), np.zeros(len(val), dtype=np.intp)
        )
        val_groups = [(x[rows], cols) for (x, cols), rows in zip(val_groups, val_rows)]

    for step, i in enumerate(queries.tolist()):
        x_mat, cols = blocks[i]
        if positions is not None:
            x_mat = x_mat[positions[step]]
        scores, acts = score_batch(live, x_mat, cols)
        loss = _group_loss(stage, scores)
        grads = backward_batch(live, x_mat, acts, loss.grad, cols)
        live, state = adamw_step(live, grads, state, stage.lr)
        log.losses.append(loss.value)

        if (step + 1) % stage.val_interval == 0 and val_groups:
            total = 0.0
            for x_mat, cols in val_groups:
                v_scores, _ = score_batch(live, x_mat, cols)
                total += _group_loss(stage, v_scores).value
            log.val.append((step + 1, total / len(val_groups)))

    w1 = params.w1.copy()
    rest = np.flatnonzero(~reached)
    if stage.lr != 0.0 and rest.size:
        w = np.ascontiguousarray(w1[:, rest])
        t = np.empty_like(w)
        for _ in range(stage.max_steps):
            w -= np.multiply(stage.lr, np.multiply(state.weight_decay, w, out=t), out=t)
        w1[:, rest] = w
    w1[:, reach] = live.w1
    params = ScorerParams(w1, live.b1, live.w2, live.b2)
    log.wall_seconds = time.perf_counter() - started
    return params, log


def run_plan(
    config: ScorerConfig,
    plan: TrainPlan,
    train: Sequence[QueryExample],
    val: Sequence[QueryExample],
    ctx: ScoringContext,
    trained: dict[tuple[StageConfig, ...], tuple[ScorerParams, list[TrainLog]]]
    | None = None,
) -> tuple[ScorerParams, list[TrainLog]]:
    """Initialize from config and apply stages left to right.

    Parameters carry across stage boundaries; optimizer state does not.
    A stage's result depends only on its start parameters, its config and
    the data, so `trained` memoises (params, logs) by stage prefix: the plan
    continues from its longest prefix found there, and every prefix it trains
    is added. Plans that share a memo must share `config` and the data. A
    memo filled in another process (as the experiment driver's workers do)
    serves as well: the process a stage runs in changes none of its bits.
    """
    memo = {} if trained is None else trained
    memo.setdefault((), (init_params(config), []))
    stages = plan.stages
    done = max(k for k in range(len(stages) + 1) if stages[:k] in memo)
    params, logs = memo[stages[:done]]
    for k in range(done, len(stages)):
        params, log = run_stage(params, stages[k], train, val, ctx)
        logs = [*logs, log]
        memo[stages[: k + 1]] = (params, logs)
    return params, logs


def split_train_val(
    queries: Sequence, fraction: float = 0.01, seed: int = 0
) -> tuple[list, list]:
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

