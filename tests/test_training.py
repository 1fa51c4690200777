"""AdamW against a reference implementation, plus stage and plan mechanics."""

import math

import numpy as np
import pytest

import rankforge.sampling
import rankforge.scorer
import rankforge.training
from rankforge.data import Query, Ranking, TeacherRanking
from rankforge.errors import DataError
from rankforge.experiment import merged_train_csv, merged_val_csv
from rankforge.losses import bce, ranknet
from rankforge.retrieval import Bm25Params
from rankforge.rng import SplitMix64, substream
from rankforge.sampling import SamplerConfig, sample_instance
from rankforge.scorer import (
    ScorerConfig,
    ScorerParams,
    ScoringContext,
    init_params,
    score_batch,
)
from rankforge.training import (
    OptimizerState,
    QueryExample,
    StageConfig,
    TrainLog,
    adamw_step,
    run_plan,
    run_stage,
    split_train_val,
    stage_pool,
)

CONFIG = ScorerConfig(buckets=8, hidden=3, seed=0)


def _random_grads(params: ScorerParams, rng: np.random.Generator) -> ScorerParams:
    return ScorerParams(
        rng.standard_normal(params.w1.shape),
        rng.standard_normal(params.b1.shape),
        rng.standard_normal(params.w2.shape),
        float(rng.standard_normal()),
    )


def _zero_grads(params: ScorerParams) -> ScorerParams:
    return ScorerParams.from_flat(np.zeros_like(params.flat), *params.w1.shape)


def _reference_adamw(params, grad_seq, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.01):
    """Functional AdamW oracle: plain textbook update, no in-place tricks."""
    w = {"w1": params.w1.copy(), "b1": params.b1.copy(), "w2": params.w2.copy(),
         "b2": np.float64(params.b2)}
    m = {k: np.zeros_like(v) for k, v in w.items()}
    v = {k: np.zeros_like(val) for k, val in w.items()}
    for t, grads in enumerate(grad_seq, start=1):
        g = {"w1": grads.w1, "b1": grads.b1, "w2": grads.w2, "b2": np.float64(grads.b2)}
        for k in w:
            m[k] = b1 * m[k] + (1 - b1) * g[k]
            v[k] = b2 * v[k] + (1 - b2) * g[k] ** 2
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            w[k] = w[k] - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * w[k])
    return w


def _allocating_adamw(w, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.01):
    """adamw_step's update on flat vectors, with a new array per operation."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    if lr != 0.0:
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        w -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * w)


class TestAdamwStep:
    def test_bit_identical_to_allocating_update(self):
        params = init_params(CONFIG)
        w, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        state = OptimizerState(params)
        rng = np.random.default_rng(23)
        for t, lr in enumerate([1e-2, 0.0, 1e-3, 1e-2, 0.0, 0.0, 3e-4, 1e-2, 0.0, 1e-3], 1):
            grads = _random_grads(params, rng)
            assert adamw_step(params, grads, state, lr) is None
            _allocating_adamw(w, grads.flat, m, v, t, lr)
            for got, want in ((params.flat, w), (state.m, m), (state.v, v)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t

    def test_matches_reference_over_ten_steps(self):
        params = init_params(CONFIG)
        rng = np.random.default_rng(17)
        grad_seq = [_random_grads(params, rng) for _ in range(10)]

        expected = _reference_adamw(params.copy(), grad_seq, lr=1e-2)

        state = OptimizerState(params)
        for grads in grad_seq:
            adamw_step(params, grads, state, lr=1e-2)

        assert np.allclose(params.w1, expected["w1"], rtol=1e-12, atol=1e-15)
        assert np.allclose(params.b1, expected["b1"], rtol=1e-12, atol=1e-15)
        assert np.allclose(params.w2, expected["w2"], rtol=1e-12, atol=1e-15)
        assert math.isclose(params.b2, float(expected["b2"]), rel_tol=1e-12)
        assert state.t == 10

    def test_zero_lr_freezes_params_but_advances_state(self):
        params = init_params(CONFIG)
        before = params.copy()
        state = OptimizerState(params)
        rng = np.random.default_rng(3)
        for _ in range(5):
            adamw_step(params, _random_grads(params, rng), state, lr=0.0)
        assert np.array_equal(params.w1, before.w1)
        assert np.array_equal(params.b1, before.b1)
        assert np.array_equal(params.w2, before.w2)
        assert params.b2 == before.b2
        assert state.t == 5
        assert np.any(state.m != 0.0)
        assert np.any(state.v != 0.0)

    def test_first_step_is_signed_lr(self, monkeypatch):
        # with decay off, step 1 moves each weight by -lr * g / (|g| + eps)
        monkeypatch.setattr(rankforge.training, "_WEIGHT_DECAY", 0.0)
        params = init_params(CONFIG)
        before = params.copy()
        state = OptimizerState(params)
        grads = _random_grads(params, np.random.default_rng(11))
        lr = 1e-3
        adamw_step(params, grads, state, lr)
        delta = params.w1 - before.w1
        assert np.allclose(delta, -lr * np.sign(grads.w1), atol=lr * 1e-6)

    def test_decay_pulls_weights_toward_zero(self):
        params = init_params(CONFIG)
        params.w2[:] = 100.0
        zero = _zero_grads(params)
        state = OptimizerState(params)
        adamw_step(params, zero, state, lr=0.1)
        assert np.all(params.w2 < 100.0)
        assert np.all(params.w2 > 0.0)

    def test_negative_lr_rejected(self):
        params = init_params(CONFIG)
        state = OptimizerState(params)
        with pytest.raises(ValueError, match=">= 0"):
            adamw_step(params, _zero_grads(params), state, lr=-1e-3)

    def test_non_finite_grads_rejected(self):
        params = init_params(CONFIG)
        state = OptimizerState(params)
        for name, idx, value in (("w1", (2, 5), math.inf), ("b1", 0, np.nan),
                                 ("w2", 1, -math.inf)):
            grads = _zero_grads(params)
            getattr(grads, name)[idx] = value
            with pytest.raises(ValueError, match="non-finite"):
                adamw_step(params, grads, state, lr=1e-3)
        grads = _zero_grads(params)
        grads.b2 = math.inf
        with pytest.raises(ValueError, match="non-finite"):
            adamw_step(params, grads, state, lr=1e-3)
        assert state.t == 0


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint64)


def _oracle_group(example, stage, sampler_seed, ordinal, epoch):
    """A step's doc ids drawn one at a time with the scalar splitmix64
    sampler: the positive, then the chosen negatives in pool order."""
    pool = stage_pool(example, stage)
    if stage.loss == "ranknet":
        return pool
    rng = SplitMix64(substream(sampler_seed, rankforge.sampling._HARD_TAG, epoch, ordinal))
    chosen = sorted(rng.sample(range(len(pool) - 1), stage.sampler.negatives))
    return [pool[0], *(pool[1 + c] for c in chosen)]


def _dense_stage(params, stage, train, val, ctx):
    """run_stage without the schedule: every step draws its group, gathers
    its rows, computes the gradient and updates every parameter."""
    w = params.copy()
    m, v = np.zeros_like(w.flat), np.zeros_like(w.flat)
    log = TrainLog()
    seed = val_seed = None
    if stage.sampler is not None:
        seed = stage.sampler.seed
        val_seed = substream(seed, rankforge.training._VAL_TAG)
    val_groups = [_oracle_group(ex, stage, val_seed, k, 0) for k, ex in enumerate(val)]
    order = []
    for step in range(stage.max_steps):
        epoch, pos = divmod(step, len(train))
        if pos == 0:
            order = list(range(len(train)))
            SplitMix64(substream(stage.seed, rankforge.training._SHUFFLE_TAG, epoch)).shuffle(order)
        i = order[pos]
        docs = _oracle_group(train[i], stage, seed, i, epoch)
        x_mat = ctx.feature_matrix(train[i].query, docs)
        scores, acts = score_batch(w, x_mat)
        loss = rankforge.training._group_loss(stage, scores)
        dz = (loss.grad[:, None] * w.w2[None, :]) * (1.0 - acts * acts)
        g = _zero_grads(w)
        g.w1[:] = dz.T @ x_mat
        g.b1[:] = dz.sum(axis=0)
        g.w2[:] = acts.T @ loss.grad
        g.b2 = loss.grad.sum()
        _allocating_adamw(w.flat, g.flat, m, v, step + 1, stage.lr)
        log.losses.append(loss.value)
        if (step + 1) % stage.val_interval == 0 and val_groups:
            total = 0.0
            for ex, docs in zip(val, val_groups):
                v_scores, _ = score_batch(w, ctx.feature_matrix(ex.query, docs))
                total += rankforge.training._group_loss(stage, v_scores).value
            log.val.append((step + 1, total / len(val_groups)))
    return w, log


class TestStageReach:
    @pytest.mark.parametrize("stage", [
        StageConfig("lce", 1e-2, 30, val_interval=7,
                    sampler=SamplerConfig(negatives=10, pool_depth=30, seed=1), seed=2),
        StageConfig("ranknet", 1e-2, 30, val_interval=7, seed=3),
        StageConfig("bce", 1e-3, 30, val_interval=7,
                    sampler=SamplerConfig(negatives=5, pool_depth=20, seed=4), seed=5),
        StageConfig("lce", 0.0, 12, val_interval=5,
                    sampler=SamplerConfig(negatives=10, pool_depth=30, seed=6), seed=7),
    ], ids=["lce", "ranknet", "bce", "lr0"])
    def test_bit_identical_to_dense_loop(self, small_world, stage):
        train, val = small_world.examples[:8], small_world.examples[8:10]
        params = init_params(small_world.scorer_config)
        got, log = run_stage(params, stage, train, val, small_world.ctx)
        want, want_log = _dense_stage(params, stage, train, val, small_world.ctx)
        assert np.array_equal(_bits(got.flat), _bits(want.flat))
        assert log.losses == want_log.losses
        assert log.val == want_log.val
        assert len(log.val) == stage.max_steps // stage.val_interval


class TestStageConfig:
    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="loss"):
            StageConfig("hinge", 1e-3, 10)

    def test_negative_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            StageConfig("ranknet", -1.0, 10)

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            StageConfig("ranknet", lr, 10)

    def test_step_budget(self):
        with pytest.raises(ValueError, match="max_steps"):
            StageConfig("ranknet", 1e-3, 0)

    def test_val_interval(self):
        with pytest.raises(ValueError, match="val_interval"):
            StageConfig("ranknet", 1e-3, 10, val_interval=0)

    def test_contrastive_needs_sampler(self):
        with pytest.raises(ValueError, match="sampler"):
            StageConfig("lce", 1e-3, 10)
        with pytest.raises(ValueError, match="sampler"):
            StageConfig("bce", 1e-3, 10)
        StageConfig("lce", 1e-3, 10, sampler=SamplerConfig(negatives=5, pool_depth=10))

    def test_distillation_takes_no_sampler(self):
        # a ranknet group is the teacher's list, so a sampler would go unused
        with pytest.raises(ValueError, match="ranknet stage takes no sampler config"):
            StageConfig("ranknet", lr=1e-3, max_steps=5, sampler=SamplerConfig())

    def test_empty_plan(self):
        with pytest.raises(ValueError, match="stage"):
            run_plan(CONFIG, (), [], [], None)


class TestStagePool:
    STAGE = StageConfig("lce", 1e-3, 1, sampler=SamplerConfig(negatives=2, pool_depth=5))
    RANKING = Ranking("q", [f"d{i}" for i in range(6)], [6.0, 5.0, 4.0, 3.0, 2.0, 1.0])

    def _pool(self, judged):
        return stage_pool(QueryExample(Query("q", "text"), judged, self.RANKING), self.STAGE)

    @pytest.mark.parametrize("judged, positive", [
        ({"d1": 2, "d4": 3, "d0": 1}, "d4"),
        ({"d3": 2, "d1": 2, "d0": 1}, "d1"),
    ], ids=["highest-grade", "tie-to-smaller-id"])
    def test_positive_highest_grade_then_id(self, judged, positive):
        pool = self._pool(judged)
        assert pool[0] == positive
        assert positive not in pool[1:]

    @pytest.mark.parametrize("judged, pool", [
        ({"d4": 3, "d1": 1, "d2": 0}, ["d4", "d0", "d2", "d3"]),
        ({"d0": 2, "d1": 1, "d3": 1}, ["d0", "d2", "d4"]),
    ], ids=["positive-below-depth", "positive-inside-depth"])
    def test_judged_relevant_docs_leave_the_pool(self, judged, pool):
        # pool_depth 3 counts the docs left after the drop, the positive among them
        stage = StageConfig("lce", 1e-3, 1, sampler=SamplerConfig(negatives=2, pool_depth=3))
        example = QueryExample(Query("q", "text"), judged, self.RANKING)
        assert stage_pool(example, stage) == pool

    @pytest.mark.parametrize("judged", [None, {}, {"d1": 0, "d2": -1}],
                             ids=["unjudged", "empty", "none-relevant"])
    def test_no_positive_without_relevant(self, judged):
        with pytest.raises(DataError, match="q: no positive document for lce stage"):
            self._pool(judged)


def _lce_stage(steps: int, lr: float = 1e-3, seed: int = 0, val_interval: int = 500):
    sampler = SamplerConfig(negatives=10, pool_depth=30, seed=seed)
    return StageConfig("lce", lr, steps, val_interval=val_interval, sampler=sampler, seed=seed)


class TestRunStage:
    def test_identity_at_zero_lr(self, small_world):
        params = init_params(small_world.scorer_config)
        stage = _lce_stage(1, lr=0.0)
        out, log = run_stage(params, stage, small_world.examples[:5], [], small_world.ctx)
        assert out is not params
        assert np.array_equal(out.w1, params.w1)
        assert np.array_equal(out.b1, params.b1)
        assert np.array_equal(out.w2, params.w2)
        assert out.b2 == params.b2
        assert len(log.losses) == 1

    def test_input_params_not_mutated(self, small_world):
        params = init_params(small_world.scorer_config)
        snapshot = params.copy()
        run_stage(params, _lce_stage(20), small_world.examples[:5], [], small_world.ctx)
        assert np.array_equal(params.w1, snapshot.w1)
        assert params.b2 == snapshot.b2

    def test_lce_loss_decreases(self, small_world):
        params = init_params(small_world.scorer_config)
        _, log = run_stage(
            params, _lce_stage(500), small_world.examples[:30], [], small_world.ctx
        )
        assert len(log.losses) == 500
        head = sum(log.losses[:50]) / 50
        tail = sum(log.losses[-50:]) / 50
        assert tail < head

    def test_distillation_loss_aligns_with_teacher_order(self, small_world):
        # teacher built from the scorer's own (spread) scores: agreeing order
        # reproduces the direct loss value; reversing the teacher inflates it
        params = init_params(small_world.scorer_config)
        params.w2 *= 200.0
        ex = next(e for e in small_world.examples if e.teacher is not None)
        docs = list(ex.teacher.doc_ids[:10])
        scores, _ = score_batch(params, small_world.ctx.feature_matrix(ex.query, docs))
        by_score = sorted(zip(docs, scores), key=lambda p: -p[1])

        def loss_with(order):
            teacher = TeacherRanking(ex.query.id, tuple(order))
            example = QueryExample(query=ex.query, teacher=teacher)
            stage = StageConfig("ranknet", 0.0, 1, seed=0)
            _, log = run_stage(params, stage, [example], [], small_world.ctx)
            return log.losses[0]

        agreeing = [d for d, _ in by_score]
        agree = loss_with(agreeing)
        reverse = loss_with(agreeing[::-1])
        # the agreeing order's scores, rounded as run_stage's block rounds them
        in_order, _ = score_batch(params, small_world.ctx.feature_matrix(ex.query, agreeing))
        np.testing.assert_allclose(in_order, sorted(scores, reverse=True), rtol=1e-12)
        direct = ranknet(in_order).value
        assert agree == direct
        assert agree < reverse

    def test_val_logged_on_interval(self, small_world):
        params = init_params(small_world.scorer_config)
        stage = _lce_stage(10, val_interval=4)
        _, log = run_stage(
            params, stage, small_world.examples[:8], small_world.examples[8:11],
            small_world.ctx,
        )
        assert [step for step, _ in log.val] == [4, 8]
        assert all(math.isfinite(v) for _, v in log.val)

    def test_no_val_examples_no_val_rows(self, small_world):
        params = init_params(small_world.scorer_config)
        _, log = run_stage(
            params, _lce_stage(4, val_interval=2), small_world.examples[:4], [],
            small_world.ctx,
        )
        assert log.val == []

    def test_empty_train_rejected(self, small_world):
        params = init_params(small_world.scorer_config)
        with pytest.raises(DataError, match="empty"):
            run_stage(params, _lce_stage(1), [], [], small_world.ctx)

    def test_missing_teacher_named(self, small_world):
        params = init_params(small_world.scorer_config)
        ex = small_world.examples[0]
        bare = QueryExample(query=ex.query, judged=ex.judged, ranking=ex.ranking)
        stage = StageConfig("ranknet", 1e-3, 1, seed=0)
        with pytest.raises(DataError, match=ex.query.id):
            run_stage(params, stage, [bare], [], small_world.ctx)

    def test_missing_positive_named(self, small_world):
        ex = small_world.examples[0]
        bare = QueryExample(query=ex.query, ranking=ex.ranking)
        params = init_params(small_world.scorer_config)
        with pytest.raises(DataError, match=ex.query.id):
            run_stage(params, _lce_stage(1), [bare], [], small_world.ctx)

    def test_missing_ranking_named(self, small_world):
        ex = small_world.examples[0]
        bare = QueryExample(query=ex.query, judged=ex.judged)
        params = init_params(small_world.scorer_config)
        with pytest.raises(DataError, match=ex.query.id):
            run_stage(params, _lce_stage(1), [bare], [], small_world.ctx)

    def test_bce_step_logs_group_loss(self, small_world):
        params = init_params(small_world.scorer_config)
        params.w2 *= 50.0
        ex = small_world.examples[0]
        sampler = SamplerConfig(negatives=10, pool_depth=30, seed=3)
        stage = StageConfig("bce", 1e-3, 1, sampler=sampler, seed=4)
        _, log = run_stage(params, stage, [ex], [], small_world.ctx)
        # one example, so the step's group is its epoch-0 draw at ordinal 0
        positive, *pool = stage_pool(ex, stage)
        instance = sample_instance(ex.query.id, positive, pool, sampler, 0, 0)
        docs = [instance.positive_id, *instance.negatives]
        scores, _ = score_batch(params, small_world.ctx.feature_matrix(ex.query, docs))
        assert log.losses == [bce(scores).value]

    def test_deterministic(self, small_world):
        params = init_params(small_world.scorer_config)
        runs = [
            run_stage(params, _lce_stage(30, seed=5), small_world.examples[:10], [],
                      small_world.ctx)
            for _ in range(2)
        ]
        (p1, l1), (p2, l2) = runs
        assert np.array_equal(p1.w1, p2.w1)
        assert p1.b2 == p2.b2
        assert l1.losses == l2.losses

    def test_memo_warmed_once_per_query(self, small_world, monkeypatch):
        extracted = []
        real = rankforge.scorer.extract_features

        def counting(index, bm25, query, docs, *rest):
            extracted.append(query.id)
            return real(index, bm25, query, docs, *rest)

        monkeypatch.setattr(rankforge.scorer, "extract_features", counting)
        w = small_world
        ctx = ScoringContext(w.corpus, w.index, Bm25Params(), w.scorer_config.buckets)
        train, val = w.examples[:8], w.examples[8:11]
        stage = _lce_stage(40, seed=2, val_interval=10)
        params = init_params(w.scorer_config)
        first, first_log = run_stage(params, stage, train, val, ctx)
        assert sorted(extracted) == sorted({e.query.id for e in train + val})
        again, again_log = run_stage(params, stage, train, val, ctx)
        assert len(extracted) == len(train) + len(val)
        assert np.array_equal(again.flat.view(np.uint64), first.flat.view(np.uint64))
        assert again_log.losses == first_log.losses

        # rows held from other blocks, in another order, train the same bits
        filled = ScoringContext(w.corpus, w.index, Bm25Params(), w.scorer_config.buckets)
        for ex in reversed(train + val):
            docs = [stage_pool(ex, stage)[0], *ex.ranking.ids][::-1]
            for k in range(0, len(docs), 7):
                filled.feature_matrix(ex.query, docs[k : k + 7])
        prefilled, prefilled_log = run_stage(params, stage, train, val, filled)
        assert np.array_equal(prefilled.flat.view(np.uint64), first.flat.view(np.uint64))
        assert prefilled_log.losses == first_log.losses
        assert prefilled_log.val == first_log.val

    @pytest.mark.parametrize("steps", [1, 50])
    @pytest.mark.parametrize("loss", ["lce", "bce", "ranknet"])
    def test_block_lookups_do_not_grow_with_steps(self, small_world, monkeypatch, loss, steps):
        # every group is decided before step 1: one feature_matrix call per
        # train and val query, and no scalar draw
        asked = []
        real = ScoringContext.feature_matrix

        def counting(self, query, doc_ids):
            asked.append(query.id)
            return real(self, query, doc_ids)

        def scalar_sample(*args, **kwargs):
            raise AssertionError("SplitMix64.sample called")

        monkeypatch.setattr(ScoringContext, "feature_matrix", counting)
        monkeypatch.setattr(SplitMix64, "sample", scalar_sample)
        sampler = None if loss == "ranknet" else SamplerConfig(negatives=5, pool_depth=20, seed=1)
        stage = StageConfig(loss, 1e-3, steps, val_interval=10, sampler=sampler, seed=2)
        train, val = small_world.examples[:8], small_world.examples[8:11]
        _, log = run_stage(init_params(small_world.scorer_config), stage, train, val,
                           small_world.ctx)
        assert len(log.losses) == steps
        assert asked == [ex.query.id for ex in train + val]

    def test_wall_time_recorded(self, small_world):
        params = init_params(small_world.scorer_config)
        _, log = run_stage(params, _lce_stage(2), small_world.examples[:3], [],
                           small_world.ctx)
        assert log.wall_seconds > 0.0


class TestRunPlan:
    def test_singleton_plan_equals_run_stage(self, small_world):
        stage = _lce_stage(25, seed=3)
        train = small_world.examples[:10]
        direct, _ = run_stage(
            init_params(small_world.scorer_config), stage, train, [], small_world.ctx
        )
        planned, logs = run_plan(
            small_world.scorer_config, (stage,), train, [], small_world.ctx
        )
        assert len(logs) == 1
        assert np.array_equal(planned.w1, direct.w1)
        assert np.array_equal(planned.b1, direct.b1)
        assert np.array_equal(planned.w2, direct.w2)
        assert planned.b2 == direct.b2

    def test_zero_lr_second_stage_is_noop(self, small_world):
        train = small_world.examples[:10]
        first = _lce_stage(25, seed=3)
        frozen = StageConfig("ranknet", 0.0, 10, seed=3)
        solo, _ = run_plan(
            small_world.scorer_config, (first,), train, [], small_world.ctx
        )
        chained, logs = run_plan(
            small_world.scorer_config, (first, frozen), train, [],
            small_world.ctx,
        )
        assert len(logs) == 2
        assert len(logs[1].losses) == 10
        assert np.array_equal(solo.w1, chained.w1)
        assert np.array_equal(solo.w2, chained.w2)
        assert solo.b2 == chained.b2

    def test_optimizer_state_resets_between_stages(self, small_world):
        # two 4-step stages restart moments and the shuffle; one 8-step
        # stage does not, so the trajectories must diverge
        train = small_world.examples[:10]
        split = (_lce_stage(4, lr=1e-2), _lce_stage(4, lr=1e-2))
        merged = (_lce_stage(8, lr=1e-2),)
        p_split, _ = run_plan(small_world.scorer_config, split, train, [], small_world.ctx)
        p_merged, _ = run_plan(small_world.scorer_config, merged, train, [], small_world.ctx)
        assert not np.array_equal(p_split.w1, p_merged.w1)

    def test_memo_continues_from_longest_trained_prefix(self, small_world, monkeypatch):
        train = [e for e in small_world.examples if e.teacher is not None][:10]
        first = _lce_stage(12, seed=5)
        plan = (first, StageConfig("ranknet", 1e-3, 6, seed=6))
        alone, alone_logs = run_plan(small_world.scorer_config, plan, train, [],
                                     small_world.ctx)

        stages_run = []
        real_run_stage = rankforge.training.run_stage

        def counting_run_stage(params, stage, *args):
            stages_run.append(stage)
            return real_run_stage(params, stage, *args)

        monkeypatch.setattr(rankforge.training, "run_stage", counting_run_stage)
        memo = {}
        head, _ = run_plan(small_world.scorer_config, (first,), train, [],
                           small_world.ctx, memo)
        head_w1 = head.w1.copy()
        shared, shared_logs = run_plan(small_world.scorer_config, plan, train, [],
                                       small_world.ctx, memo)
        again, _ = run_plan(small_world.scorer_config, plan, train, [], small_world.ctx, memo)
        # the shared first stage ran once, the repeated plan not at all
        assert stages_run == list(plan)
        assert again is shared
        for name in ("w1", "b1", "w2"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name))
        assert shared.b2 == alone.b2
        assert [l.losses for l in shared_logs] == [l.losses for l in alone_logs]
        # continuing from the memoised prefix leaves its params untouched
        assert np.array_equal(head.w1, head_w1)
        assert not np.array_equal(head.w1, shared.w1)

    def test_deterministic(self, small_world):
        plan = (_lce_stage(20, seed=9), StageConfig("ranknet", 1e-4, 10, seed=9))
        train = [e for e in small_world.examples if e.teacher is not None][:10]
        p1, logs1 = run_plan(small_world.scorer_config, plan, train, [], small_world.ctx)
        p2, logs2 = run_plan(small_world.scorer_config, plan, train, [], small_world.ctx)
        assert np.array_equal(p1.w1, p2.w1)
        assert [l.losses for l in logs1] == [l.losses for l in logs2]


class TestSplitTrainVal:
    def _queries(self, n):
        from rankforge.data import Query

        return [Query(f"q{i}", f"terms {i}") for i in range(n)]

    def test_hundred_at_one_percent(self):
        train, val = split_train_val(self._queries(100), fraction=0.01, seed=0)
        assert len(train) == 99
        assert len(val) == 1

    def test_partition(self):
        qs = self._queries(30)
        train, val = split_train_val(qs, fraction=0.2, seed=4)
        assert len(val) == 6
        ids = {q.id for q in train} | {q.id for q in val}
        assert ids == {q.id for q in qs}
        assert not ({q.id for q in train} & {q.id for q in val})

    def test_minimum_one_validation_query(self):
        train, val = split_train_val(self._queries(10), fraction=0.001, seed=0)
        assert len(val) == 1
        assert len(train) == 9

    def test_deterministic_and_seed_sensitive(self):
        qs = self._queries(50)
        a = split_train_val(qs, fraction=0.1, seed=1)
        b = split_train_val(qs, fraction=0.1, seed=1)
        assert [q.id for q in a[1]] == [q.id for q in b[1]]
        others = [split_train_val(qs, fraction=0.1, seed=s)[1] for s in range(2, 8)]
        assert any([q.id for q in v] != [q.id for q in a[1]] for v in others)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            split_train_val(self._queries(10), fraction=0.0, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            split_train_val(self._queries(10), fraction=1.0, seed=0)

    def test_too_few_queries(self):
        with pytest.raises(DataError, match="split"):
            split_train_val(self._queries(1), fraction=0.5, seed=0)


class TestTrainLog:
    def test_train_csv_format(self):
        log = TrainLog(losses=[0.5, 0.25])
        assert merged_train_csv([log]) == "step,loss\n1,0.5\n2,0.25\n"

    def test_val_csv_format(self):
        log = TrainLog(val=[(500, 1.5), (1000, 1.25)])
        assert merged_val_csv([log]) == "step,val_loss\n500,1.5\n1000,1.25\n"

    def test_empty_logs(self):
        log = TrainLog()
        assert merged_train_csv([log]) == "step,loss\n"
        assert merged_val_csv([log]) == "step,val_loss\n"

    def test_losses_round_trip_exactly(self):
        # repr() keeps every float bit, so parsing the CSV back is lossless
        value = 1.0 / 3.0
        log = TrainLog(losses=[value])
        line = merged_train_csv([log]).splitlines()[1]
        assert float(line.split(",")[1]) == value
