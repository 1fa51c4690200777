"""Acceptance gates, one test per guarantee the package ships with.

Run with -v for one pass/fail line per gate. The tolerances and workload
sizes in this file are contractual: loosening one is a behavior change and
needs the same scrutiny as changing the code under test.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from rankforge.data import Qrels, Query, Ranking, parse_corpus, parse_run, write_run
from rankforge.errors import DataError
from rankforge.evaluation import (
    MetricReport,
    MetricSpec,
    SystemResult,
    build_table,
    compute_metric,
    paired_ttest,
)
from rankforge.losses import bce, lce, ranknet
from rankforge.retrieval import Bm25Params, bm25_score, build_index, retrieve_topk, tokenize
from rankforge.scorer import N_DENSE, ScorerParams, load_params, save_params, score_batch, backward_batch
from rankforge.training import SamplerConfig, StageConfig, run_plan

GOLDEN = Path(__file__).parent / "golden"


def _rel_err(analytic: float, estimate: float) -> float:
    # the floor absorbs pure finite-difference noise at near-zero gradients
    return abs(analytic - estimate) / max(abs(analytic), abs(estimate), 1e-5)


def test_01_analytic_gradients_match_central_differences():
    """LCE/RankNet/BCE score gradients and the composed scorer backward,
    100 seeded cases each, central differences at step 1e-4, rel err < 1e-5,
    all inside a 10 second budget."""
    started = time.perf_counter()
    step = 1e-4

    rng = np.random.default_rng(2468)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        s = rng.normal(scale=2.0, size=n)
        for fn in (lce, ranknet, bce):
            grad = fn(s).grad
            for i in range(n):
                hi, lo = s.copy(), s.copy()
                hi[i] += step
                lo[i] -= step
                fd = (fn(hi).value - fn(lo).value) / (2 * step)
                assert _rel_err(grad[i], fd) < 1e-5

    for seed, loss in ((101, lce), (202, ranknet), (303, bce)):
        rng = np.random.default_rng(seed)
        f = 8 + N_DENSE
        for _ in range(100):
            params = ScorerParams(
                w1=rng.normal(size=(3, f)),
                b1=rng.normal(size=3),
                w2=rng.normal(size=3),
                b2=float(rng.normal()),
            )
            x_mat = rng.normal(size=(int(rng.integers(2, 8)), f))

            def composed() -> float:
                scores, _ = score_batch(params, x_mat)
                return loss(scores).value

            scores, acts = score_batch(params, x_mat)
            g = backward_batch(params, x_mat, acts, loss(scores).grad)

            for arr, garr in ((params.w1, g.w1), (params.b1, g.b1), (params.w2, g.w2)):
                flat, gflat = arr.ravel(), garr.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    hi = composed()
                    flat[i] = orig - step
                    lo = composed()
                    flat[i] = orig
                    assert _rel_err(gflat[i], (hi - lo) / (2 * step)) < 1e-5
            orig = params.b2
            params.b2 = orig + step
            hi = composed()
            params.b2 = orig - step
            lo = composed()
            params.b2 = orig
            assert _rel_err(g.b2, (hi - lo) / (2 * step)) < 1e-5

    assert time.perf_counter() - started < 10.0


def test_02_loss_closed_forms_and_shift_stability():
    """Uniform LCE over 100 scores is ln 100; 20 equal RankNet scores give
    190 ln 2; both losses unchanged to 1e-9 under score shifts of +-1000."""
    assert abs(lce(np.zeros(100)).value - math.log(100.0)) < 1e-9
    assert abs(ranknet(np.zeros(20)).value - 190.0 * math.log(2.0)) < 1e-9
    assert abs(ranknet(np.full(20, -7.25)).value - 190.0 * math.log(2.0)) < 1e-9

    rng = np.random.default_rng(99)
    for _ in range(20):
        s = rng.normal(scale=3.0, size=int(rng.integers(2, 30)))
        for c in (-1000.0, 1000.0):
            assert abs(lce(s + c).value - lce(s).value) < 1e-9
            assert abs(ranknet(s + c).value - ranknet(s).value) < 1e-9


def _naive_metric(order: list[str], judged: dict[str, int], spec: MetricSpec):
    """Brute-force reference evaluator; None when the query is not evaluable."""
    if spec.kind == "ndcg":
        if not any(g >= 1 for g in judged.values()):
            return None
        gain = (lambda g: float(g)) if spec.gain == "linear" else (lambda g: 2.0**g - 1.0)
        top = order[: spec.cutoff]
        dcg = sum(gain(judged.get(d, 0)) / math.log2(i + 2) for i, d in enumerate(top))
        ideal = sorted(judged.values(), reverse=True)[: spec.cutoff]
        idcg = sum(gain(g) / math.log2(i + 2) for i, g in enumerate(ideal))
        return dcg / idcg
    relevant = {d for d, g in judged.items() if g >= spec.threshold}
    if not relevant:
        return None
    top = order if spec.cutoff is None else order[: spec.cutoff]
    if spec.kind == "mrr":
        for i, d in enumerate(top):
            if d in relevant:
                return 1.0 / (i + 1)
        return 0.0
    total = 0.0
    for i, d in enumerate(top):
        if d in relevant:
            total += len(relevant & set(top[: i + 1])) / (i + 1)
    return total / len(relevant)


def test_03_metrics_match_brute_force_oracle():
    """AP/nDCG/MRR agree with an independent reference on 1000 randomized
    cases to 1e-9, and the two hand-derived fixtures come out exactly."""
    four = Ranking("q", "d1 d2 d3 d4".split(), [9.0, 8.0, 7.0, 6.0])
    qr = Qrels({"q": {"d1": 1, "d3": 1}})
    want_ap = (1.0 + 2.0 / 3.0) / 2.0
    assert compute_metric(four, qr, MetricSpec("ap")) == pytest.approx(want_ap, abs=1e-15)

    two = Ranking("q", ["B", "A"], [2.0, 1.0])
    qr = Qrels({"q": {"A": 3, "B": 1}})
    want_ndcg = (1.0 / math.log2(2) + 3.0 / math.log2(3)) / (3.0 / math.log2(2) + 1.0 / math.log2(3))
    got = compute_metric(two, qr, MetricSpec("ndcg", cutoff=10))
    assert got == pytest.approx(want_ndcg, abs=1e-12)
    assert got == pytest.approx(0.7967, abs=5e-5)

    rng = random.Random(9173)
    compared = 0
    for case in range(1000):
        pool = [f"d{i:02d}" for i in range(rng.randint(1, 20))]
        judged = {d: rng.choice((0, 0, 1, 2, 3)) for d in pool if rng.random() < 0.7}
        retrieved = rng.sample(pool, rng.randint(1, len(pool)))
        kind = rng.choice(("ap", "ndcg", "mrr"))
        cutoff = rng.choice((None, rng.randint(1, 15))) if kind == "ap" else rng.randint(1, 15)
        threshold, gain = rng.randint(1, 3), rng.choice(("linear", "exponential"))
        # each kind takes only the field it reads: gain for nDCG, threshold otherwise
        read = {"gain": gain} if kind == "ndcg" else {"threshold": threshold}
        spec = MetricSpec(kind, cutoff=cutoff, **read)
        ranking = Ranking("q", retrieved, np.arange(len(retrieved), 0, -1.0))
        qrels = Qrels({"q": judged})
        want = _naive_metric(retrieved, judged, spec)
        if want is None:
            with pytest.raises(DataError):
                compute_metric(ranking, qrels, spec)
        else:
            assert compute_metric(ranking, qrels, spec) == pytest.approx(want, abs=1e-9)
            compared += 1
    assert compared > 600  # the generator must keep most cases evaluable


def test_04_paired_ttest_reference_values():
    """Diffs [0.1..0.4]: t within 1e-3 of 3.873 and p within 1e-4 of the
    scipy reference; zero-variance cases pin p to 1 and 0 exactly."""
    diffs = [0.1, 0.2, 0.3, 0.4]
    a = MetricReport.from_values("AP", {f"q{i}": d for i, d in enumerate(diffs)})
    b = MetricReport.from_values("AP", {f"q{i}": 0.0 for i in range(4)})
    res = paired_ttest(a, b)
    assert abs(res.t - 3.873) < 1e-3
    assert res.df == 3
    ref = stats.ttest_rel(diffs, [0.0] * 4)
    assert abs(res.p - ref.pvalue) < 1e-4
    assert abs(res.p - 0.0305) < 1e-4
    assert not res.significant and not res.degenerate

    same = paired_ttest(a, a)
    assert same.p == 1.0 and same.degenerate and not same.significant

    # diffs are an exact 0.25 in binary, so the sample variance is exactly 0
    hi = MetricReport.from_values("AP", {"q1": 0.75, "q2": 0.5})
    lo = MetricReport.from_values("AP", {"q1": 0.5, "q2": 0.25})
    shift = paired_ttest(hi, lo)
    assert shift.p == 0.0 and shift.degenerate and shift.significant


def test_05_bm25_closed_form_and_ranking_invariants():
    """The two-doc one-term fixture scores ln 2 to 1e-12; randomized corpora
    keep rank order, doc-id tie-breaks, and candidate-set guarantees."""
    corpus = parse_corpus("d1\tapple\nd2\tbanana\n")
    index = build_index(corpus)
    got = bm25_score(index, Bm25Params(k1=0.9, b=0.4), ["apple"], "d1")
    assert abs(got - math.log(2.0)) < 1e-12

    rng = random.Random(5150)
    vocab = [f"w{i}" for i in range(10)]
    ties_seen = 0
    for _ in range(200):
        n_docs = rng.randint(2, 25)
        rows = []
        for i in range(n_docs):
            text = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
            rows.append(f"t{i:02d}\t{text}\n")
        rows.append(f"t{n_docs:02d}\t{rows[0].split(chr(9))[1]}")  # forced duplicate
        corpus = parse_corpus("".join(rows))
        index = build_index(corpus)
        query = Query("q", " ".join(rng.choices(vocab, k=rng.randint(1, 4))))
        k = rng.randint(1, 30)
        ranking = retrieve_topk(index, Bm25Params(), query, k)

        entries = ranking.entries
        docs = [e.doc_id for e in entries]
        assert len(set(docs)) == len(docs)
        assert len(docs) <= k
        assert [e.rank for e in entries] == list(range(1, len(docs) + 1))
        q_terms = set(tokenize(query.text))
        for e in entries:
            assert e.score > 0.0
            assert q_terms & set(tokenize(corpus[e.doc_id]))
        for first, second in zip(entries, entries[1:]):
            assert first.score >= second.score
            if first.score == second.score:
                ties_seen += 1
                assert first.doc_id < second.doc_id
        if len(docs) < k:
            left_out = set(corpus) - set(docs)
            for d in left_out:
                assert not (q_terms & set(tokenize(corpus[d])))
    assert ties_seen > 0


def test_06_zero_lr_stage_is_identity(small_world):
    """Appending a zero-lr distillation stage must not move a single bit of
    the checkpoint produced by the contrastive stage alone."""
    sampler = SamplerConfig(negatives=8, pool_depth=30)
    contrastive = StageConfig("lce", lr=1e-3, max_steps=40, val_interval=20, sampler=sampler)
    frozen_distill = StageConfig("ranknet", lr=0.0, max_steps=25, val_interval=10)
    train, val = small_world.examples[:32], small_world.examples[32:36]

    single, _ = run_plan(
        small_world.scorer_config, (contrastive,), train, val, small_world.ctx
    )
    padded, _ = run_plan(
        small_world.scorer_config,
        (contrastive, frozen_distill),
        train, val, small_world.ctx,
    )
    assert save_params(padded) == save_params(single)


def test_07_synthetic_experiment_gains_and_reproducibility(tmp_path):
    """Fresh-process experiment on the reference generated dataset: the
    contrastive plan gains >= 0.10 nDCG@10 over the untrained re-rank and the
    distillation plan >= 0.05, each run finishes inside 2 minutes, and two
    runs produce byte-identical artifact trees."""
    cli = [sys.executable, "-m", "rankforge.cli"]

    proc = subprocess.run(
        cli + ["synth", "--out", str(tmp_path / "data"), "--seed", "42", "--noise", "0.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr

    config = {
        "corpus": "data/corpus.tsv",
        "queries": "data/queries.tsv",
        "qrels": "data/qrels.txt",
        "teacher": "data/teacher.jsonl",
        "first_stage": "build",
        "out": "out1",
        "seed": 42,
    }
    (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")

    for out in ("out1", "out2"):
        began = time.perf_counter()
        proc = subprocess.run(
            cli + ["experiment", "--config", str(tmp_path / "exp.json"),
                   "--out", str(tmp_path / out)],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - began
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 120.0, f"experiment took {elapsed:.1f}s"

    def mean_ndcg(out: str, system: str) -> float:
        lines = (tmp_path / out / system / "metrics.csv").read_text(encoding="utf-8")
        for line in lines.splitlines():
            qid, metric, value = line.split(",")
            if qid == "all" and metric == "nDCG@10":
                return float(value)
        raise AssertionError(f"no aggregate nDCG@10 in {out}/{system}")

    base = mean_ndcg("out1", "untrained")
    assert mean_ndcg("out1", "C") - base >= 0.10
    assert mean_ndcg("out1", "D") - base >= 0.05

    first = sorted(p.relative_to(tmp_path / "out1")
                   for p in (tmp_path / "out1").rglob("*") if p.is_file())
    second = sorted(p.relative_to(tmp_path / "out2")
                    for p in (tmp_path / "out2").rglob("*") if p.is_file())
    assert first == second and first
    for rel in first:
        assert (tmp_path / "out1" / rel).read_bytes() == (tmp_path / "out2" / rel).read_bytes(), rel


def test_08_comparison_table_golden_markdown():
    """The four-system fixture renders its golden table byte-for-byte and
    exercises every marker: bold, sibling star, dagger, down arrow."""
    qids = [f"q{i}" for i in range(1, 6)]

    def system(label, ap, ndcg):
        return SystemResult(label, {
            "AP": MetricReport.from_values("AP", dict(zip(qids, ap))),
            "nDCG@10": MetricReport.from_values("nDCG@10", dict(zip(qids, ndcg))),
        })

    base = system("base", [0.5] * 5, [0.4] * 5)
    variants = [
        system("sysA", [0.7, 0.7, 0.7, 0.7, 0.71], [0.6] * 5),
        system("sysB", [0.6] * 5, [0.6] * 5),
        system("sysC", [0.3] * 5, [0.39, 0.41, 0.38, 0.42, 0.35]),
    ]
    rendered = build_table(base, variants, pairings=[("sysA", "sysB")]).to_markdown()
    want = (GOLDEN / "comparison_table.md").read_text(encoding="utf-8")
    assert rendered == want
    assert "**0.7020***†" in rendered
    assert "†" in rendered and "↓" in rendered


def test_09_run_and_checkpoint_round_trips():
    """1000 randomized TREC-run round trips and 1000 checkpoint round trips,
    all value-exact and re-serialization byte-stable."""
    rng = random.Random(424242)
    for trial in range(1000):
        rankings = []
        for q in range(rng.randint(1, 3)):
            n = rng.randint(1, 25)
            docs = rng.sample(range(10**6), n)
            scores = sorted((round(rng.uniform(-3, 40), 6) for _ in range(n)), reverse=True)
            rankings.append(Ranking(f"t{trial}q{q}", [f"d{d}" for d in docs], scores))
        text = write_run(rankings, tag="trial")
        back = parse_run(text)
        assert [r.query_id for r in back] == [r.query_id for r in rankings]
        for orig, echo in zip(rankings, back):
            assert list(echo.ids) == list(orig.ids)
            assert [e.score for e in echo.entries] == [e.score for e in orig.entries]
            assert [e.rank for e in echo.entries] == [e.rank for e in orig.entries]
        assert write_run(back, tag="trial") == text

    nprng = np.random.default_rng(31337)
    for _ in range(1000):
        hidden = int(nprng.integers(1, 9))
        f = int(nprng.integers(1, 33)) + N_DENSE
        scale = 10.0 ** nprng.integers(-6, 7)
        params = ScorerParams(
            w1=nprng.normal(size=(hidden, f)) * scale,
            b1=nprng.normal(size=hidden) * scale,
            w2=nprng.normal(size=hidden) * scale,
            b2=float(nprng.normal() * scale),
        )
        params.w1[0, 0] = 0.0  # exact zero must survive
        blob = save_params(params)
        back = load_params(blob)
        assert back.w1.tobytes() == params.w1.tobytes()
        assert back.b1.tobytes() == params.b1.tobytes()
        assert back.w2.tobytes() == params.w2.tobytes()
        assert back.b2 == params.b2
        assert save_params(back) == blob
