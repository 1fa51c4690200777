"""Rank metrics against hand fixtures and a naive oracle, t-test vs scipy,
and the comparison-table marker rules."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from rankforge.data import Qrels, Query, Ranking
from rankforge.errors import DataError
from rankforge.evaluation import (
    ALPHA,
    MetricReport,
    MetricSpec,
    SystemResult,
    _t_two_sided_p,
    build_table,
    compute_metric,
    evaluate_all,
    evaluate_run,
    paired_ttest,
    report_csv,
    rerank,
)
from rankforge.retrieval import Bm25Params, retrieve_topk
from rankforge.scorer import ScorerParams, init_params, load_params, save_params

GOLDEN = Path(__file__).parent / "golden"


def _ranking(qid: str, docs: list[str]) -> Ranking:
    return Ranking(qid, docs, [float(len(docs) - i) for i in range(len(docs))])


def _qrels(qid: str, grades: dict[str, int]) -> Qrels:
    return Qrels({qid: dict(grades)})


class TestMetricSpec:
    def test_cutoff_defaults(self):
        assert MetricSpec("ap").cutoff is None
        assert MetricSpec("ndcg").cutoff == 10
        assert MetricSpec("mrr").cutoff == 10
        assert MetricSpec("ap", cutoff=5).cutoff == 5

    def test_labels(self):
        assert MetricSpec("ap").label == "AP"
        assert MetricSpec("ndcg").label == "nDCG@10"
        assert MetricSpec("mrr", cutoff=5).label == "MRR@5"

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MetricSpec("recall")
        with pytest.raises(ValueError, match="cutoff"):
            MetricSpec("ap", cutoff=0)
        with pytest.raises(ValueError, match="threshold"):
            MetricSpec("ap", threshold=0)
        with pytest.raises(ValueError, match="gain"):
            MetricSpec("ndcg", gain="log")

    def test_rejects_a_field_its_kind_does_not_read(self):
        with pytest.raises(ValueError, match="ndcg reads gain, not threshold"):
            MetricSpec("ndcg", threshold=3)
        for kind in ("ap", "mrr"):
            with pytest.raises(ValueError, match=f"{kind} reads threshold, not gain"):
                MetricSpec(kind, gain="exponential")
        # the defaults stay accepted by every kind
        assert MetricSpec("ndcg", threshold=1).threshold == 1
        assert MetricSpec("ap", gain="linear").gain == "linear"


class TestAveragePrecision:
    def test_five_sixths_fixture(self):
        # hits at ranks 1 and 3 with two relevant docs: (1/1 + 2/3) / 2
        ranking = _ranking("q", ["d1", "d2", "d3"])
        qrels = _qrels("q", {"d1": 1, "d2": 0, "d3": 1})
        ap = compute_metric(ranking, qrels, MetricSpec("ap"))
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_unretrieved_relevant_caps_score(self):
        # a judged-relevant doc the run never returns still counts in R
        ranking = _ranking("q", ["d1"])
        qrels = _qrels("q", {"d1": 1, "d9": 1})
        assert compute_metric(ranking, qrels, MetricSpec("ap")) == pytest.approx(0.5)

    def test_perfect_run(self):
        ranking = _ranking("q", ["d1", "d2"])
        qrels = _qrels("q", {"d1": 2, "d2": 1})
        assert compute_metric(ranking, qrels, MetricSpec("ap")) == 1.0

    def test_threshold_binarization(self):
        # threshold 2 discards the grade-1 doc at rank 1
        ranking = _ranking("q", ["d1", "d2"])
        qrels = _qrels("q", {"d1": 1, "d2": 2})
        ap = compute_metric(ranking, qrels, MetricSpec("ap", threshold=2))
        assert ap == pytest.approx(0.5)

    def test_no_relevant_raises(self):
        ranking = _ranking("q", ["d1"])
        with pytest.raises(DataError, match="q"):
            compute_metric(ranking, _qrels("q", {"d1": 0}), MetricSpec("ap"))


class TestNdcg:
    def test_hand_formula(self):
        # ranked grades [1, 0, 2]; ideal [2, 1, 0]
        ranking = _ranking("q", ["d1", "d2", "d3"])
        qrels = _qrels("q", {"d1": 1, "d2": 0, "d3": 2})
        dcg = 1.0 / math.log2(2) + 0.0 + 2.0 / math.log2(4)
        idcg = 2.0 / math.log2(2) + 1.0 / math.log2(3)
        got = compute_metric(ranking, qrels, MetricSpec("ndcg"))
        assert got == pytest.approx(dcg / idcg, abs=1e-15)

    def test_exponential_gain(self):
        ranking = _ranking("q", ["d1", "d2"])
        qrels = _qrels("q", {"d1": 1, "d2": 3})
        spec = MetricSpec("ndcg", gain="exponential")
        dcg = 1.0 / math.log2(2) + 7.0 / math.log2(3)
        idcg = 7.0 / math.log2(2) + 1.0 / math.log2(3)
        assert compute_metric(ranking, qrels, spec) == pytest.approx(dcg / idcg)

    def test_unjudged_docs_gain_zero(self):
        ranking = _ranking("q", ["dx", "d1"])
        qrels = _qrels("q", {"d1": 2})
        got = compute_metric(ranking, qrels, MetricSpec("ndcg"))
        assert got == pytest.approx((2.0 / math.log2(3)) / 2.0)

    def test_cutoff_truncates_both_sides(self):
        # relevant doc at rank 3 contributes nothing to nDCG@2, and the
        # ideal is also truncated to two positions
        ranking = _ranking("q", ["dx", "dy", "d1"])
        qrels = _qrels("q", {"d1": 1, "d2": 1, "d3": 1})
        got = compute_metric(ranking, qrels, MetricSpec("ndcg", cutoff=2))
        assert got == 0.0

    def test_ideal_order_reaches_one(self):
        ranking = _ranking("q", ["d1", "d2", "d3"])
        qrels = _qrels("q", {"d1": 3, "d2": 2, "d3": 1})
        assert compute_metric(ranking, qrels, MetricSpec("ndcg")) == pytest.approx(1.0)

    def test_grade_one_doc_makes_query_evaluable(self):
        # ndcg counts every positive grade as relevant
        ranking = _ranking("q", ["d1"])
        qrels = _qrels("q", {"d1": 1})
        spec = MetricSpec("ndcg")
        assert compute_metric(ranking, qrels, spec) == pytest.approx(1.0)


class TestMrr:
    def test_reciprocal_of_first_hit(self):
        ranking = _ranking("q", ["dx", "dy", "d1"])
        qrels = _qrels("q", {"d1": 1})
        assert compute_metric(ranking, qrels, MetricSpec("mrr")) == pytest.approx(1 / 3)

    def test_zero_when_outside_cutoff(self):
        docs = [f"x{i}" for i in range(10)] + ["d1"]
        ranking = _ranking("q", docs)
        qrels = _qrels("q", {"d1": 1})
        assert compute_metric(ranking, qrels, MetricSpec("mrr")) == 0.0

    def test_threshold(self):
        ranking = _ranking("q", ["d1", "d2"])
        qrels = _qrels("q", {"d1": 1, "d2": 2})
        got = compute_metric(ranking, qrels, MetricSpec("mrr", threshold=2))
        assert got == pytest.approx(0.5)


def _oracle(ranked, judged, spec):
    """Naive re-implementation: set arithmetic per rank, no running state."""
    top = ranked if spec.cutoff is None else ranked[: spec.cutoff]
    if spec.kind == "ap":
        rel = {d for d, g in judged.items() if g >= spec.threshold}
        total = 0.0
        for r in range(1, len(top) + 1):
            if top[r - 1] in rel:
                total += len(rel & set(top[:r])) / r
        return total / len(rel)
    if spec.kind == "mrr":
        ranks = [r for r in range(1, len(top) + 1) if judged.get(top[r - 1], 0) >= spec.threshold]
        return 1.0 / ranks[0] if ranks else 0.0

    def gain_of(grade):
        return float(grade) if spec.gain == "linear" else 2.0 ** grade - 1.0

    dcg = 0.0
    for r in range(1, len(top) + 1):
        dcg += gain_of(judged.get(top[r - 1], 0)) / math.log2(r + 1)
    ideal_docs = sorted(judged, key=lambda d: -judged[d])
    if spec.cutoff is not None:
        ideal_docs = ideal_docs[: spec.cutoff]
    idcg = 0.0
    for r, d in enumerate(ideal_docs, start=1):
        idcg += gain_of(judged[d]) / math.log2(r + 1)
    return dcg / idcg


class TestMetricOracle:
    def test_randomized_against_naive_evaluation(self):
        rng = random.Random(31)
        specs = [
            MetricSpec("ap"),
            MetricSpec("ap", threshold=2),
            MetricSpec("mrr"),
            MetricSpec("mrr", cutoff=3, threshold=2),
            MetricSpec("ndcg"),
            MetricSpec("ndcg", cutoff=5, gain="exponential"),
        ]
        checked = 0
        for case in range(400):
            n = rng.randint(1, 20)
            docs = [f"d{i}" for i in range(n)]
            rng.shuffle(docs)
            judged = {d: rng.randint(0, 3) for d in docs if rng.random() < 0.7}
            for j in range(rng.randint(0, 3)):
                judged[f"u{j}"] = rng.randint(0, 3)  # judged but never retrieved
            if not judged:
                continue
            ranking = _ranking("q", docs)
            qrels = _qrels("q", judged)
            for spec in specs:
                floor = 1 if spec.kind == "ndcg" else spec.threshold
                if not any(g >= floor for g in judged.values()):
                    with pytest.raises(DataError):
                        compute_metric(ranking, qrels, spec)
                    continue
                got = compute_metric(ranking, qrels, spec)
                want = _oracle(docs, judged, spec)
                assert got == pytest.approx(want, abs=1e-9), (case, spec)
                assert 0.0 <= got <= 1.0
                checked += 1
        assert checked > 1000


class TestEvaluateRun:
    Q = MetricSpec("ap")

    def test_excludes_unjudged_queries(self):
        rankings = [_ranking("q1", ["d1"]), _ranking("q2", ["d1"])]
        qrels = Qrels({"q1": {"d1": 1}, "q2": {"d1": 0}})
        report = evaluate_run(rankings, qrels, self.Q)
        assert list(report.per_query) == ["q1"]
        assert report.mean == 1.0

    def test_sorted_aggregation_order(self):
        rankings = [_ranking(q, ["d1"]) for q in ("q9", "q10", "q2")]
        qrels = Qrels({q: {"d1": 1} for q in ("q9", "q10", "q2")})
        report = evaluate_run(rankings, qrels, self.Q)
        assert list(report.per_query) == ["q10", "q2", "q9"]

    def test_duplicate_query_rejected(self):
        rankings = [_ranking("q1", ["d1"]), _ranking("q1", ["d2"])]
        with pytest.raises(DataError, match="duplicate"):
            evaluate_run(rankings, Qrels({"q1": {"d1": 1}}), self.Q)

    def test_no_evaluable_queries(self):
        with pytest.raises(DataError, match="no evaluable"):
            evaluate_run([_ranking("q1", ["d1"])], Qrels({"q1": {"d1": 0}}), self.Q)

    def test_mean_is_arithmetic(self):
        rankings = [
            _ranking("q1", ["d1", "d2"]),   # AP 1.0
            _ranking("q2", ["dx", "d1"]),   # AP 0.5
        ]
        qrels = Qrels({"q1": {"d1": 1}, "q2": {"d1": 1}})
        report = evaluate_run(rankings, qrels, self.Q)
        assert report.mean == pytest.approx(0.75)

    def test_reads_each_query_judgments_once(self, monkeypatch):
        calls = []
        docs_for = Qrels.docs_for

        def counted(qrels, query_id):
            calls.append(query_id)
            return docs_for(qrels, query_id)

        monkeypatch.setattr(Qrels, "docs_for", counted)
        rankings = [_ranking("q1", ["d1"]), _ranking("q2", ["d1"]), _ranking("q3", ["d1"])]
        qrels = Qrels({"q1": {"d1": 1}, "q2": {"d1": 0}})
        for spec in (MetricSpec("ap"), MetricSpec("ndcg"), MetricSpec("mrr")):
            calls.clear()
            assert list(evaluate_run(rankings, qrels, spec).per_query) == ["q1"]
            assert calls == ["q1", "q2", "q3"]

    def test_evaluate_all_keys_by_label(self):
        rankings = [_ranking("q1", ["d1"])]
        qrels = Qrels({"q1": {"d1": 1}})
        specs = [MetricSpec("ap"), MetricSpec("ndcg"), MetricSpec("mrr")]
        out = evaluate_all(rankings, qrels, specs)
        assert set(out) == {"AP", "nDCG@10", "MRR@10"}
        with pytest.raises(ValueError, match="duplicate"):
            evaluate_all(rankings, qrels, [MetricSpec("ap"), MetricSpec("ap")])


class TestMetricReport:
    def test_sorted_and_validated(self):
        report = MetricReport.from_values("AP", {"q2": 0.5, "q1": 1.0})
        assert list(report.per_query) == ["q1", "q2"]
        assert report.mean == pytest.approx(0.75)

    def test_range_check(self):
        with pytest.raises(ValueError, match="outside"):
            MetricReport.from_values("AP", {"q1": 1.5})

    def test_empty(self):
        with pytest.raises(DataError, match="no evaluable"):
            MetricReport.from_values("AP", {})


class TestReportCsv:
    def test_exact_lines(self):
        reports = {
            "AP": MetricReport.from_values("AP", {"q1": 0.5, "q2": 1.0}),
        }
        expected = "qid,metric,value\nq1,AP,0.500000\nq2,AP,1.000000\nall,AP,0.750000\n"
        assert report_csv(reports) == expected

    def test_multiple_metrics_append_their_own_all_row(self):
        reports = {
            "AP": MetricReport.from_values("AP", {"q1": 1.0}),
            "MRR@10": MetricReport.from_values("MRR@10", {"q1": 0.25}),
        }
        lines = report_csv(reports).splitlines()
        assert lines[0] == "qid,metric,value"
        assert lines.count("all,AP,1.000000") == 1
        assert lines[-1] == "all,MRR@10,0.250000"


def _report(label, values):
    return MetricReport.from_values(label, dict(values))


class TestPairedTtest:
    def test_known_fixture(self):
        # diffs 0.1/0.2/0.3/0.4: t = 0.25 / (sd/2) with sd = sqrt(1/60)
        a = _report("AP", {"q1": 0.2, "q2": 0.3, "q3": 0.4, "q4": 0.5})
        b = _report("AP", {"q1": 0.1, "q2": 0.1, "q3": 0.1, "q4": 0.1})
        res = paired_ttest(a, b)
        assert res.df == 3
        assert res.t == pytest.approx(3.872983, abs=1e-3)
        assert res.p == pytest.approx(0.030466, abs=1e-4)
        assert not res.significant  # alpha is 0.01
        assert not res.degenerate

    def test_matches_scipy_on_random_reports(self):
        rng = random.Random(77)
        for trial in range(60):
            n = 2 if trial == 0 else rng.randint(3, 30)
            qids = [f"q{i}" for i in range(n)]
            av = {q: rng.random() for q in qids}
            bv = {q: rng.random() for q in qids}
            res = paired_ttest(_report("m", av), _report("m", bv))
            ref = stats.ttest_rel([av[q] for q in sorted(qids)], [bv[q] for q in sorted(qids)])
            assert res.t == pytest.approx(float(ref.statistic), rel=1e-9), trial
            assert res.p == pytest.approx(float(ref.pvalue), abs=1e-9), trial
            assert res.df == n - 1

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 9, 10, 49, 50, 999, 1000])
    def test_p_matches_scipy_on_grid(self, df):
        crit = float(stats.t.ppf(1.0 - ALPHA / 2.0, df))
        for t in (0.0, crit - 1e-6, crit + 1e-6, 10.0, 1e3):
            for signed in (t, -t):
                want = 2.0 * float(stats.t.sf(abs(signed), df))
                assert abs(_t_two_sided_p(signed, df) - want) < 1e-12, (df, signed)
        # the grid straddles the critical value, so the decision flips there
        assert _t_two_sided_p(crit - 1e-6, df) > ALPHA > _t_two_sided_p(crit + 1e-6, df)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 49, 1000])
    def test_p_does_not_increase_with_abs_t(self, df):
        ps = [_t_two_sided_p(t, df) for t in np.linspace(0.0, 50.0, 2001)]
        assert ps[0] == 1.0
        for earlier, later in zip(ps, ps[1:]):
            # p = 1 - A, so far in the tail it is rounding noise of about
            # 1e-15, within the stated 1e-13 absolute error
            if earlier > 1e-12:
                assert later <= earlier
            assert later - earlier < 1e-13

    def test_identical_reports_degenerate(self):
        a = _report("AP", {"q1": 0.5, "q2": 0.7})
        res = paired_ttest(a, _report("AP", {"q1": 0.5, "q2": 0.7}))
        assert res == res.__class__(0.0, 1, 1.0, False, degenerate=True)

    def test_constant_shift_degenerate(self):
        # 0.25 is exact in binary, so the per-query diffs are bit-identical
        a = _report("AP", {"q1": 0.75, "q2": 0.5})
        b = _report("AP", {"q1": 0.5, "q2": 0.25})
        res = paired_ttest(a, b)
        assert res.t == math.inf
        assert res.p == 0.0
        assert res.significant
        assert res.degenerate
        assert paired_ttest(b, a).t == -math.inf

    def test_swap_antisymmetry(self):
        a = _report("AP", {"q1": 0.9, "q2": 0.4, "q3": 0.6})
        b = _report("AP", {"q1": 0.3, "q2": 0.5, "q3": 0.2})
        fwd, rev = paired_ttest(a, b), paired_ttest(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)

    def test_common_shift_cancels(self):
        a = {"q1": 0.5, "q2": 0.3, "q3": 0.8}
        b = {"q1": 0.4, "q2": 0.35, "q3": 0.6}
        base = paired_ttest(_report("m", a), _report("m", b))
        shifted = paired_ttest(
            _report("m", {q: v + 0.1 for q, v in a.items()}),
            _report("m", {q: v + 0.1 for q, v in b.items()}),
        )
        assert shifted.t == pytest.approx(base.t, rel=1e-12)

    def test_query_set_mismatch_lists_extras(self):
        a = _report("AP", {"q1": 0.5, "q2": 0.5})
        b = _report("AP", {"q1": 0.5, "q3": 0.5})
        with pytest.raises(DataError, match=r"q2.*q3"):
            paired_ttest(a, b)

    def test_query_set_mismatch_is_one_short_line(self):
        # a 250-query baseline against a 50-query run names the 200 extras
        # by count and first few, not one by one
        a = _report("AP", {f"q{i:04d}": 0.5 for i in range(250)})
        b = _report("AP", {f"q{i:04d}": 0.5 for i in range(200, 250)})
        with pytest.raises(DataError) as err:
            paired_ttest(a, b)
        assert str(err.value) == (
            "query sets differ: 200 (q0000, q0001, q0002, ...) only in first, "
            "0 only in second"
        )
        with pytest.raises(DataError) as err:
            paired_ttest(b, _report("AP", {"q0201": 0.5, "q0200": 0.5, "x": 0.5}))
        assert str(err.value) == (
            "query sets differ: 48 (q0202, q0203, q0204, ...) only in first, "
            "1 (x) only in second"
        )

    def test_needs_two_queries(self):
        with pytest.raises(DataError, match=">= 2"):
            paired_ttest(_report("AP", {"q1": 0.5}), _report("AP", {"q1": 0.4}))


def _golden_systems():
    """Four systems over five queries, chosen so every marker appears."""
    qids = [f"q{i}" for i in range(1, 6)]

    def sys(label, ap, ndcg):
        return SystemResult(label, {
            "AP": _report("AP", dict(zip(qids, ap))),
            "nDCG@10": _report("nDCG@10", dict(zip(qids, ndcg))),
        })

    base = sys("base", [0.5] * 5, [0.4] * 5)
    # sysA beats sysB on AP significantly, ties it on nDCG
    sys_a = sys("sysA", [0.7, 0.7, 0.7, 0.7, 0.71], [0.6] * 5)
    sys_b = sys("sysB", [0.6] * 5, [0.6] * 5)
    # sysC trails the baseline: significantly on AP, insignificantly on nDCG
    sys_c = sys("sysC", [0.3] * 5, [0.39, 0.41, 0.38, 0.42, 0.35])
    return base, [sys_a, sys_b, sys_c]


class TestBuildTable:
    def test_golden_markdown(self):
        base, variants = _golden_systems()
        table = build_table(base, variants, pairings=[("sysA", "sysB")])
        want = (GOLDEN / "comparison_table.md").read_text(encoding="utf-8")
        assert table.to_markdown() == want

    def test_marker_semantics(self):
        base, variants = _golden_systems()
        table = build_table(base, variants, pairings=[("sysA", "sysB")])
        cells = table.cells
        a_ap = cells["sysA"]["AP"]
        assert a_ap.bold and a_ap.sig_sibling and a_ap.sig_baseline and not a_ap.below
        b_ap = cells["sysB"]["AP"]
        assert not b_ap.bold and not b_ap.sig_sibling and b_ap.sig_baseline
        # tied pairing bolds both sides and stars neither
        assert cells["sysA"]["nDCG@10"].bold and cells["sysB"]["nDCG@10"].bold
        assert not cells["sysA"]["nDCG@10"].sig_sibling
        c_nd = cells["sysC"]["nDCG@10"]
        assert c_nd.below and not c_nd.sig_baseline
        assert cells["sysC"]["AP"].below and cells["sysC"]["AP"].sig_baseline
        baseline_row = cells["base"]["AP"]
        assert not (baseline_row.bold or baseline_row.sig_baseline or baseline_row.below)

    def test_structure(self):
        base, variants = _golden_systems()
        table = build_table(base, variants)
        lines = table.to_markdown().splitlines()
        assert lines[0] == "| System | AP | nDCG@10 |"
        assert lines[1] == "| --- | --- | --- |"
        assert table.labels == ("base", "sysA", "sysB", "sysC")

    def test_duplicate_label(self):
        base, variants = _golden_systems()
        with pytest.raises(ValueError, match="duplicate"):
            build_table(base, [variants[0], variants[0]])

    def test_column_mismatch(self):
        base, variants = _golden_systems()
        odd = SystemResult("odd", {"AP": variants[0].reports["AP"]})
        with pytest.raises(DataError, match="columns"):
            build_table(base, [odd])

    def test_pairing_must_reference_variants(self):
        base, variants = _golden_systems()
        with pytest.raises(ValueError, match="pairing"):
            build_table(base, variants, pairings=[("sysA", "ghost")])
        with pytest.raises(ValueError, match="pairing"):
            build_table(base, variants, pairings=[("sysA", "base")])


class TestRerank:
    def test_zero_scorer_keeps_first_stage_order(self, small_world):
        cfg = small_world.scorer_config
        zero = ScorerParams(
            np.zeros((cfg.hidden, cfg.feature_dim)),
            np.zeros(cfg.hidden),
            np.zeros(cfg.hidden),
            0.0,
        )
        ex = small_world.examples[0]
        out = rerank(zero, small_world.ctx, ex.query, ex.ranking, depth=10)
        assert list(out.ids) == list(ex.ranking.ids)[:10]
        assert all(e.score == 0.0 for e in out.entries)

    def test_depth_truncates(self, small_world):
        params = init_params(small_world.scorer_config)
        ex = small_world.examples[0]
        out = rerank(params, small_world.ctx, ex.query, ex.ranking, depth=5)
        assert len(out.ids) == 5
        assert set(out.ids) <= set(ex.ranking.ids[:5])

    def test_permutation_of_head(self, small_world):
        params = init_params(small_world.scorer_config)
        ex = small_world.examples[0]
        depth = min(20, len(ex.ranking.ids))
        out = rerank(params, small_world.ctx, ex.query, ex.ranking, depth=depth)
        assert sorted(out.ids) == sorted(ex.ranking.ids[:depth])
        scores = [e.score for e in out.entries]
        assert scores == sorted(scores, reverse=True)

    def test_depth_validation(self, small_world):
        params = init_params(small_world.scorer_config)
        ex = small_world.examples[0]
        with pytest.raises(ValueError, match="depth"):
            rerank(params, small_world.ctx, ex.query, ex.ranking, depth=0)

    def test_deterministic(self, small_world):
        params = init_params(small_world.scorer_config)
        ex = small_world.examples[1]
        a = rerank(params, small_world.ctx, ex.query, ex.ranking, depth=100)
        b = rerank(params, small_world.ctx, ex.query, ex.ranking, depth=100)
        assert a == b

    @pytest.mark.parametrize(
        "weight, bad", [("b2", math.nan), ("b2", math.inf), ("b2", -math.inf), ("w2", math.nan)]
    )
    def test_non_finite_checkpoint_fails(self, small_world, weight, bad):
        params = init_params(small_world.scorer_config)
        if weight == "b2":
            params.b2 = bad
        else:
            params.w2[0] = bad
        params = load_params(save_params(params))  # which accepts any weight
        ex = small_world.examples[0]
        with pytest.raises(ValueError, match=r"non-finite score at rank 1\b"):
            rerank(params, small_world.ctx, ex.query, ex.ranking, depth=10)

    def test_served_rankings_pass_the_checked_constructor(self, small_world):
        """retrieve_topk and rerank skip the public checks; what they return
        is what the checked Ranking(...) builds from the same ids and scores."""
        params = init_params(small_world.scorer_config)
        for q in small_world.queries:
            first = retrieve_topk(small_world.index, Bm25Params(), q, 50)
            ranked = rerank(params, small_world.ctx, q, first, 30)
            for r in (first, ranked):
                assert r == Ranking(r.query_id, list(r.ids), r.scores.tolist())
                assert type(r.ids) is tuple and not r.scores.flags.writeable
