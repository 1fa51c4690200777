"""Re-ranking, rank metrics, paired significance, and comparison tables.

Metric conventions follow the trec_eval family: AP normalized by the number
of judged-relevant documents, nDCG with log2(rank+1) discounts and unjudged
docs counting zero gain, queries without relevant judgments excluded from
aggregates. Significance is a two-sided paired Student t-test; its df is
an integer, so the p-value is a finite series in closed form and no
statistics dependency is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .data import Qrels, Query, Ranking
from .errors import DataError
from .scorer import ScorerParams, ScoringContext, score_batch

__all__ = [
    "MetricSpec",
    "MetricReport",
    "SignificanceResult",
    "SystemResult",
    "ComparisonTable",
    "rerank",
    "compute_metric",
    "evaluate_run",
    "evaluate_all",
    "paired_ttest",
    "build_table",
    "report_csv",
]

ALPHA = 0.01  # significance level used throughout


@dataclass(frozen=True)
class MetricSpec:
    """Which metric to compute and under what conventions.

    cutoff None means full ranking depth; nDCG and MRR default to 10.
    threshold binarizes graded judgments for AP/MRR (grade >= threshold is
    relevant); the DL-style convention uses 2. gain applies to nDCG only.
    A kind rejects a non-default value of the field it does not read.
    """

    # the one field besides cutoff that each kind reads; the CLI and the
    # config loader route and check the other fields by it
    READS: ClassVar[Mapping[str, str]] = {"ap": "threshold", "mrr": "threshold", "ndcg": "gain"}

    kind: str  # "ap" | "ndcg" | "mrr"
    cutoff: int | None = None
    threshold: int = 1
    gain: str = "linear"  # "linear" | "exponential"

    def __post_init__(self):
        if self.kind not in self.READS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind in ("ndcg", "mrr") and self.cutoff is None:
            object.__setattr__(self, "cutoff", 10)
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if self.gain not in ("linear", "exponential"):
            raise ValueError(f"unknown gain {self.gain!r}")
        reads = self.READS[self.kind]
        for name in set(self.READS.values()) - {reads}:
            if getattr(self, name) != getattr(MetricSpec, name):
                raise ValueError(f"{self.kind} reads {reads}, not {name}")

    @property
    def label(self) -> str:
        base = {"ap": "AP", "ndcg": "nDCG", "mrr": "MRR"}[self.kind]
        return base if self.cutoff is None else f"{base}@{self.cutoff}"


@dataclass(frozen=True)
class MetricReport:
    """Per-query metric values plus their arithmetic mean."""

    per_query: Mapping[str, float]  # insertion order is query-id sorted
    mean: float

    @staticmethod
    def from_values(label: str, per_query: Mapping[str, float]) -> "MetricReport":
        ordered = {qid: per_query[qid] for qid in sorted(per_query)}
        if not ordered:
            raise DataError(f"{label}: no evaluable queries")
        for qid, v in ordered.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label}: query {qid} value {v} outside [0, 1]")
        return MetricReport(ordered, sum(ordered.values()) / len(ordered))


@dataclass(frozen=True)
class SignificanceResult:
    t: float
    df: int
    p: float
    significant: bool
    degenerate: bool = False


@dataclass(frozen=True)
class SystemResult:
    """One system's label and its report under each table column."""

    label: str
    reports: Mapping[str, MetricReport]  # column label -> report


def rerank(
    params: ScorerParams,
    ctx: ScoringContext,
    query: Query,
    ranking: Ranking,
    depth: int,
) -> Ranking:
    """Re-score the top `depth` entries; ties keep first-stage order.

    Entries beyond depth are dropped. An all-zero scorer therefore returns
    the input order, truncated.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    docs = ranking.ids[:depth]
    scores, _ = score_batch(params, ctx.feature_matrix(query, docs))
    order = np.argsort(-scores, kind="stable")
    ids = tuple(map(docs.__getitem__, order.tolist()))
    return Ranking._sorted(ranking.query_id, ids, scores[order])


def _gain(grade: int, spec: MetricSpec) -> float:
    return float(grade) if spec.gain == "linear" else float(2**grade - 1)


def compute_metric(ranking: Ranking, qrels: Qrels, spec: MetricSpec) -> float:
    """Single-query metric value in [0, 1].

    Raises DataError when the query has no relevant judgments for this
    metric; evaluate_run leaves such queries out.
    """
    value = _metric(ranking, qrels.docs_for(ranking.query_id), spec)
    if value is None:
        raise DataError(f"query {ranking.query_id}: no relevant judgments for {spec.label}")
    return value


def _metric(ranking: Ranking, judged: Mapping[str, int], spec: MetricSpec) -> float | None:
    """compute_metric given the query's judgments; None when none is relevant."""
    if not any(g >= spec.threshold for g in judged.values()):  # nDCG's threshold is 1
        return None
    top = ranking.ids[: spec.cutoff]

    if spec.kind == "ap":
        relevant = {d for d, g in judged.items() if g >= spec.threshold}
        hits = 0
        total = 0.0
        for i, doc in enumerate(top):
            if doc in relevant:
                hits += 1
                total += hits / (i + 1)
        return total / len(relevant)

    if spec.kind == "mrr":
        for i, doc in enumerate(top):
            if judged.get(doc, 0) >= spec.threshold:
                return 1.0 / (i + 1)
        return 0.0

    # ndcg: unjudged docs gain 0; ideal ordering over all judged docs
    dcg = sum(
        _gain(judged.get(doc, 0), spec) / math.log2(i + 2) for i, doc in enumerate(top)
    )
    ideal = sorted(judged.values(), reverse=True)
    if spec.cutoff is not None:
        ideal = ideal[: spec.cutoff]
    idcg = sum(_gain(g, spec) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg


def evaluate_run(
    rankings: Sequence[Ranking], qrels: Qrels, spec: MetricSpec
) -> MetricReport:
    """Evaluate every ranking with at least one relevant judgment.

    Queries with no relevant judgments (including queries absent from the
    qrels) are excluded from per-query values and the mean. Aggregation runs
    in query-id-sorted order for bit-stable means.
    """
    seen: set[str] = set()
    values: dict[str, float] = {}
    for ranking in rankings:
        if ranking.query_id in seen:
            raise DataError(f"duplicate ranking for query {ranking.query_id}")
        seen.add(ranking.query_id)
        value = _metric(ranking, qrels.docs_for(ranking.query_id), spec)
        if value is not None:
            values[ranking.query_id] = value
    if not values:
        raise DataError(f"{spec.label}: no evaluable queries in run")
    return MetricReport.from_values(spec.label, values)


def evaluate_all(
    rankings: Sequence[Ranking], qrels: Qrels, specs: Sequence[MetricSpec]
) -> dict[str, MetricReport]:
    """evaluate_run per spec, keyed by metric label."""
    out: dict[str, MetricReport] = {}
    for spec in specs:
        if spec.label in out:
            raise ValueError(f"duplicate metric label {spec.label}")
        out[spec.label] = evaluate_run(rankings, qrels, spec)
    return out


def report_csv(reports: Mapping[str, MetricReport]) -> str:
    """Rows `qid,metric,value`; one trailing `all` row per metric."""
    lines = ["qid,metric,value"]
    for label, report in reports.items():
        for qid, value in report.per_query.items():
            lines.append(f"{qid},{label},{value:.6f}")
        lines.append(f"all,{label},{report.mean:.6f}")
    return "".join(line + "\n" for line in lines)


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer df >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(|t| / sqrt(df)), df // 2 terms. The error is
    absolute: under 1e-13 for df below 5,000 (3e-13 at df 20,000), so a
    p-value below about 1e-13 may read as 0 or as a tiny negative.
    """
    theta = math.atan(abs(t) / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    odd = df % 2 == 1
    term = math.cos(theta) if odd else 1.0
    total = term if df > 1 else 0.0
    for k in range(3 if odd else 2, df, 2):
        term *= c2 * (k - 1) / k
        total += term
    if odd:
        return 1.0 - 2.0 / math.pi * (theta + math.sin(theta) * total)
    return 1.0 - math.sin(theta) * total


def _some(ids: set[str], shown: int = 3) -> str:
    """The count of a set of query ids and its first few, sorted."""
    head = sorted(ids)[:shown]
    more = ", ..." if len(ids) > shown else ""
    return f"{len(ids)} ({', '.join(head)}{more})" if head else "0"


def paired_ttest(a: MetricReport, b: MetricReport) -> SignificanceResult:
    """Two-sided paired Student t-test on per-query differences a - b.

    Zero-variance inputs short-circuit: all-equal reports give p = 1, a
    constant nonzero shift gives p = 0; both are flagged degenerate.
    """
    if set(a.per_query) != set(b.per_query):
        raise DataError(
            f"query sets differ: {_some(set(a.per_query) - set(b.per_query))} only in "
            f"first, {_some(set(b.per_query) - set(a.per_query))} only in second"
        )
    qids = sorted(a.per_query)
    n = len(qids)
    if n < 2:
        raise DataError(f"paired t-test needs >= 2 queries, got {n}")
    d = np.array([a.per_query[q] - b.per_query[q] for q in qids])
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return SignificanceResult(0.0, df, 1.0, False, degenerate=True)
        t = math.inf if mean > 0 else -math.inf
        return SignificanceResult(t, df, 0.0, True, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = _t_two_sided_p(t, df)
    return SignificanceResult(t, df, min(max(p, 0.0), 1.0), p < ALPHA)


@dataclass(frozen=True)
class _Cell:
    value: float
    bold: bool = False
    sig_sibling: bool = False
    sig_baseline: bool = False
    below: bool = False

    def render(self) -> str:
        text = f"{self.value:.4f}"
        if self.bold:
            text = f"**{text}**"
        if self.sig_sibling:
            text += "*"
        if self.sig_baseline:
            text += "†"
        if self.below:
            text += "↓"
        return text


@dataclass(frozen=True)
class ComparisonTable:
    """Baseline-first comparison with per-column markers.

    Bold marks the max within each sibling pair (ties bold both), `*` a
    significant sibling-pair difference (on the winning cell), a dagger a
    significant difference against the baseline, and a down arrow a mean
    strictly below the baseline's.
    """

    columns: tuple[str, ...]
    labels: tuple[str, ...]  # baseline first
    cells: Mapping[str, Mapping[str, _Cell]]  # label -> column -> cell

    def to_markdown(self) -> str:
        header = "| System | " + " | ".join(self.columns) + " |"
        rule = "| --- |" + " --- |" * len(self.columns)
        lines = [header, rule]
        for label in self.labels:
            row = self.cells[label]
            rendered = " | ".join(row[c].render() for c in self.columns)
            lines.append(f"| {label} | {rendered} |")
        return "".join(line + "\n" for line in lines)


def build_table(
    baseline: SystemResult,
    variants: Sequence[SystemResult],
    pairings: Sequence[tuple[str, str]] = (),
) -> ComparisonTable:
    """Assemble the comparison table; marker rules live in ComparisonTable."""
    columns = tuple(baseline.reports)
    systems = {baseline.label: baseline}
    for v in variants:
        if v.label in systems:
            raise ValueError(f"duplicate system label {v.label!r}")
        if tuple(v.reports) != columns:
            raise DataError(f"system {v.label}: columns differ from baseline")
        systems[v.label] = v
    for la, lb in pairings:
        for lab in (la, lb):
            if lab not in systems or lab == baseline.label:
                raise ValueError(f"pairing references unknown variant {lab!r}")

    cells: dict[str, dict[str, _Cell]] = {
        baseline.label: {c: _Cell(baseline.reports[c].mean) for c in columns}
    }
    for v in variants:
        row = {}
        for c in columns:
            rep = v.reports[c]
            sig = paired_ttest(rep, baseline.reports[c]).significant
            row[c] = _Cell(
                rep.mean,
                sig_baseline=sig,
                below=rep.mean < baseline.reports[c].mean,
            )
        cells[v.label] = row

    for la, lb in pairings:
        va, vb = systems[la], systems[lb]
        for c in columns:
            ma, mb = va.reports[c].mean, vb.reports[c].mean
            sig = paired_ttest(va.reports[c], vb.reports[c]).significant
            for label, mine, other in ((la, ma, mb), (lb, mb, ma)):
                if mine >= other:
                    cells[label][c] = replace(
                        cells[label][c], bold=True, sig_sibling=sig and mine > other
                    )

    labels = (baseline.label, *(v.label for v in variants))
    return ComparisonTable(columns, labels, cells)
