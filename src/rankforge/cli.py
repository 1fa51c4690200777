"""Command-line surface.

Subcommands: index, retrieve, train, rerank, evaluate, compare, synth,
experiment. Every command is deterministic given its inputs and seeds; any
failure prints a single `error: <message>` line on stderr and exits nonzero.
Each command imports the training, evaluation and scoring code it runs inside
its `cmd_*` function, so a command that runs none of it loads none of it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .data import (
    parse_corpus,
    parse_path,
    parse_qrels,
    parse_queries,
    parse_run,
    write_run,
)
from .errors import DataError, RankforgeError
from .retrieval import Bm25Params, build_index, retrieve_topk
from .synth import SynthSpec, generate, write_dataset

if TYPE_CHECKING:
    from .evaluation import MetricSpec

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # single-line machine-parseable errors
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_metrics(spec: str, threshold: int, gain: str) -> tuple[MetricSpec, ...]:
    """Parse 'ap,ndcg@10,mrr@10' style metric lists. Each flag goes to the
    metrics that read it (`MetricSpec.READS`); a non-default one that no
    metric reads is a DataError."""
    from .evaluation import MetricSpec

    flags = {"threshold": threshold, "gain": gain}
    out = []
    for item in spec.split(","):
        item = item.strip().lower()
        if not item:
            continue
        name, _, cut = item.partition("@")
        cutoff = None
        if cut:
            try:
                cutoff = int(cut)
            except ValueError:
                raise DataError(f"bad metric cutoff in {item!r}") from None
        field = MetricSpec.READS.get(name)  # None for an unknown kind, left to MetricSpec
        out.append(MetricSpec(kind=name, cutoff=cutoff, **({field: flags[field]} if field else {})))
    if not out:
        raise DataError("no metrics given")
    read = {MetricSpec.READS[m.kind] for m in out}
    for flag, value in flags.items():
        if flag not in read and value != getattr(MetricSpec, flag):
            readers = " and ".join(k for k, f in MetricSpec.READS.items() if f == flag)
            raise DataError(f"--{flag} is read by {readers} only, and no such metric is given")
    return tuple(out)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")


def cmd_index(args) -> int:
    corpus = parse_path(args.corpus, parse_corpus)
    index = build_index(corpus)
    print(f"documents: {index.size}")
    print(f"terms: {len(index.terms)}")
    print(f"postings: {len(index.docs)}")
    print(f"avg_doc_length: {index.avg_doc_length:.4f}")
    return 0


def cmd_retrieve(args) -> int:
    corpus = parse_path(args.corpus, parse_corpus)
    queries = parse_path(args.queries, parse_queries)
    index = build_index(corpus)
    params = Bm25Params(k1=args.k1, b=args.b)
    rankings = [retrieve_topk(index, params, q, args.depth) for q in queries]
    _write_or_print(write_run(rankings, tag="bm25"), args.out)
    return 0


def cmd_train(args) -> int:
    from .experiment import load_config, train_plan

    cfg = load_config(args.config, seed=args.seed, out=args.out)
    plan_dir, logs = train_plan(cfg, args.plan)
    steps = sum(len(log.losses) for log in logs)
    elapsed = sum(log.wall_seconds for log in logs)
    print(f"trained plan {args.plan}: {steps} steps in {elapsed:.1f}s")
    print(f"wrote {plan_dir / 'params.bin'}")
    return 0


def cmd_rerank(args) -> int:
    from .evaluation import rerank
    from .scorer import ScoringContext, load_params

    corpus = parse_path(args.corpus, parse_corpus)
    queries = {q.id: q for q in parse_path(args.queries, parse_queries)}
    rankings = parse_path(args.run, parse_run)
    try:
        params = load_params(Path(args.params).read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read {args.params}: {exc.strerror or exc}") from exc
    index = build_index(corpus)
    bm25 = Bm25Params()  # the settings every checkpoint was trained on
    out_rankings = []
    for ranking in rankings:
        if ranking.query_id not in queries:
            raise DataError(f"run query {ranking.query_id} missing from queries file")
        # each query is re-ranked once, so its context holds only its own rows
        ctx = ScoringContext(corpus, index, bm25, params.buckets)
        out_rankings.append(
            rerank(params, ctx, queries[ranking.query_id], ranking, args.depth)
        )
    _write_or_print(write_run(out_rankings, tag="rerank"), args.out)
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate_all, report_csv

    rankings = parse_path(args.run, parse_run)
    qrels = parse_path(args.qrels, parse_qrels)
    specs = _parse_metrics(args.metrics, args.threshold, args.gain)
    reports = evaluate_all(rankings, qrels, specs)
    _write_or_print(report_csv(reports), args.out)
    for label, report in reports.items():
        print(f"{label}: {report.mean:.4f} over {len(report.per_query)} queries",
              file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    from .evaluation import SystemResult, build_table, evaluate_all

    qrels = parse_path(args.qrels, parse_qrels)
    specs = _parse_metrics(args.metrics, args.threshold, args.gain)

    def system(path: str) -> SystemResult:
        rankings, text = parse_path(path, lambda text: (parse_run(text), text))
        reports = evaluate_all(rankings, qrels, specs)  # an empty run fails here
        # the system's label is its tag, the sixth field of every run line
        return SystemResult(text.split(None, 6)[5], reports)

    baseline = system(args.baseline)
    variants = [system(p) for p in args.runs]
    pairings = []
    if args.pairs:
        for pair in args.pairs.split(","):
            a, sep, b = pair.partition(":")
            if not sep or not a or not b:
                raise DataError(f"bad --pairs entry {pair!r} (want LABEL:LABEL)")
            pairings.append((a, b))
    table = build_table(baseline, variants, pairings)
    _write_or_print(table.to_markdown(), args.out)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        vocab_size=args.vocab,
        topics=args.topics,
        docs_per_topic=args.docs_per_topic,
        queries=args.queries,
        noise=args.noise,
        seed=args.seed,
    )
    paths = write_dataset(generate(spec), args.out)
    for name in ("corpus", "queries", "qrels", "teacher"):
        print(f"wrote {paths[name]}")
    return 0


def cmd_experiment(args) -> int:
    from .experiment import RQ_REPORTS, load_config, run_experiment

    cfg = load_config(args.config, seed=args.seed, out=args.out)
    started = time.perf_counter()
    summary = run_experiment(cfg)
    elapsed = time.perf_counter() - started
    for rel, *_ in RQ_REPORTS:
        print(f"wrote {cfg.out / rel}")
    means, vs_bm25 = summary["means"], summary["vs_bm25"]
    for label in sorted(means):  # every system but bm25 has a delta to it
        vs = f" ({vs_bm25[label]['nDCG@10']:+.4f} vs bm25)" if label in vs_bm25 else ""
        print(f"nDCG@10 {label}: {means[label]['nDCG@10']:.4f}{vs}")
    print(f"best single: {summary['best_single']}, best multi: {summary['best_multi']}")
    print(f"completed in {elapsed:.1f}s")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankforge", description="Desk-scale re-ranker fine-tuning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("index", cmd_index, "build an inverted index and print its stats")
    p.add_argument("--corpus", required=True, help="corpus TSV (id<TAB>text)")

    p = add("retrieve", cmd_retrieve, "BM25 retrieval to a TREC run file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--depth", type=int, default=100, help="retrieval depth (default 100)")
    p.add_argument("--k1", type=float, default=Bm25Params.k1)
    p.add_argument("--b", type=float, default=Bm25Params.b)
    p.add_argument("--out", default=None, help="run file (stdout if omitted)")

    p = add("train", cmd_train, "train one named plan from an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--plan", required=True, help="plan name, e.g. C, D, C->D, D->C")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output directory")

    p = add("rerank", cmd_rerank, "re-rank a run with a trained checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--run", required=True, help="first-stage TREC run")
    p.add_argument("--params", required=True, help="checkpoint file")
    p.add_argument("--depth", type=int, default=100, help="rerank depth (default 100)")
    p.add_argument("--out", default=None, help="run file (stdout if omitted)")

    p = add("evaluate", cmd_evaluate, "evaluate a run against qrels, CSV output")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default="ap,ndcg@10,mrr@10")
    p.add_argument("--threshold", type=int, default=1, help="binarization grade")
    p.add_argument("--gain", default="linear", choices=("linear", "exponential"))
    p.add_argument("--out", default=None, help="CSV file (stdout if omitted)")

    p = add("compare", cmd_compare, "significance-marked comparison table")
    p.add_argument("--qrels", required=True)
    p.add_argument("--baseline", required=True, help="baseline run file")
    p.add_argument("runs", nargs="*", help="variant run files")
    p.add_argument("--pairs", default="", help="sibling pairs LABEL:LABEL,...")
    p.add_argument("--metrics", default="ap,ndcg@10,mrr@10")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--gain", default="linear", choices=("linear", "exponential"))
    p.add_argument("--out", default=None, help="markdown file (stdout if omitted)")

    p = add("synth", cmd_synth, "generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--vocab", type=int, default=5000)
    p.add_argument("--topics", type=int, default=20)
    p.add_argument("--docs-per-topic", type=int, default=100)
    p.add_argument("--queries", type=int, default=250)
    p.add_argument("--noise", type=float, default=0.5)

    p = add("experiment", cmd_experiment, "run the full plan comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RankforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
