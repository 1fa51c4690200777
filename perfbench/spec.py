"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of `BENCHMARK.json`; `suite.py` rewrites
that file from it. Each workload is a generated dataset and the phases
run on it, each in a fresh process:

* experiment: `rankforge experiment` with the default config (the shape of
  acceptance gate test_07); training-bound, and the only phase that reads
  qrels or runs the optimizer;
* serve: BM25 retrieve_topk(depth=100) then evaluation.rerank(depth=100)
  with a fixed untrained checkpoint, for every query in turn, one
  closed-loop client; forward pass only, and each pass starts a new
  ScoringContext, so every (query, doc) feature key is new and the cache
  gets no hits. A qrels or optimizer change should not move its metrics.

`reference` times both phases; its `wall_s` and `peak_rss_mb` are the
experiment's. `rerank-serve` times the serve phase only, so there the
workload's process, whose wall time and peak RSS those two metrics report,
is the serve process. The traced run of either workload traces both
phases, so every per-layer metric is defined on both.
"""

from __future__ import annotations

RUN_SECONDS = 55
MIN_CYCLES = 2  # per run, so artifact digests can be compared
SERVE_QUERIES = 500  # per serve process of a timed run: one or two passes
TRACE_SERVE_QUERIES = 1000  # per serve process of a traced run: the p99 samples
DEPTH = 100  # first-stage depth and re-rank depth of the serve phase

# The datasets are `rankforge synth --noise 0.0` plus these flags. The
# rerank-serve one doubles the topic axis only, so each query keeps its
# 100-doc judged pool and only the data size grows. `experiment` says
# whether a timed run runs the experiment phase.
WORKLOADS = {
    "reference": {
        "synth": [],
        "experiment": True,
        "why": "default synth and experiment (the test_07 shape), then serving: "
        "training-bound, warm feature cache in training, cold in serving; 250 queries",
    },
    "rerank-serve": {
        "synth": ["--vocab", "10000", "--topics", "40", "--queries", "500"],
        "experiment": False,
        "why": "serving only, on 2x data (4,000 docs, 500 queries): retrieve + rerank "
        "with a cold feature cache, no training, no qrels; trace adds the 2x experiment",
    },
}

# Workloads left out, with the reason; suite.py copies them to record.json.
DROPPED_WORKLOADS = {
    "scaled-4x": "one experiment on 4x data takes ~46 s at 654 MB, and 4 + 22 runs "
    "per workload must fit in 3,420 s",
    "scaled-2x": "its ~18 s experiment fits only 2-3 times in a 55 s run: 5-seed "
    "spreads of wall_s 0.13 and queries_per_s 0.18, and 0.31 in an earlier set; "
    "its data now backs rerank-serve, whose trace keeps the 2x experiment",
}

# name -> (unit, better, bound, meaning). On a shared 2-vCPU x86_64 VM the
# CPU speed drifted by up to +-20% between 10 s windows, and it switched
# between speed regimes about 30% apart that lasted minutes. The medians of
# one run repeat within a few percent inside a regime, but 10-run spreads of
# the timings were 0.04-0.23, set by how the runs fell across regimes, so the
# timing bounds sit at the 0.25 ceiling. Two
# metrics are not gated and sit with the per-layer metrics below: the p99
# latency (10-run spread up to 0.21) and ndcg10_best (exact for a seed,
# but 0.08-0.20 across seeds with the data).
END_TO_END = {
    "wall_s": ("s", "lower", 0.25,
               "median wall time of the workload's fresh process: `rankforge "
               "experiment` on reference, the serve process on rerank-serve"),
    "peak_rss_mb": ("MB", "lower", 0.05,
                    "median peak RSS of those processes, from each child's "
                    "own rusage"),
    "setup_s": ("s", "lower", 0.25,
                "median wall time of one set-up: synth, config and checkpoint"),
    "queries_per_s": ("1/s", "higher", 0.25,
                      "median over serve processes of queries served divided by "
                      "that process's query-loop wall time"),
    "query_p50_ms": ("ms", "lower", 0.25,
                     "median latency of one query's retrieve + rerank, over "
                     "every query served in the run"),
    "serve_peak_rss_mb": ("MB", "lower", 0.05,
                          "median peak RSS of the serve processes (on "
                          "rerank-serve the same processes as peak_rss_mb)"),
}

# Per-layer metrics of the traced run: name -> (unit, better, what, moves).
# `*_s` are self times (span duration minus the time of child spans) unless
# marked inclusive. `serve.*` come from the traced serve process, the rest
# from the traced experiment process (synth.generate_s from the set-up).
_S, _N, _R, _B = "s", "count", "ratio", "bytes"
PER_LAYER = {
    "data.qrels_lookup_s": (_S, "lower", "Qrels.docs_for",
                            "wall_s on reference; its largest share is in "
                            "the 2x experiment of the rerank-serve trace; "
                            "not the serve metrics, which never call it"),
    "data.qrels_lookup_calls": (_N, "lower", "Qrels.docs_for calls", "wall_s on both"),
    "data.parse_s": (_S, "lower", "parse_path", "wall_s, small"),
    "retrieval.index_s": (_S, "lower", "build_index", "wall_s, small"),
    "retrieval.retrieve_s": (_S, "lower", "retrieve_topk (first stage)", "wall_s, small"),
    "retrieval.retrieve_calls": (_N, "lower", "retrieve_topk calls", "wall_s"),
    "scorer.extract_s": (_S, "lower", "extract_features, once per cache miss",
                         "wall_s on reference; queries_per_s"),
    "scorer.extract_calls": (_N, "lower", "extract_features calls (cache misses)",
                             "wall_s"),
    "scorer.features_calls": (_N, "lower", "ScoringContext.features lookups; "
                              "base of the hit ratio", "wall_s"),
    "scorer.cache_hit_ratio": (_R, "higher", "1 - extract_calls / features_calls",
                               "wall_s on reference (warm cache); "
                               "compare serve.cache_hit_ratio (cold)"),
    "scorer.cache_bytes": (_B, "lower", "computed: sum of nbytes of extracted "
                           "feature arrays (misses x 1030 x 8 today)",
                           "peak_rss_mb on both"),
    "scorer.stack_s": (_S, "lower", "ScoringContext.feature_matrix self time",
                       "wall_s on reference"),
    "scorer.forward_s": (_S, "lower", "score_batch, all callers", "wall_s"),
    "scorer.forward_train_s": (_S, "lower", "score_batch called by training",
                               "wall_s on reference"),
    "scorer.forward_rerank_s": (_S, "lower", "score_batch called by evaluation.rerank",
                                "wall_s"),
    "scorer.backward_s": (_S, "lower", "backward_batch (training)", "wall_s on reference"),
    "sampling.sample_s": (_S, "lower", "sample_instance", "wall_s on reference"),
    "sampling.negatives": (_N, "lower", "sampled negatives; base of the ratio", "wall_s"),
    "sampling.negatives_relevant_ratio": (_R, "lower",
                                          "share of sampled negatives judged grade >= 1",
                                          "wall_s on reference; ndcg10_best"),
    "losses.loss_s": (_S, "lower", "lce and ranknet called by training",
                      "wall_s on reference"),
    "losses.calls": (_N, "lower", "lce and ranknet calls by training", "wall_s"),
    "training.optimizer_s": (_S, "lower", "adamw_step",
                             "wall_s on reference; less in the 2x trace"),
    "training.optimizer_steps": (_N, "lower", "adamw_step calls (11,500 today)",
                                 "wall_s on both; shared plan prefixes would give 7,500"),
    "training.stage_s": (_S, "lower", "run_stage, inclusive", "wall_s on both"),
    "training.stages_run": (_N, "lower", "run_stage calls", "wall_s"),
    "evaluation.rerank_s": (_S, "lower", "evaluation.rerank self time", "wall_s"),
    "evaluation.metrics_s": (_S, "lower", "evaluate_all self time, "
                             "excluding qrels lookups", "wall_s"),
    "evaluation.tables_s": (_S, "lower", "build_table self time", "wall_s"),
    "experiment.prepare_s": (_S, "lower", "prepare self time", "wall_s"),
    "experiment.write_s": (_S, "lower", "artifact serializers and writers", "wall_s"),
    "experiment.artifact_bytes": (_B, "lower", "bytes in the artifact tree", "wall_s"),
    "ndcg10_best": (_R, "higher", "highest mean nDCG@10 among plans C, D, C->D and "
                    "D->C; exact for a seed", "a change that trains a worse model"),
    "synth.generate_s": (_S, "lower", "synth.generate in the set-up", "setup_s"),
    "trace.wall_s": (_S, "lower", "root span of the traced experiment", "wall_s"),
    "trace.other_s": (_S, "lower", "root self time: traced wall minus all "
                      "layer self times", "wall_s"),
    "trace.overhead_s": (_S, "lower", "traced minus untraced experiment process "
                         "wall time; one pair, so machine drift can make it negative",
                         "none"),
    "serve.parse_s": (_S, "lower", "parse_path in the serve process",
                      "not queries_per_s (outside the loop)"),
    "serve.index_s": (_S, "lower", "build_index in the serve process",
                      "not queries_per_s (outside the loop)"),
    "serve.retrieve_s": (_S, "lower", "retrieve_topk",
                         "queries_per_s, query_p50_ms"),
    "serve.retrieve_calls": (_N, "lower", "retrieve_topk calls", "queries_per_s"),
    "serve.extract_s": (_S, "lower", "extract_features",
                        "queries_per_s, query_p50_ms; a BM25 term-weight "
                        "change shows here"),
    "serve.extract_calls": (_N, "lower", "extract_features calls",
                            "queries_per_s, query_p50_ms"),
    "serve.features_calls": (_N, "lower", "ScoringContext.features lookups",
                             "queries_per_s, query_p50_ms"),
    "serve.cache_hit_ratio": (_R, "higher", "1 - extract_calls / features_calls "
                              "(0 today: every key is new)", "queries_per_s, query_p50_ms"),
    "serve.cache_bytes": (_B, "lower", "computed, as scorer.cache_bytes",
                          "serve_peak_rss_mb"),
    "serve.stack_s": (_S, "lower", "feature_matrix self time",
                      "queries_per_s, query_p50_ms"),
    "serve.forward_s": (_S, "lower", "score_batch via evaluation.rerank",
                        "queries_per_s, query_p50_ms"),
    "serve.rerank_s": (_S, "lower", "evaluation.rerank self time (sort, Ranking)",
                       "queries_per_s, query_p50_ms"),
    "serve.query_p99_ms": ("ms", "lower", "99th-percentile per-query latency of "
                           "retrieve + rerank in the untraced serve process of the "
                           "trace run: 1,000 samples, about 10 beyond it", "query_p50_ms"),
    "serve.wall_s": (_S, "lower", "root span of the traced serve process",
                     "queries_per_s"),
    "serve.other_s": (_S, "lower", "serve root self time", "queries_per_s"),
    "serve.overhead_s": (_S, "lower", "traced minus untraced serve process wall "
                         "time; one pair, as trace.overhead_s", "none"),
}


def benchmark_json() -> dict:
    """The content of BENCHMARK.json, in its fixed schema."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b, _, _) in PER_LAYER.items()
        ],
    }
