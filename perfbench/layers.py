"""Which rankforge functions the traced runs time, and the per-layer metrics.

Each target is the attribute a caller looks the function up through. A
target that no longer exists is reported on stderr and in the trace file
(`missing`), and its metrics read 0, so a refactor that renames one shows
up instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys

from spans import ROOT, Tracer, summarize

# (module, attribute path, span name)
_EXPERIMENT = [
    ("rankforge.data", "Qrels.docs_for", "data.qrels_lookup"),
    ("rankforge.experiment", "parse_path", "data.parse"),
    ("rankforge.experiment", "build_index", "retrieval.index"),
    ("rankforge.experiment", "retrieve_topk", "retrieval.retrieve"),
    ("rankforge.scorer", "ScoringContext.feature_matrix", "scorer.stack"),
    ("rankforge.training", "score_batch", "scorer.forward_train"),
    ("rankforge.evaluation", "score_batch", "scorer.forward_rerank"),
    ("rankforge.training", "backward_batch", "scorer.backward"),
    ("rankforge.training", "lce", "losses.loss"),
    ("rankforge.training", "ranknet", "losses.loss"),
    ("rankforge.training", "adamw_step", "training.optimizer"),
    ("rankforge.training", "run_stage", "training.stage"),
    ("rankforge.experiment", "rerank", "evaluation.rerank"),
    ("rankforge.experiment", "evaluate_all", "evaluation.metrics"),
    ("rankforge.experiment", "build_table", "evaluation.tables"),
    ("rankforge.experiment", "prepare", "experiment.prepare"),
    # the artifact serializers and the workspace that writes them
    ("rankforge.experiment", "write_run", "experiment.write"),
    ("rankforge.experiment", "report_csv", "experiment.write"),
    ("rankforge.experiment", "save_params", "experiment.write"),
    ("rankforge.experiment", "merged_train_csv", "experiment.write"),
    ("rankforge.experiment", "merged_val_csv", "experiment.write"),
    ("rankforge.experiment", "_Workspace.write_text", "experiment.write"),
    ("rankforge.experiment", "_Workspace.write_bytes", "experiment.write"),
]
_SERVE = [
    ("rankforge.data", "parse_path", "data.parse"),
    ("rankforge.retrieval", "build_index", "retrieval.index"),
    ("rankforge.retrieval", "retrieve_topk", "retrieval.retrieve"),
    ("rankforge.scorer", "ScoringContext.feature_matrix", "scorer.stack"),
    ("rankforge.evaluation", "score_batch", "scorer.forward_rerank"),
    ("rankforge.evaluation", "rerank", "evaluation.rerank"),
]
_SETUP = [("rankforge.cli", "generate", "synth.generate")]
TARGETS = {"experiment": _EXPERIMENT, "serve": _SERVE, "setup": _SETUP}


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


def install(tracer: Tracer, phase: str, relevant: set | None = None) -> None:
    """Wrap the phase's targets; those not found go to `tracer.missing`."""

    def wrap(module, path, make):
        try:
            owner, attr = _owner(module, path)
        except AttributeError:
            tracer.missing.append(f"{module}.{path}")
            print(f"perfbench: trace target {module}.{path} not found", file=sys.stderr)
            return
        tracer.patch(owner, attr, make)

    for module, path, name in TARGETS[phase]:
        wrap(module, path, lambda fn, name=name: tracer.timed(name, fn))
    if phase == "setup":
        return

    counters = tracer.counters

    def count_lookups(fn):
        def features(self, query, doc_id):
            counters["features_calls"] += 1
            return fn(self, query, doc_id)
        return features

    def count_bytes(fn):
        timed = tracer.timed("scorer.extract", fn)

        def extract_features(*args, **kwargs):
            x = timed(*args, **kwargs)
            counters["cache_bytes"] += getattr(x, "nbytes", 0)
            return x
        return extract_features

    wrap("rankforge.scorer", "ScoringContext.features", count_lookups)
    wrap("rankforge.scorer", "extract_features", count_bytes)

    if phase == "experiment":
        def count_negatives(fn):
            timed = tracer.timed("sampling.sample", fn)

            def sample_instance(*args, **kwargs):
                inst = timed(*args, **kwargs)
                counters["negatives"] += len(inst.negatives)
                counters["negatives_relevant"] += sum(
                    (inst.query_id, d) in relevant for d in inst.negatives
                )
                return inst
            return sample_instance

        wrap("rankforge.training", "sample_instance", count_negatives)


def judged_relevant(qrels_text: str) -> set[tuple[str, str]]:
    """(query, doc) pairs with grade >= 1, read apart from rankforge's parser."""
    pairs = set()
    for line in qrels_text.splitlines():
        parts = line.split()
        if len(parts) == 4 and int(parts[3]) >= 1:
            pairs.add((parts[0], parts[2]))
    return pairs


def derive(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced process, and any accounting errors."""
    rows = summarize(trace["names"], trace["spans"])
    counters = trace["counters"]
    errors = [f"trace target missing: {m}" for m in trace["missing"]]

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    roots = [s for s in trace["spans"] if s[3] < 0]
    wall = rows.get(ROOT, {}).get("total_s", 0.0)
    if len(roots) != 1 or trace["names"][roots[0][0]] != ROOT:
        errors.append(f"expected one root span, found {len(roots)}")
    accounted = sum(row["self_s"] for row in rows.values())
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        errors.append(f"self times add to {accounted}, traced wall is {wall}")

    lookups, misses = counters.get("features_calls", 0), calls("scorer.extract")
    negatives = counters.get("negatives", 0)
    m = {
        "data.qrels_lookup_s": self_s("data.qrels_lookup"),
        "data.qrels_lookup_calls": calls("data.qrels_lookup"),
        "data.parse_s": self_s("data.parse"),
        "retrieval.index_s": self_s("retrieval.index"),
        "retrieval.retrieve_s": self_s("retrieval.retrieve"),
        "retrieval.retrieve_calls": calls("retrieval.retrieve"),
        "scorer.extract_s": self_s("scorer.extract"),
        "scorer.extract_calls": misses,
        "scorer.features_calls": lookups,
        "scorer.cache_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "scorer.cache_bytes": counters.get("cache_bytes", 0),
        "scorer.stack_s": self_s("scorer.stack"),
        "scorer.forward_s": self_s("scorer.forward_train") + self_s("scorer.forward_rerank"),
        "scorer.forward_train_s": self_s("scorer.forward_train"),
        "scorer.forward_rerank_s": self_s("scorer.forward_rerank"),
        "scorer.backward_s": self_s("scorer.backward"),
        "sampling.sample_s": self_s("sampling.sample"),
        "sampling.negatives": negatives,
        "sampling.negatives_relevant_ratio":
            counters.get("negatives_relevant", 0) / negatives if negatives else 0.0,
        "losses.loss_s": self_s("losses.loss"),
        "losses.calls": calls("losses.loss"),
        "training.optimizer_s": self_s("training.optimizer"),
        "training.optimizer_steps": calls("training.optimizer"),
        "training.stage_s": rows.get("training.stage", {}).get("total_s", 0.0),
        "training.stages_run": calls("training.stage"),
        "evaluation.rerank_s": self_s("evaluation.rerank"),
        "evaluation.metrics_s": self_s("evaluation.metrics"),
        "evaluation.tables_s": self_s("evaluation.tables"),
        "experiment.prepare_s": self_s("experiment.prepare"),
        "experiment.write_s": self_s("experiment.write"),
        "synth.generate_s": self_s("synth.generate"),
        "trace.wall_s": wall,
        "trace.other_s": self_s(ROOT),
    }
    return m, errors


# serve metric -> the experiment-phase metric it is derived like
SERVE_METRICS = {
    "serve.parse_s": "data.parse_s",
    "serve.index_s": "retrieval.index_s",
    "serve.retrieve_s": "retrieval.retrieve_s",
    "serve.retrieve_calls": "retrieval.retrieve_calls",
    "serve.extract_s": "scorer.extract_s",
    "serve.extract_calls": "scorer.extract_calls",
    "serve.features_calls": "scorer.features_calls",
    "serve.cache_hit_ratio": "scorer.cache_hit_ratio",
    "serve.cache_bytes": "scorer.cache_bytes",
    "serve.stack_s": "scorer.stack_s",
    "serve.forward_s": "scorer.forward_rerank_s",
    "serve.rerank_s": "evaluation.rerank_s",
    "serve.wall_s": "trace.wall_s",
    "serve.other_s": "trace.other_s",
}
