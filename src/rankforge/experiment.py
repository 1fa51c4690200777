"""Experiment configuration and the RQ1/RQ2/RQ3 comparison driver.

A JSON config is the single source of truth: data paths, scorer and sampler
settings, named train plans, metric specs, and seeds. The driver trains
every named plan from one shared initialization, training each distinct
stage prefix once: a multi-stage plan such as C->D continues from the
checkpoint of C, whose stage it starts with. Plans with different first
stages share nothing, so these subtrees train in parallel in forked
workers, one lane per usable CPU. It re-ranks the
first-stage run with each checkpoint (plus the untrained scorer as
baseline), evaluates, and emits three markdown tables: single-stage C vs D,
C->D vs D->C, and best-single vs best-multi by mean nDCG@10.

All component randomness is derived from the master seed via tagged
substreams, so outputs are byte-identical across runs on one platform.
A stage's seeds follow the master seed and the stage's position in its
plan, not the plan's name, so plans with identical leading stages share
them. Timing is never written into artifacts.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, NoReturn, Sequence

from .data import (
    Qrels,
    Query,
    Ranking,
    TeacherRanking,
    parse_corpus,
    parse_path,
    parse_qrels,
    parse_queries,
    parse_run,
    parse_teacher,
    write_run,
)
from .errors import DataError
from .evaluation import (
    MetricReport,
    MetricSpec,
    SystemResult,
    build_table,
    evaluate_all,
    report_csv,
    rerank,
)
from .retrieval import Bm25Params, build_index, retrieve_topk
from .rng import substream
from .scorer import (
    ScorerConfig,
    ScorerParams,
    ScoringContext,
    init_params,
    save_params,
)
from .training import (
    QueryExample,
    SamplerConfig,
    StageConfig,
    TrainLog,
    run_plan,
    split_train_val,
    stage_pool,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "default_plan_specs",
    "run_experiment",
    "prepare",
    "plan_dir_name",
    "train_plan",
    "merged_train_csv",
    "merged_val_csv",
]

_INIT_TAG = 0x494E4954
_EVAL_TAG = 0x4556414C
_VALS_TAG = 0x56414C53
_STAGE_TAG = 0x53544147
_SAMPLER_TAG = 0x534D504C

# the baseline systems, each naming its directory, and the files beside them
_BM25, _UNTRAINED, _FIRST_STAGE, _SUMMARY = "bm25", "untrained", "first_stage.txt", "summary.json"
# The RQ reports: file, title, the rows ahead of the pair (the baseline
# first), and the pair of plans it compares (None: the best of each earlier
# pair by mean nDCG@10).
RQ_REPORTS = (
    ("rq1.md", "RQ1: single-stage fine-tuning", (_UNTRAINED, _BM25), ("C", "D")),
    ("rq2.md", "RQ2: stage order in multi-stage fine-tuning", (_UNTRAINED,), ("C->D", "D->C")),
    ("rq3.md", "RQ3: best single stage vs best multi stage", (_UNTRAINED,), None),
)
RQ_PLAN_NAMES = tuple(name for *_, pair in RQ_REPORTS if pair for name in pair)
_TOP_LEVEL = {_BM25, _UNTRAINED, _FIRST_STAGE, _SUMMARY, *(rel for rel, *_ in RQ_REPORTS)}

Plan = tuple[StageConfig, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: Path
    queries: Path
    qrels: Path
    teacher: Path | None
    first_stage: str  # "build" or a run-file path (resolved)
    out: Path
    seed: int
    retrieve_depth: int
    rerank_depth: int
    eval_fraction: float
    val_fraction: float
    scorer: ScorerConfig
    bm25: Bm25Params
    metrics: tuple[MetricSpec, ...]
    plans: dict[str, Plan]  # in config order


def default_plan_specs() -> dict:
    """Desk-scale plan definitions used when a config omits `plans`."""
    lce = {"loss": "lce", "lr": 1e-3, "steps": 2000}
    return {
        "C": [lce],
        "D": [{"loss": "ranknet", "lr": 1e-3, "steps": 2000}],
        "C->D": [lce, {"loss": "ranknet", "lr": 1e-5, "steps": 1000}],
        "D->C": [
            {"loss": "ranknet", "lr": 1e-3, "steps": 2000},
            dict(lce, steps=2500),
        ],
    }


_TOP_KEYS = {
    "corpus", "queries", "qrels", "teacher", "first_stage", "out", "seed",
    "retrieve_depth", "rerank_depth", "eval_fraction", "val_fraction",
    "scorer", "bm25", "metrics", "plans",
}
_STAGE_KEYS = {"loss", "lr", "steps", "val_interval"}
_SAMPLER_KEYS = {"negatives", "pool_depth"}
_SCORER_KEYS = {"buckets", "hidden"}
_BM25_KEYS = {"k1", "b"}
_METRIC_KEYS = {"kind", "cutoff", "threshold", "gain"}


def _object(value: object, where: str, keys: set[str]) -> Mapping:
    """value, checked to be a JSON object whose keys all lie in keys."""
    if not isinstance(value, Mapping):
        raise DataError(f"{where} must be a JSON object")
    unknown = set(value) - keys
    if unknown:
        raise DataError(f"{where} has unknown keys {sorted(unknown)}")
    return value


def _integer(raw: Mapping, key: str, where: str, default: int | None = None) -> int | None:
    """raw[key], checked to be a JSON integer (not a bool); default when absent."""
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: {key!r} must be a JSON integer, not {type(value).__name__}")
    return value


def _number(raw: Mapping, key: str, where: str, default: float | None = None) -> float | None:
    """raw[key] as a float, checked to be a JSON number (not a bool); default when absent."""
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{where}: {key!r} must be a JSON number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise DataError(f"{where}: {key!r} is too large for a float") from None


def _stage_from_dict(raw: object, plan_name: str, stage_idx: int, seed: int) -> StageConfig:
    """The stage at stage_idx of its plan, with seeds drawn from the master
    seed and that position only."""
    where = f"plan {plan_name} stage {stage_idx}"
    loss = raw.get("loss") if isinstance(raw, Mapping) else None
    # a ranknet stage draws no negatives; an unknown loss is left to StageConfig
    raw = _object(raw, where, _STAGE_KEYS if loss == "ranknet" else _STAGE_KEYS | _SAMPLER_KEYS)
    for key in ("loss", "lr", "steps"):
        if key not in raw:
            raise DataError(f"{where} missing {key!r}")
    sampler = None
    try:
        if loss in ("lce", "bce"):
            sampler = SamplerConfig(
                negatives=_integer(raw, "negatives", where, SamplerConfig.negatives),
                pool_depth=_integer(raw, "pool_depth", where, SamplerConfig.pool_depth),
                seed=substream(seed, _SAMPLER_TAG, stage_idx),
            )
        return StageConfig(
            loss=loss,
            lr=_number(raw, "lr", where),
            max_steps=_integer(raw, "steps", where),
            val_interval=_integer(raw, "val_interval", where, StageConfig.val_interval),
            sampler=sampler,
            seed=substream(seed, _STAGE_TAG, stage_idx),
        )
    except ValueError as exc:  # a value the sampler or the stage rejects
        raise DataError(f"{where}: {exc}") from None


def _metric_from_dict(raw: object, idx: int) -> MetricSpec:
    where = f"metric {idx}"
    kind = raw.get("kind") if isinstance(raw, Mapping) else None
    # gain weighs nDCG's grades, threshold binarizes them for AP and MRR;
    # an unknown kind is left to MetricSpec
    unused = {"threshold"} if kind == "ndcg" else {"gain"} if kind in ("ap", "mrr") else set()
    raw = _object(raw, where, _METRIC_KEYS - unused)
    if "kind" not in raw:
        raise DataError(f"{where} missing 'kind'")
    return MetricSpec(
        kind=raw["kind"],
        cutoff=_integer(raw, "cutoff", where),
        threshold=_integer(raw, "threshold", where, MetricSpec.threshold),
        gain=raw.get("gain", MetricSpec.gain),
    )


def _resolve_plans(raw_plans: object, seed: int) -> dict[str, Plan]:
    """Each plan's JSON list of stages, at least one, as a tuple seeded by
    stage position. A plan's directory name must be a single path
    component of its own, not a name the driver writes at the top level
    (`_TOP_LEVEL`), and holding no whitespace (a run line's fields split
    on it)."""
    if not isinstance(raw_plans, Mapping):
        raise DataError("config 'plans' must be a JSON object")
    plans: dict[str, Plan] = {}
    owners: dict[str, str] = {}  # directory name -> plan name
    for name, body in raw_plans.items():
        sub = plan_dir_name(name)
        spaced = sub.split() != [sub]  # also the empty name
        if spaced or "/" in sub or "\\" in sub or sub in {".", "..", *_TOP_LEVEL}:
            raise DataError(f"plan {name!r}: {sub!r} cannot name its artifact directory")
        if sub in owners:
            raise DataError(f"plans {owners[sub]!r} and {name!r} share the directory {sub!r}")
        owners[sub] = name
        if not isinstance(body, list) or not body:
            raise DataError(f"plan {name}: expected a list of stages, at least one")
        plans[name] = tuple(_stage_from_dict(stage, name, i, seed) for i, stage in enumerate(body))
    return plans


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, rejecting a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DataError(f"config has duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(
    path: str | Path, seed: int | None = None, out: str | Path | None = None
) -> ExperimentConfig:
    """Parse and validate an experiment config; flags override config fields.

    Relative paths are resolved against the config file's directory.
    """
    path = Path(path)

    def reject(name: str) -> NoReturn:  # json.loads accepts NaN and Infinity, not JSON
        raise DataError(f"config {path}: {name} is not a JSON number")

    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys,
                         parse_constant=reject)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    _object(raw, f"config {path}", _TOP_KEYS)
    try:
        return _config_from_dict(raw, path.parent, seed, out)
    except (TypeError, ValueError) as exc:  # a wrong JSON type, or a value a component rejects
        raise DataError(f"config {path}: {exc}") from None


def _config_from_dict(
    raw: Mapping, base: Path, seed: int | None, out: str | Path | None
) -> ExperimentConfig:
    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    for key in ("corpus", "queries", "qrels"):
        if key not in raw:
            raise DataError(f"config missing required key {key!r}")

    master_seed = _integer(raw, "seed", "config", 0) if seed is None else int(seed)

    data_paths = {key: resolve(raw[key]) for key in ("corpus", "queries", "qrels")}
    teacher = resolve(raw["teacher"]) if raw.get("teacher") else None
    for key, p in {**data_paths, "teacher": teacher}.items():
        if p is not None and not p.is_file():
            raise DataError(f"{key} path does not exist: {p}")

    first_stage = raw.get("first_stage", "build")
    if first_stage != "build":
        fs_path = resolve(first_stage)
        if not fs_path.is_file():
            raise DataError(f"first_stage run does not exist: {fs_path}")
        first_stage = str(fs_path)

    if out is not None:
        out_path = Path(out)
    elif "out" in raw:
        out_path = resolve(raw["out"])
    else:
        raise DataError("config missing output directory (key 'out' or --out)")

    where = "config 'scorer'"
    scorer_raw = _object(raw.get("scorer", {}), where, _SCORER_KEYS)
    scorer = ScorerConfig(
        buckets=_integer(scorer_raw, "buckets", where, ScorerConfig.buckets),
        hidden=_integer(scorer_raw, "hidden", where, ScorerConfig.hidden),
        seed=substream(master_seed, _INIT_TAG),
    )
    where = "config 'bm25'"
    bm25_raw = _object(raw.get("bm25", {}), where, _BM25_KEYS)
    bm25 = Bm25Params(
        k1=_number(bm25_raw, "k1", where, Bm25Params.k1),
        b=_number(bm25_raw, "b", where, Bm25Params.b),
    )
    metrics_raw = raw.get(
        "metrics",
        [{"kind": "ap"}, {"kind": "ndcg", "cutoff": 10}, {"kind": "mrr", "cutoff": 10}],
    )
    if not isinstance(metrics_raw, list):
        raise DataError("config 'metrics' must be a list of objects")
    metrics = tuple(_metric_from_dict(m, i) for i, m in enumerate(metrics_raw))
    labels = [m.label for m in metrics]
    if len(set(labels)) != len(labels):
        raise DataError("metric labels must be unique")

    depths = {key: _integer(raw, key, "config", 100) for key in ("retrieve_depth", "rerank_depth")}
    for key, depth in depths.items():
        if depth < 1:
            raise DataError(f"config: {key!r} must be >= 1, got {depth}")
    fractions = {
        key: _number(raw, key, "config", default)
        for key, default in (("eval_fraction", 0.2), ("val_fraction", 0.01))
    }
    for key, fraction in fractions.items():
        if not 0.0 < fraction < 1.0:
            raise DataError(f"config: {key!r} must be in (0, 1), got {fraction}")

    plans = _resolve_plans(raw.get("plans", default_plan_specs()), master_seed)

    return ExperimentConfig(
        corpus=data_paths["corpus"],
        queries=data_paths["queries"],
        qrels=data_paths["qrels"],
        teacher=teacher,
        first_stage=first_stage,
        out=out_path,
        seed=master_seed,
        scorer=scorer,
        bm25=bm25,
        metrics=metrics,
        plans=plans,
        **depths,
        **fractions,
    )


@dataclass
class PreparedData:
    """Everything the driver needs after parsing, indexing, and splitting."""

    qrels: Qrels
    ctx: ScoringContext
    first_stage: dict[str, Ranking]
    eval_queries: list[Query]
    train_examples: list[QueryExample]
    val_examples: list[QueryExample]


def prepare(cfg: ExperimentConfig) -> PreparedData:
    """Parse inputs, build/read the first-stage run, and split queries.

    A training query's example holds its parsed judgments, the qrels' own
    map, from which `stage_pool` picks the positive. The query is kept when
    every stage of the config can build its `stage_pool` from documents the
    corpus holds; its pools are then extracted into `ctx`'s feature memo,
    before any training.
    """
    corpus = parse_path(cfg.corpus, parse_corpus)
    queries = {q.id: q for q in parse_path(cfg.queries, parse_queries)}
    qrels = parse_path(cfg.qrels, parse_qrels)
    teachers: dict[str, TeacherRanking] = {}
    if cfg.teacher is not None:
        teachers = {t.query_id: t for t in parse_path(cfg.teacher, parse_teacher)}

    index = build_index(corpus)
    ctx = ScoringContext(corpus, index, cfg.bm25, cfg.scorer.buckets)

    if cfg.first_stage == "build":
        first_stage = {
            qid: retrieve_topk(index, cfg.bm25, queries[qid], cfg.retrieve_depth)
            for qid in sorted(queries)
        }
    else:
        first_stage = {r.query_id: r for r in parse_path(cfg.first_stage, parse_run)}

    query_list = [queries[qid] for qid in sorted(queries)]
    train_pool, eval_queries = split_train_val(
        query_list, cfg.eval_fraction, seed=substream(cfg.seed, _EVAL_TAG)
    )
    for q in eval_queries:
        if q.id not in first_stage:
            raise DataError(f"evaluation query {q.id} has no first-stage ranking")

    # a query is trainable when every stage of the config can build its pool
    stages = list(dict.fromkeys(stage for plan in cfg.plans.values() for stage in plan))
    examples: list[QueryExample] = []
    dropped: list[str] = []
    for q in train_pool:
        ex = QueryExample(q, qrels.by_query.get(q.id), first_stage.get(q.id),
                          teachers.get(q.id))
        try:
            ctx.feature_matrix(q, list(dict.fromkeys(
                d for stage in stages for d in stage_pool(ex, stage)
            )))
            examples.append(ex)
        except DataError as exc:
            dropped.append(str(exc))
    if len(examples) < 2:
        raise DataError(
            f"only {len(examples)} trainable queries"
            + (f"; first dropped {dropped[0]}" if dropped else "")
        )
    train_examples, val_examples = split_train_val(
        examples, cfg.val_fraction, seed=substream(cfg.seed, _VALS_TAG)
    )

    return PreparedData(
        qrels=qrels,
        ctx=ctx,
        first_stage=first_stage,
        eval_queries=eval_queries,
        train_examples=train_examples,
        val_examples=val_examples,
    )


def plan_dir_name(name: str) -> str:
    return name.replace("->", "-to-")


@dataclass
class _Workspace:
    """The one owner of a run's output tree, as a context manager. Entering
    creates `out` and any missing parent; an artifact is `name` or
    `sub/name`, so a write creates at most its plan directory. An exception
    leaving the block removes what the run made, newest first: every file
    it wrote, and every directory it created that is empty by then."""

    out: Path
    made: list[Path] = field(default_factory=list)  # in creation order

    def __enter__(self) -> _Workspace:
        missing = [d for d in (self.out, *self.out.parents) if not d.exists()]
        self.out.mkdir(parents=True, exist_ok=True)
        self.made.extend(reversed(missing))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for path in reversed(self.made):
            with contextlib.suppress(OSError):  # a directory another writer filled stays
                (path.rmdir if path.is_dir() else path.unlink)()

    def write_text(self, rel: str, text: str) -> Path:
        return self.write_bytes(rel, text.encode("utf-8"))

    def write_bytes(self, rel: str, blob: bytes) -> Path:
        path = self.out / rel
        if not path.parent.exists():
            path.parent.mkdir()
            self.made.append(path.parent)
        self.made.append(path)  # before the write, so a partial file goes too
        path.write_bytes(blob)
        return path


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train all plans, re-rank, evaluate, and emit RQ1-RQ3 tables.

    Plans that share a first stage form a subtree; the subtrees train in
    parallel, one lane per usable CPU (`_subtree_training`), and the
    artifacts do not depend on the CPU count. A worker's exception is
    re-raised here with its type and message; no worker outlives the call.

    Returns a summary dict (also written as `_SUMMARY`). A config without
    the RQ plans or an nDCG@10 metric is rejected before anything is read or
    written. A failure removes what the run wrote and created (`_Workspace`).
    """
    missing = [n for n in RQ_PLAN_NAMES if n not in cfg.plans]
    if missing:
        raise DataError(f"experiment needs plans {list(RQ_PLAN_NAMES)}; missing {missing}")
    if "nDCG@10" not in {m.label for m in cfg.metrics}:
        raise DataError("experiment requires an nDCG@10 metric for best-plan selection")

    with _Workspace(cfg.out) as ws:
        prep = prepare(cfg)
        with _subtree_training(cfg, prep) as finish_training:
            # written while the workers train
            if cfg.first_stage == "build":
                ordered = [prep.first_stage[qid] for qid in sorted(prep.first_stage)]
                ws.write_text(_FIRST_STAGE, write_run(ordered, tag=_BM25))

            eval_qids = sorted(q.id for q in prep.eval_queries)
            fs_rankings = [prep.first_stage[qid] for qid in eval_qids]
            bm25_system = SystemResult(_BM25, evaluate_all(fs_rankings, prep.qrels, cfg.metrics))
            ws.write_text(f"{_BM25}/metrics.csv", report_csv(bm25_system.reports))

            systems: dict[str, SystemResult] = {
                _BM25: bm25_system,
                _UNTRAINED: _write_system(ws, cfg, prep, _UNTRAINED, init_params(cfg.scorer)),
            }
            trained = finish_training()

        for name, plan in cfg.plans.items():
            params, logs = trained[plan]
            _write_checkpoint(ws, name, params, logs)
            systems[name] = _write_system(ws, cfg, prep, name, params)

        def best(pair: tuple[str, str]) -> str:  # by mean nDCG@10, ties to the larger name
            return max(pair, key=lambda n: (systems[n].reports["nDCG@10"].mean, n))

        winners: list[str] = []
        for rel, title, rows, pair in RQ_REPORTS:
            pair = pair or tuple(winners)
            winners.append(best(pair))
            baseline, *variants = (systems[n] for n in rows + pair)
            table = build_table(baseline, variants, [pair])
            ws.write_text(rel, f"# {title}\n\n" + table.to_markdown())
        best_single, best_multi, _ = winners

        means = {
            label: {col: rep.mean for col, rep in system.reports.items()}
            for label, system in systems.items()
        }
        summary = {
            "seed": cfg.seed,
            "queries": {"train": len(prep.train_examples), "val": len(prep.val_examples),
                        "eval": len(prep.eval_queries)},
            "plans": {name: [s.max_steps for s in plan]
                      for name, plan in cfg.plans.items()},
            "means": means,
            "vs_bm25": {
                label: {col: mean - means[_BM25][col] for col, mean in row.items()}
                for label, row in means.items()
                if label != _BM25
            },
            "best_single": best_single,
            "best_multi": best_multi,
        }
        ws.write_text(_SUMMARY, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return summary


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lanes(plans: Sequence[Plan], count: int) -> list[list[Plan]]:
    """The plans grouped into subtrees by first stage, at most count lanes
    of them: longest first by the steps a subtree trains (each distinct
    prefix once), each subtree goes to the lane with the fewest steps."""
    subtrees: dict[StageConfig, list[Plan]] = {}
    for plan in plans:
        subtrees.setdefault(plan[0], []).append(plan)

    def steps(tree: list[Plan]) -> int:
        prefixes = {p[:k] for p in tree for k in range(1, len(p) + 1)}
        return sum(prefix[-1].max_steps for prefix in prefixes)

    lanes: list[list[Plan]] = [[] for _ in range(min(count, len(subtrees)))]
    loads = [0] * len(lanes)
    for tree in sorted(subtrees.values(), key=steps, reverse=True):
        i = loads.index(min(loads))
        lanes[i] += tree
        loads[i] += steps(tree)
    return lanes


def _fork(work: Callable[[], object]) -> tuple[int, int]:
    """Start a worker process that runs work and pipes back, pickled, its
    result or the exception it raised; returns the worker's pid and the
    pipe's read end. The worker writes nothing else and ends with
    `os._exit`, so it never returns into its caller's frames. It dies with
    its parent, even a SIGKILLed one, where libc has `prctl` (Linux)."""
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        import ctypes

        prctl = getattr(ctypes.CDLL(None), "prctl", None)
        if prctl is not None:
            prctl(1, int(signal.SIGKILL))  # PR_SET_PDEATHSIG: die with the parent
        if os.getppid() != parent:  # the parent died before the prctl
            os._exit(code)
        os.close(read_end)
        try:
            payload = work()
        except BaseException as exc:
            payload = exc
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(payload, pipe)
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _subtree_training(cfg: ExperimentConfig, prep: PreparedData) -> Iterator[Callable[[], dict]]:
    """Train every plan into a `run_plan` prefix memo, one lane of plan
    subtrees per usable CPU. Entering forks a worker for each lane but the
    last and yields `finish`, which trains the last lane in this process,
    adds the prefixes the workers pipe back and returns the memo. On exit
    every worker not collected is killed; every worker is reaped."""
    lanes = _lanes(list(cfg.plans.values()), _usable_cpus() if hasattr(os, "fork") else 1)

    def train(plans: list[Plan]) -> dict:
        memo: dict = {}
        for plan in plans:
            run_plan(cfg.scorer, plan, prep.train_examples, prep.val_examples, prep.ctx, memo)
        return memo

    forked: dict[int, int] = {}  # worker pid -> read end, until reaped

    def finish() -> dict:
        trained = train(lanes[-1])
        for pid, read_end in list(forked.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                blob = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(forked.pop(pid))
            if code != 0:
                raise RuntimeError(f"training worker {pid} ended without a result ({code})")
            payload = pickle.loads(blob)
            if isinstance(payload, BaseException):
                raise payload
            trained.update(payload)
        return trained

    try:
        for lane in lanes[:-1]:
            pid, read_end = _fork(partial(train, lane))
            forked[pid] = read_end
        yield finish
    finally:
        # an interrupt can land between reaping a worker and forgetting it
        for pid, read_end in forked.items():
            os.close(read_end)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _write_system(
    ws: _Workspace, cfg: ExperimentConfig, prep: PreparedData, name: str, params: ScorerParams
) -> SystemResult:
    """Re-rank the eval queries, write the system's rerank.txt and metrics.csv."""
    sub = plan_dir_name(name)
    rankings = [
        rerank(params, prep.ctx, q, prep.first_stage[q.id], cfg.rerank_depth)
        for q in sorted(prep.eval_queries, key=lambda q: q.id)
    ]
    ws.write_text(f"{sub}/rerank.txt", write_run(rankings, tag=sub))
    system = SystemResult(name, evaluate_all(rankings, prep.qrels, cfg.metrics))
    ws.write_text(f"{sub}/metrics.csv", report_csv(system.reports))
    return system


def _write_checkpoint(
    ws: _Workspace, name: str, params: ScorerParams, logs: Sequence[TrainLog]
) -> str:
    """Write a plan's params.bin, train.csv and val.csv; returns its directory."""
    sub = plan_dir_name(name)
    ws.write_bytes(f"{sub}/params.bin", save_params(params))
    ws.write_text(f"{sub}/train.csv", merged_train_csv(logs))
    ws.write_text(f"{sub}/val.csv", merged_val_csv(logs))
    return sub


def train_plan(cfg: ExperimentConfig, name: str) -> tuple[Path, list[TrainLog]]:
    """Train one named plan alone and write its checkpoint and curves.

    Returns the plan's output directory and its per-stage logs. Only this
    plan's stages decide which queries are trainable (`stage_pool`), so
    unless the config's other plans drop more, the files equal those
    `run_experiment` writes for the plan.
    """
    if name not in cfg.plans:
        raise DataError(f"plan {name!r} not in config (have {list(cfg.plans)})")
    plan = cfg.plans[name]
    cfg = replace(cfg, plans={name: plan})
    prep = prepare(cfg)
    params, logs = run_plan(cfg.scorer, plan, prep.train_examples, prep.val_examples, prep.ctx)
    with _Workspace(cfg.out) as ws:
        sub = _write_checkpoint(ws, name, params, logs)
    return cfg.out / sub, logs


def merged_train_csv(logs: Sequence[TrainLog]) -> str:
    rows = ["step,loss"]
    step = 0
    for log in logs:
        for loss in log.losses:
            step += 1
            rows.append(f"{step},{loss!r}")
    return "".join(r + "\n" for r in rows)


def merged_val_csv(logs: Sequence[TrainLog]) -> str:
    rows = ["step,val_loss"]
    offset = 0
    for log in logs:
        for step, loss in log.val:
            rows.append(f"{offset + step},{loss!r}")
        offset += len(log.losses)
    return "".join(r + "\n" for r in rows)
