"""Config loading, data preparation, and the end-to-end comparison driver."""

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rankforge.experiment
import rankforge.training
from rankforge.cli import main
from rankforge.data import Query, Ranking, parse_path, parse_queries, parse_run, write_run
from rankforge.errors import DataError
from rankforge.experiment import (
    _BM25_PARAMS,
    _EVAL_FRACTION,
    _INIT_TAG,
    _METRIC_SPECS,
    _RERANK_DEPTH,
    _RETRIEVE_DEPTH,
    _SAMPLER_TAG,
    _STAGE_TAG,
    _VAL_FRACTION,
    _lanes,
    default_plan_specs,
    load_config,
    merged_train_csv,
    merged_val_csv,
    plan_dir_name,
    prepare,
    run_experiment,
    train_plan,
)
from rankforge.rng import substream
from rankforge.scorer import ScorerConfig
from rankforge.synth import SynthSpec, generate, write_dataset
from rankforge.training import QueryExample, SamplerConfig, StageConfig, TrainLog, stage_pool

SPEC = SynthSpec(vocab_size=800, topics=4, docs_per_topic=25, queries=40, noise=0.5, seed=7)

_LCE = {"loss": "lce", "lr": 1e-3, "steps": 30}
_RK = {"loss": "ranknet", "lr": 1e-3, "steps": 30}


def _config_dict(**over):
    cfg = {
        "corpus": "data/corpus.tsv",
        "queries": "data/queries.tsv",
        "qrels": "data/qrels.txt",
        "teacher": "data/teacher.jsonl",
        "first_stage": "build",
        "out": "out",
        "seed": 42,
        "plans": {
            "C": [_LCE],
            "D": [_RK],
            "C->D": [_LCE, {"loss": "ranknet", "lr": 1e-5, "steps": 15}],
            "D->C": [_RK, dict(_LCE, steps=20)],
        },
    }
    cfg.update(over)
    return cfg


def _write_workspace(root: Path, **over) -> Path:
    """Dataset files plus a config JSON under one directory; returns config path."""
    write_dataset(generate(SPEC), root / "data")
    path = root / "exp.json"
    path.write_text(json.dumps(_config_dict(**over)), encoding="utf-8")
    return path


def _name_missing_doc(teacher: Path, qids: set[str] | None = None) -> None:
    """Head the teacher lists of qids (all when None) with a document the
    corpus does not hold."""
    entries = [json.loads(line) for line in teacher.read_text(encoding="utf-8").splitlines()]
    for entry in entries:
        if qids is None or entry["qid"] in qids:
            entry["ranked"].insert(0, "zz_missing")
    teacher.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")


def _assert_same_tree(a: Path, b: Path) -> None:
    mine = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    theirs = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert mine == theirs
    for rel in mine:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def _cut_first_stage(config: Path, negatives) -> Path:
    """A first-stage run beside config, returned, that holds each query's
    ranking as config builds it, cut after its negatives(qid)-th document
    not judged relevant: an LCE/BCE stage's pool for the query then holds
    exactly that many negatives."""
    built = prepare(load_config(config))
    rankings = []
    for qid in sorted(built.first_stage):
        ranking, judged = built.first_stage[qid], built.qrels.by_query.get(qid, {})
        unjudged = [i for i, d in enumerate(ranking.ids) if judged.get(d, 0) < 1]
        end = unjudged[negatives(qid) - 1] + 1
        rankings.append(Ranking(qid, ranking.ids[:end], ranking.scores[:end]))
    path = config.parent / "cut.txt"
    path.write_text(write_run(rankings, tag="bm25"), encoding="utf-8")
    return path


def _numbered(cases):
    """Each (n, over, match) case as a param whose id, `over{n}-{match}`, is
    the one pytest gives it at position n."""
    return [pytest.param(over, match, id=f"over{n}-{match}") for n, over, match in cases]


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One full driver run shared by the artifact inspections below."""
    root = tmp_path_factory.mktemp("exp")
    config_path = _write_workspace(root)
    cfg = load_config(config_path, out=root / "out")
    summary = run_experiment(cfg)
    return cfg, summary, root / "out"


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        path = _write_workspace(tmp_path)
        minimal = {k: _config_dict()[k] for k in ("corpus", "queries", "qrels", "out")}
        path.write_text(json.dumps(minimal), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.seed == 0
        assert cfg.scorer == ScorerConfig(buckets=8, hidden=16, seed=substream(0, _INIT_TAG))
        # the protocol's settings, which a config cannot change
        assert (_RETRIEVE_DEPTH, _RERANK_DEPTH) == (100, 100)
        assert (_EVAL_FRACTION, _VAL_FRACTION) == (0.2, 0.01)
        assert (_BM25_PARAMS.k1, _BM25_PARAMS.b) == (0.9, 0.4)
        assert [m.label for m in _METRIC_SPECS] == ["AP", "nDCG@10", "MRR@10"]
        assert list(cfg.plans) == ["C", "D", "C->D", "D->C"]
        assert cfg.teacher is None
        assert cfg.first_stage == "build"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = _write_workspace(tmp_path)
        cfg = load_config(path)
        assert cfg.corpus == tmp_path / "data" / "corpus.tsv"
        assert cfg.out == tmp_path / "out"

    def test_flag_overrides(self, tmp_path):
        path = _write_workspace(tmp_path)
        cfg = load_config(path, seed=9, out=tmp_path / "elsewhere")
        assert cfg.seed == 9
        assert cfg.out == tmp_path / "elsewhere"

    def test_unknown_top_level_key(self, tmp_path):
        path = _write_workspace(tmp_path, typo=1)
        with pytest.raises(DataError, match="typo"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = _write_workspace(tmp_path)
        raw = _config_dict()
        del raw["qrels"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(DataError, match="qrels"):
            load_config(path)

    def test_missing_out(self, tmp_path):
        path = _write_workspace(tmp_path)
        raw = _config_dict()
        del raw["out"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(DataError, match="out"):
            load_config(path)
        assert load_config(path, out=tmp_path / "o").out == tmp_path / "o"

    def test_missing_data_file(self, tmp_path):
        path = _write_workspace(tmp_path, corpus="data/nothere.tsv")
        with pytest.raises(DataError, match="does not exist"):
            load_config(path)

    def test_missing_first_stage_run(self, tmp_path):
        path = _write_workspace(tmp_path, first_stage="runs/missing.txt")
        with pytest.raises(DataError, match="first_stage"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataError, match="JSON"):
            load_config(path)
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(DataError, match="object"):
            load_config(path)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_undecodable_config_named(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"out": "caf\xe9"}')
        with pytest.raises(DataError, match=r"cannot read config .*latin1\.json: 'utf-8' codec"):
            load_config(path)

    def test_stage_validation(self, tmp_path):
        path = _write_workspace(
            tmp_path, plans={"C": [dict(_LCE, wat=1)]}
        )
        with pytest.raises(DataError, match="wat"):
            load_config(path)
        path = _write_workspace(tmp_path, plans={"C": [{"loss": "lce", "lr": 1e-3}]})
        with pytest.raises(DataError, match="steps"):
            load_config(path)
        path = _write_workspace(tmp_path, plans={"C": "lce"})
        with pytest.raises(DataError, match="plan C"):
            load_config(path)
        path = _write_workspace(tmp_path, plans={"C": [dict(_LCE, loss="lcee")]})
        with pytest.raises(DataError, match="plan C stage 0: unknown loss kind 'lcee'"):
            load_config(path)

    def test_sampled_stages_draw_with_the_default_sampler(self, tmp_path):
        path = _write_workspace(tmp_path, plans={"C": [dict(_LCE, loss="bce"), _RK]})
        (plan,) = load_config(path).plans.values()
        assert plan[0].sampler == SamplerConfig(20, 50, seed=substream(42, _SAMPLER_TAG, 0))
        assert plan[1].sampler is None

    # a case keeps the number it was first given, so removing one leaves the
    # others' test ids as they were
    @pytest.mark.parametrize("over, match", _numbered([
        (6, {"seed": None}, "NoneType"),
        (9, {"plans": ["C"]}, "'plans' must be"),
        (10, {"plans": {"C": [1]}}, "plan C stage 0 must be"),
        (11, {"plans": {"C": {"preset": "reference", "scal": 2}}}, "expected a list of stages"),
        (12, {"plans": {"C": [dict(_LCE, steps=8.7)]}},
             "'steps' must be a JSON integer, not float"),
        (13, {"seed": True}, "'seed' must be a JSON integer, not bool"),
        (14, {"plans": {"C": [dict(_LCE, lr="0.001")]}}, "'lr' must be a JSON number, not str"),
        (15, {"plans": {"C": [dict(_LCE, policy="random")]}}, r"unknown keys \['policy'\]"),
        (16, {"plans": {"D": [dict(_RK, negatives=7)]}},
             r"plan D stage 0 has unknown keys \['negatives'\]"),
        (17, {"plans": {"D": [dict(_RK, pool_depth=9)]}}, r"unknown keys \['pool_depth'\]"),
        # json.loads accepts NaN and Infinity, which are not JSON
        (22, {"plans": {"C": [dict(_LCE, lr=math.nan)]}}, "NaN is not a JSON number"),
        (23, {"seed": math.inf}, "Infinity is not a JSON number"),
        (24, {"plans": {"C": [dict(_LCE, lr=-math.inf)]}}, "-Infinity is not a JSON number"),
        (25, {"plans": {"C": [dict(_LCE, lr=10**400)]}}, "'lr' is too large for a float"),
        # a plan trains at least one stage
        (30, {"plans": {"C": []}}, "plan C: expected a list of stages, at least one"),
        # the protocol's BM25 settings and metrics are not config keys
        (35, {"bm25": {"k1": 1.2}}, r"config .*exp\.json has unknown keys \['bm25'\]"),
        (36, {"metrics": [{"kind": "ap"}]},
         r"config .*exp\.json has unknown keys \['metrics'\]"),
        # nor are its depths, splits, scorer shape and sampler settings, even
        # at the values the protocol fixes
        (37, {"retrieve_depth": 100}, r"config .*exp\.json has unknown keys \['retrieve_depth'\]"),
        (38, {"rerank_depth": 100}, r"config .*exp\.json has unknown keys \['rerank_depth'\]"),
        (39, {"eval_fraction": 0.2}, r"config .*exp\.json has unknown keys \['eval_fraction'\]"),
        (40, {"val_fraction": 0.01}, r"config .*exp\.json has unknown keys \['val_fraction'\]"),
        (41, {"scorer": {"buckets": 8, "hidden": 16}},
             r"config .*exp\.json has unknown keys \['scorer'\]"),
        (42, {"plans": {"C": [dict(_LCE, val_interval=500)]}},
             r"plan C stage 0 has unknown keys \['val_interval'\]"),
        (43, {"plans": {"C": [dict(_LCE, negatives=20)]}},
             r"plan C stage 0 has unknown keys \['negatives'\]"),
        (44, {"plans": {"C": [dict(_LCE, pool_depth=50)]}},
             r"plan C stage 0 has unknown keys \['pool_depth'\]"),
    ]))
    def test_malformed_section(self, tmp_path, over, match):
        path = _write_workspace(tmp_path, **over)
        with pytest.raises(DataError, match=match):
            load_config(path)

    @pytest.mark.parametrize("old, new, key", [
        ('{"corpus"', '{"seed": 7, "corpus"', "seed"),
        ('"lr": 0.001', '"lr": 0.001, "lr": 0.01', "lr"),
        ('"plans": {', '"plans": {"C": [{"loss": "ranknet", "lr": 0.001, "steps": 5}], ', "C"),
    ], ids=["top-level", "stage", "plan-name"])
    def test_duplicate_key(self, tmp_path, old, new, key):
        # json.loads would keep the last value of a repeated key
        path = _write_workspace(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(DataError, match=f"duplicate key '{key}'"):
            load_config(path)

    @pytest.mark.parametrize("name", [
        "bm25", "untrained",  # the systems every RQ table compares against
        "first_stage.txt", "rq1.md", "rq2.md", "rq3.md", "summary.json",  # files beside them
        "C-to-D",  # the directory of C->D
        "../escaped", "a/b", "a\\b", ".", "..", "",  # not one directory inside out
        "a b", "a\tb",  # would split a run line into more fields
    ])
    def test_plan_name_must_own_an_artifact_directory(self, tmp_path, name):
        plans = dict(_config_dict()["plans"], **{name: [_RK]})
        path = _write_workspace(tmp_path, plans=plans)
        with pytest.raises(DataError, match=re.escape(repr(name))):
            load_config(path)

    def test_shared_leading_stages_are_equal(self, tmp_path):
        cfg = load_config(_write_workspace(tmp_path))
        plans = cfg.plans
        assert plans["C"][0] == plans["C->D"][0]
        assert plans["D"][0] == plans["D->C"][0]
        # seeds follow the stage position: the same settings one stage later differ
        assert plans["D->C"][1].seed != plans["C"][0].seed
        assert plans["D->C"][1].sampler.seed != plans["C"][0].sampler.seed

    @pytest.mark.parametrize("seed", [42, 13])
    def test_default_plan_stages_and_seeds(self, tmp_path, seed):
        path = _write_workspace(tmp_path)
        minimal = {k: _config_dict()[k] for k in ("corpus", "queries", "qrels", "out")}
        path.write_text(json.dumps(minimal), encoding="utf-8")
        plans = load_config(path, seed=seed).plans

        def lce(steps, position):
            sampler = SamplerConfig(20, 50, seed=substream(seed, _SAMPLER_TAG, position))
            return StageConfig("lce", 1e-3, steps, sampler=sampler,
                               seed=substream(seed, _STAGE_TAG, position))

        assert plans["C"] == (lce(2000, 0),)
        assert plans["D->C"][1] == lce(2500, 1)
        assert plans["D->C"][0].seed == substream(seed, _STAGE_TAG, 0)

    def test_readme_example_shows_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        example = json.loads(re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1))
        _write_workspace(tmp_path)  # the example's relative data paths resolve here
        shown = tmp_path / "shown.json"
        shown.write_text(json.dumps(example), encoding="utf-8")
        # the data paths and the output directory are the only keys without a default
        required = {k: example[k] for k in ("corpus", "queries", "qrels", "teacher", "out")}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(required), encoding="utf-8")
        assert load_config(shown) == load_config(bare)


class TestDefaultPlanSpecs:
    def test_names_and_shapes(self):
        specs = default_plan_specs()
        assert list(specs) == ["C", "D", "C->D", "D->C"]
        assert [s["loss"] for s in specs["C->D"]] == ["lce", "ranknet"]
        assert specs["D->C"][1]["steps"] == 2500
        sampler = rankforge.experiment._resolve_plans(specs, 0)["C"][0].sampler
        assert (sampler.negatives, sampler.pool_depth) == (20, 50)


class TestPlanDirName:
    def test_arrow_replaced(self):
        assert plan_dir_name("C->D") == "C-to-D"
        assert plan_dir_name("C") == "C"


class TestPrepare:
    def test_built_first_stage_and_splits(self, tmp_path):
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "out")
        prep = prepare(cfg)
        assert cfg.first_stage == "build"
        assert set(prep.first_stage) == {q.id for q in parse_path(cfg.queries, parse_queries)}
        assert len(prep.eval_queries) == 8  # 20% of 40
        n_train, n_val = len(prep.train_examples), len(prep.val_examples)
        assert n_val == max(1, round((n_train + n_val) * 0.01)) == 1
        eval_ids = {q.id for q in prep.eval_queries}
        train_ids = {e.query.id for e in prep.train_examples}
        assert not (eval_ids & train_ids)
        for ex in prep.train_examples:
            assert ex.judged is prep.qrels.by_query[ex.query.id]  # shared, not copied
            assert ex.ranking is not None
            assert ex.teacher is not None

    def test_distillation_without_teacher_file(self, tmp_path):
        path = _write_workspace(tmp_path, teacher=None)
        cfg = load_config(path, out=tmp_path / "out")
        with pytest.raises(DataError, match="trainable queries"):
            prepare(cfg)

    def test_dropped_query_reason_is_reported(self, tmp_path):
        # every first-stage ranking ends at its 19th doc not judged relevant,
        # so every pool holds 19 negatives, one short of the sampler's 20
        run = _cut_first_stage(_write_workspace(tmp_path), lambda qid: 19)
        cfg = load_config(_write_workspace(tmp_path, first_stage=str(run), plans={"C": [_LCE]}))
        with pytest.raises(DataError, match="only 0 trainable queries; first dropped query "
                           r"q\d+: only 19 eligible negatives in pool, need 20"):
            prepare(cfg)

    def test_pool_as_deep_as_the_negative_count(self, tmp_path):
        # the rankings of even-numbered queries end at their 20th doc not
        # judged relevant, of odd-numbered ones at their 19th
        run = _cut_first_stage(_write_workspace(tmp_path), lambda qid: 20 - int(qid[1:]) % 2)
        cfg = load_config(_write_workspace(tmp_path, first_stage=str(run)))
        prep = prepare(cfg)
        kept = prep.train_examples + prep.val_examples
        assert (len(prep.train_examples), len(prep.val_examples)) == (13, 1)
        eval_ids = {q.id for q in prep.eval_queries}
        even = {qid for qid in prep.first_stage if int(qid[1:]) % 2 == 0}
        assert {ex.query.id for ex in kept} == even - eval_ids
        stage = cfg.plans["C"][0]
        for ex in kept:
            _, *pool = stage_pool(ex, stage)
            assert len(pool) == 20
            # no negative the pool offers is judged relevant
            assert all(ex.judged.get(d, 0) < 1 for d in pool)
        # every odd-numbered query is one negative short
        for qid, ranking in prep.first_stage.items():
            if qid not in even | eval_ids:
                dropped = QueryExample(Query(qid, ""), prep.qrels.by_query.get(qid), ranking)
                with pytest.raises(DataError, match="only 19 eligible negatives"):
                    stage_pool(dropped, stage)

    def test_document_missing_from_corpus_drops_query(self, tmp_path):
        path = _write_workspace(tmp_path)
        before = prepare(load_config(path))
        qid = before.train_examples[-1].query.id
        _name_missing_doc(tmp_path / "data" / "teacher.jsonl", {qid})
        after = prepare(load_config(path))
        kept = {ex.query.id for ex in before.train_examples + before.val_examples}
        assert {ex.query.id for ex in after.train_examples + after.val_examples} == kept - {qid}

    def test_document_missing_from_corpus_reason_is_reported(self, tmp_path):
        path = _write_workspace(tmp_path, plans={"D": [_RK]})
        _name_missing_doc(tmp_path / "data" / "teacher.jsonl")
        with pytest.raises(DataError, match="only 0 trainable queries; first dropped query "
                           r"q\d+: document 'zz_missing' has no text in corpus$"):
            prepare(load_config(path))

    def test_ranknet_plan_needs_no_first_stage_ranking(self, tmp_path):
        built = prepare(load_config(_write_workspace(tmp_path, plans={"D": [_RK]})))
        # a run holding the evaluation queries only
        run = tmp_path / "eval_only.txt"
        run.write_text(write_run([built.first_stage[q.id] for q in built.eval_queries], "bm25"),
                       encoding="utf-8")
        cfg = load_config(_write_workspace(tmp_path, first_stage=str(run), plans={"D": [_RK]}))
        prep = prepare(cfg)
        assert [ex.query.id for ex in prep.train_examples] == (
            [ex.query.id for ex in built.train_examples]
        )
        assert all(ex.ranking is None for ex in prep.train_examples)
        cfg = load_config(_write_workspace(tmp_path, first_stage=str(run), plans={"C": [_LCE]}))
        with pytest.raises(DataError, match="only 0 trainable queries; first dropped query "
                           r"q\d+: no first-stage ranking for hard sampling"):
            prepare(cfg)

    def test_reads_existing_first_stage_run(self, finished, tmp_path):
        done_cfg, _, out = finished
        run_path = out / "first_stage.txt"
        root = tmp_path
        config_path = _write_workspace(root, first_stage=str(run_path))
        cfg = load_config(config_path, out=root / "out")
        prep = prepare(cfg)
        assert cfg.first_stage == str(run_path)
        direct = prepare(done_cfg)
        for qid in list(prep.first_stage)[:5]:
            assert list(prep.first_stage[qid].ids) == list(direct.first_stage[qid].ids)


class TestRunExperiment:
    def test_artifact_tree(self, finished):
        _, _, out = finished
        for rel in (
            "first_stage.txt",
            "bm25/metrics.csv",
            "untrained/rerank.txt",
            "untrained/metrics.csv",
            "rq1.md",
            "rq2.md",
            "rq3.md",
            "summary.json",
        ):
            assert (out / rel).is_file(), rel
        for plan_dir in ("C", "D", "C-to-D", "D-to-C"):
            for name in ("params.bin", "train.csv", "val.csv", "rerank.txt", "metrics.csv"):
                assert (out / plan_dir / name).is_file(), (plan_dir, name)

    def test_summary_contents(self, finished):
        cfg, summary, out = finished
        assert summary["seed"] == cfg.seed
        assert summary["plans"] == {"C": [30], "D": [30], "C->D": [30, 15], "D->C": [30, 20]}
        assert set(summary["means"]) == {"bm25", "untrained", "C", "D", "C->D", "D->C"}
        for means in summary["means"].values():
            assert set(means) == {"AP", "nDCG@10", "MRR@10"}
            assert all(0.0 <= v <= 1.0 for v in means.values())
        assert summary["best_single"] in ("C", "D")
        assert summary["best_multi"] in ("C->D", "D->C")
        assert summary["queries"]["eval"] == 8
        assert set(summary["vs_bm25"]) == {"untrained", "C", "D", "C->D", "D->C"}
        for label, deltas in summary["vs_bm25"].items():
            assert set(deltas) == {"AP", "nDCG@10", "MRR@10"}
            for col, delta in deltas.items():
                assert delta == summary["means"][label][col] - summary["means"]["bm25"][col]
        on_disk = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert on_disk == summary

    def test_rq_tables(self, finished):
        _, summary, out = finished
        for rel, title, labels in (
            ("rq1.md", "RQ1: single-stage fine-tuning", ["untrained", "bm25", "C", "D"]),
            ("rq2.md", "RQ2: stage order in multi-stage fine-tuning",
             ["untrained", "C->D", "D->C"]),
            ("rq3.md", "RQ3: best single stage vs best multi stage",
             ["untrained", summary["best_single"], summary["best_multi"]]),
        ):
            lines = (out / rel).read_text(encoding="utf-8").splitlines()
            assert lines[:2] == [f"# {title}", ""], rel
            assert lines[2].startswith("| System |") and lines[3].startswith("| --- |"), rel
            assert [line.split(" | ")[0] for line in lines[4:]] == [f"| {x}" for x in labels], rel

    def test_top_level_names_are_no_plan_names(self, finished, tmp_path):
        # a plan whose directory took one of these names would clash with the file or system
        cfg, _, out = finished
        plan_dirs = {plan_dir_name(name) for name in cfg.plans}
        written = sorted(p.name for p in out.iterdir() if p.name not in plan_dirs)
        assert "summary.json" in written and "bm25" in written
        for name in written:
            plans = dict(_config_dict()["plans"], **{name: [_RK]})
            path = _write_workspace(tmp_path, plans=plans)
            with pytest.raises(DataError, match="cannot name its artifact directory"):
                load_config(path)

    def test_first_stage_run_parses(self, finished):
        cfg, _, out = finished
        rankings = parse_run((out / "first_stage.txt").read_text(encoding="utf-8"))
        assert len(rankings) == SPEC.queries
        assert all(len(r.ids) <= _RETRIEVE_DEPTH for r in rankings)

    def test_training_curves_parse(self, finished):
        _, _, out = finished
        train = (out / "C-to-D" / "train.csv").read_text(encoding="utf-8").splitlines()
        assert train[0] == "step,loss"
        assert len(train) == 1 + 30 + 15  # merged across both stages
        steps = [int(row.split(",")[0]) for row in train[1:]]
        assert steps == list(range(1, 46))
        # validation runs every 500 steps, so no stage this short reaches it
        val = (out / "C" / "val.csv").read_text(encoding="utf-8").splitlines()
        assert val == ["step,val_loss"]

    def test_deterministic_across_runs(self, finished, tmp_path):
        cfg, _, out = finished
        again = load_config(_write_workspace(tmp_path), out=tmp_path / "out")
        run_experiment(again)
        _assert_same_tree(out, tmp_path / "out")

    def test_shared_stage_prefixes_train_once(self, tmp_path, monkeypatch):
        # a forked worker inherits the patch; the file collects every process's stages
        record = tmp_path / "stages.txt"
        real_run_stage = rankforge.training.run_stage

        def counting_run_stage(*args, **kwargs):
            with record.open("a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {args[1]!r}\n")
            return real_run_stage(*args, **kwargs)

        monkeypatch.setattr(rankforge.training, "run_stage", counting_run_stage)
        monkeypatch.setattr(rankforge.experiment, "_usable_cpus", lambda: 2)
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "out")
        run_experiment(cfg)
        runs = [line.split(" ", 1) for line in record.read_text(encoding="utf-8").splitlines()]
        # C, D, then only the second stages of C->D and D->C, in two processes
        assert len(runs) == 4
        assert len({stage for _, stage in runs}) == 4
        assert len({pid for pid, _ in runs}) == 2

    def test_multi_stage_plan_continues_from_single_stage(self, finished):
        _, _, out = finished
        for single, multi in (("C", "C-to-D"), ("D", "D-to-C")):
            for name in ("train.csv", "val.csv"):
                head = (out / single / name).read_text(encoding="utf-8").splitlines()
                whole = (out / multi / name).read_text(encoding="utf-8").splitlines()
                assert whole[: len(head)] == head, (single, name)

    def test_plan_order_does_not_change_artifacts(self, finished, tmp_path):
        _, _, out = finished
        plans = _config_dict()["plans"]
        reordered = {name: plans[name] for name in ("C->D", "D->C", "D", "C")}
        cfg = load_config(_write_workspace(tmp_path, plans=reordered), out=tmp_path / "out")
        run_experiment(cfg)
        _assert_same_tree(out, tmp_path / "out")

    def test_train_command_matches_experiment_checkpoint(self, finished, tmp_path):
        _, _, out = finished
        rc = main([
            "train", "--config", str(out.parent / "exp.json"), "--plan", "C->D",
            "--out", str(tmp_path / "alone"),
        ])
        assert rc == 0
        alone = tmp_path / "alone" / "C-to-D"
        assert sorted(p.name for p in alone.iterdir()) == ["params.bin", "train.csv", "val.csv"]
        for name in ("params.bin", "train.csv", "val.csv"):
            assert (alone / name).read_bytes() == (out / "C-to-D" / name).read_bytes(), name

    def test_requires_all_rq_plans(self, tmp_path):
        path = _write_workspace(tmp_path, plans={"C": [_LCE]})
        cfg = load_config(path, out=tmp_path / "out")
        with pytest.raises(DataError, match="missing"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_failure_removes_created_out_dir(self, tmp_path, monkeypatch):
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "out")

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr("rankforge.experiment.run_plan", boom)
        with pytest.raises(RuntimeError, match="forced"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_failure_preserves_preexisting_out_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        marker = out / "keep.txt"
        marker.write_text("mine", encoding="utf-8")
        cfg = load_config(_write_workspace(tmp_path), out=out)

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr("rankforge.experiment.run_plan", boom)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert marker.read_text(encoding="utf-8") == "mine"
        assert not (out / "first_stage.txt").exists()
        assert not (out / "bm25").exists()
        assert not (out / "untrained").exists()

    def test_failure_removes_created_parents(self, tmp_path, monkeypatch):
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "a" / "b" / "out")

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr("rankforge.experiment.run_plan", boom)
        with pytest.raises(RuntimeError, match="forced"):
            run_experiment(cfg)
        assert not (tmp_path / "a").exists()

    def test_train_failure_removes_created_parents(self, tmp_path, monkeypatch):
        # params.bin is written, then the training curve fails
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "x" / "y" / "out")

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr("rankforge.experiment.merged_train_csv", boom)
        with pytest.raises(RuntimeError, match="forced"):
            train_plan(cfg, "C")
        assert not (tmp_path / "x").exists()


def _patch_stages(monkeypatch, in_parent, in_worker) -> None:
    """Two training lanes, whose run_stage calls in_parent (in this
    process) or in_worker (in a forked worker) first."""
    parent = os.getpid()
    real_run_stage = rankforge.training.run_stage

    def run_stage(*args, **kwargs):
        (in_parent if os.getpid() == parent else in_worker)()
        return real_run_stage(*args, **kwargs)

    monkeypatch.setattr(rankforge.training, "run_stage", run_stage)
    monkeypatch.setattr(rankforge.experiment, "_usable_cpus", lambda: 2)


# The experiment CLI with two lanes, whose forked worker writes its pid to
# argv[2] and then sleeps a minute before it trains.
_SLEEPING_WORKER = """
import os, sys, time
import rankforge.experiment, rankforge.training
from rankforge.cli import main

parent, real_run_stage = os.getpid(), rankforge.training.run_stage

def run_stage(*args, **kwargs):
    if os.getpid() != parent:
        with open(sys.argv[2] + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.rename(sys.argv[2] + ".tmp", sys.argv[2])
        time.sleep(60)
    return real_run_stage(*args, **kwargs)

rankforge.training.run_stage = run_stage
rankforge.experiment._usable_cpus = lambda: 2
sys.exit(main(["experiment", "--config", sys.argv[1]]))
"""


def _process_state(pid: int) -> str | None:
    """The state letter of /proc/<pid>/stat, None once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


class TestParallelSubtrees:
    def test_lanes_take_subtrees_longest_first(self, tmp_path):
        cfg = load_config(_write_workspace(tmp_path))
        plans = list(cfg.plans.values())
        c, d, c_to_d, d_to_c = plans
        # D's subtree trains 30 + 20 steps, C's 30 + 15
        assert _lanes(plans, 2) == [[d, d_to_c], [c, c_to_d]]
        assert _lanes(plans, 8) == [[d, d_to_c], [c, c_to_d]]
        assert _lanes(plans, 1) == [[d, d_to_c, c, c_to_d]]

    def test_same_tree_with_and_without_workers(self, tmp_path, monkeypatch):
        path = _write_workspace(tmp_path)
        for cpus in (1, 4):
            monkeypatch.setattr(rankforge.experiment, "_usable_cpus", lambda: cpus)
            run_experiment(load_config(path, out=tmp_path / f"cpus{cpus}"))
        _assert_same_tree(tmp_path / "cpus1", tmp_path / "cpus4")

    def test_worker_error_reaches_caller(self, tmp_path, monkeypatch, capfd):
        def fail():
            raise DataError("query q0001: failed in a worker")

        _patch_stages(monkeypatch, in_parent=lambda: None, in_worker=fail)
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "out")
        with pytest.raises(DataError) as info:
            run_experiment(cfg)
        assert type(info.value) is DataError
        assert str(info.value) == "query q0001: failed in a worker"
        assert not (tmp_path / "out").exists()
        assert capfd.readouterr() == ("", "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_killed_without_result(self, tmp_path, monkeypatch):
        _patch_stages(monkeypatch, in_parent=lambda: None,
                      in_worker=lambda: os.kill(os.getpid(), signal.SIGKILL))
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "out")
        with pytest.raises(RuntimeError, match=r"training worker \d+ ended without a result \(-9\)"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [DataError("failed in the parent"), KeyboardInterrupt()])
    def test_parent_failure_kills_workers(self, tmp_path, monkeypatch, error):
        def fail():
            raise error

        # a worker that would outlive the run by a minute unless killed
        _patch_stages(monkeypatch, in_parent=fail, in_worker=lambda: time.sleep(60))
        cfg = load_config(_write_workspace(tmp_path), out=tmp_path / "out")
        started = time.monotonic()
        with pytest.raises(type(error)):
            run_experiment(cfg)
        assert time.monotonic() - started < 30
        assert not (tmp_path / "out").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_worker_dies_with_sigkilled_parent(self, tmp_path):
        config = _write_workspace(tmp_path)
        pid_file = tmp_path / "worker.pid"
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLEEPING_WORKER, str(config), str(pid_file)],
            cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert proc.poll() is None, "experiment ended before its worker started"
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            proc.kill()  # SIGKILL: no finally block of the experiment runs
            proc.wait()
        worker = int(pid_file.read_text())
        deadline = time.monotonic() + 10
        while _process_state(worker) not in (None, "Z"):
            if time.monotonic() > deadline:
                os.kill(worker, signal.SIGKILL)
                pytest.fail(f"worker {worker} outlived its SIGKILLed parent by 10 s")
            time.sleep(0.05)

class TestMergedCsv:
    def test_train_steps_renumbered(self):
        logs = [TrainLog(losses=[0.5, 0.25]), TrainLog(losses=[0.125])]
        assert merged_train_csv(logs) == "step,loss\n1,0.5\n2,0.25\n3,0.125\n"

    def test_val_steps_offset_by_stage_length(self):
        logs = [
            TrainLog(losses=[0.5, 0.25], val=[(2, 1.0)]),
            TrainLog(losses=[0.125], val=[(1, 0.75)]),
        ]
        assert merged_val_csv(logs) == "step,val_loss\n2,1.0\n3,0.75\n"

    def test_empty(self):
        assert merged_train_csv([]) == "step,loss\n"
        assert merged_val_csv([]) == "step,val_loss\n"
