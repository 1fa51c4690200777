"""Command-line surface: every subcommand in-process, plus the entry point."""

import json
import math
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import rankforge.experiment
import rankforge.training
from rankforge.cli import _build_parser, main
from rankforge.data import Ranking, parse_qrels, parse_run, write_run
from rankforge.errors import DataError
from rankforge.scorer import N_DENSE, ScoringContext

_REPO_ROOT = Path(__file__).resolve().parent.parent

_LCE = {"loss": "lce", "lr": 1e-3, "steps": 30}
_RK = {"loss": "ranknet", "lr": 1e-3, "steps": 30}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Dataset, config, first-stage run, and a trained checkpoint, CLI-built."""
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "synth", "--out", str(root / "data"), "--seed", "7", "--vocab", "800",
        "--topics", "4", "--docs-per-topic", "25", "--queries", "40",
    ])
    assert rc == 0
    config = {
        "corpus": "data/corpus.tsv",
        "queries": "data/queries.tsv",
        "qrels": "data/qrels.txt",
        "teacher": "data/teacher.jsonl",
        "out": "out",
        "seed": 42,
        "plans": {
            "C": [_LCE],
            "D": [_RK],
            "C->D": [_LCE, {"loss": "ranknet", "lr": 1e-5, "steps": 15}],
            "D->C": [_RK, dict(_LCE, steps=20)],
        },
    }
    (root / "exp.json").write_text(json.dumps(config), encoding="utf-8")
    rc = main([
        "retrieve", "--corpus", str(root / "data" / "corpus.tsv"),
        "--queries", str(root / "data" / "queries.tsv"),
        "--depth", "50", "--out", str(root / "bm25.txt"),
    ])
    assert rc == 0
    rc = main([
        "train", "--config", str(root / "exp.json"), "--plan", "C",
        "--out", str(root / "trained"),
    ])
    assert rc == 0
    return root


class TestIndex:
    def test_stats(self, ws, capsys):
        assert main(["index", "--corpus", str(ws / "data" / "corpus.tsv")]) == 0
        out = capsys.readouterr().out
        assert "documents: 100" in out
        assert "terms:" in out and "postings:" in out and "avg_doc_length:" in out

    def test_tiny_corpus_counts(self, tiny_corpus, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("".join(f"{d}\t{t}\n" for d, t in tiny_corpus.items()), encoding="utf-8")
        assert main(["index", "--corpus", str(path)]) == 0
        assert capsys.readouterr().out == (
            "documents: 5\nterms: 18\npostings: 23\navg_doc_length: 5.4000\n"
        )

    def test_missing_corpus(self, ws, capsys):
        assert main(["index", "--corpus", str(ws / "nope.tsv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_corpus_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"d1\tcaf\xe9\n")
        assert main(["index", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


class TestRetrieve:
    def test_run_file(self, ws):
        rankings = parse_run((ws / "bm25.txt").read_text(encoding="utf-8"))
        assert len(rankings) == 40
        assert all(len(r.ids) <= 50 for r in rankings)

    def test_stdout_when_no_out_flag(self, ws, capsys):
        rc = main([
            "retrieve", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"), "--depth", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0].split()
        assert first[1] == "Q0" and first[3] == "1" and first[5] == "bm25"

    def test_non_finite_k1_exits_two(self, ws, capsys):
        rc = main([
            "retrieve", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"), "--k1", "nan",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: k1 must be finite and > 0, got nan\n"

    def test_whitespace_in_doc_id_exits_two(self, ws, tmp_path, capsys):
        # "d 1" would make run lines of 7 fields, which `evaluate` rejects
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("d0\tcat\nd 1\tcat dog\n", encoding="utf-8")
        rc = main([
            "retrieve", "--corpus", str(corpus),
            "--queries", str(ws / "data" / "queries.tsv"), "--out", str(tmp_path / "run.txt"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {corpus}: line 2: doc id 'd 1' is empty or holds whitespace\n"
        assert not (tmp_path / "run.txt").exists()

    def test_deterministic(self, ws, tmp_path):
        args = [
            "retrieve", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"), "--depth", "50",
        ]
        main(args + ["--out", str(tmp_path / "a.txt")])
        main(args + ["--out", str(tmp_path / "b.txt")])
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.txt").read_bytes() == (ws / "bm25.txt").read_bytes()

    def test_query_matching_no_document_writes_no_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("d0\tcat\nd1\tcat dog\n", encoding="utf-8")
        runs = []
        # q1 matches no document
        for name, text in (("all", "q0\tdog\nq1\tzebra\nq2\tcat\n"),
                           ("matched", "q0\tdog\nq2\tcat\n")):
            queries = tmp_path / f"{name}.tsv"
            queries.write_text(text, encoding="utf-8")
            assert main(["retrieve", "--corpus", str(corpus), "--queries", str(queries)]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert [line.split()[0] for line in runs[0].splitlines()] == ["q0", "q2", "q2"]


class TestTrain:
    def test_artifacts(self, ws):
        plan_dir = ws / "trained" / "C"
        assert (plan_dir / "params.bin").is_file()
        train = (plan_dir / "train.csv").read_text(encoding="utf-8").splitlines()
        assert train[0] == "step,loss"
        assert len(train) == 31
        assert (plan_dir / "val.csv").read_text(encoding="utf-8").startswith("step,val_loss")

    def test_unknown_plan(self, ws, capsys):
        rc = main(["train", "--config", str(ws / "exp.json"), "--plan", "Z"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_arrow_plan_name_accepted(self, ws, tmp_path, capsys):
        rc = main([
            "train", "--config", str(ws / "exp.json"), "--plan", "C->D",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "C-to-D" / "params.bin").is_file()
        assert "trained plan C->D: 45 steps" in capsys.readouterr().out

    def test_lce_stage_with_sampler_defaults_trains(self, ws, tmp_path):
        # the sampler's 20 negatives of a 50-deep pool, at retrieval depth 100
        config = json.loads((ws / "exp.json").read_text(encoding="utf-8"))
        config["plans"] = {"C": [{"loss": "lce", "lr": 1e-3, "steps": 20}]}
        for key in ("corpus", "queries", "qrels", "teacher"):
            config[key] = str(ws / config[key])
        (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        rc = main(["train", "--config", str(tmp_path / "exp.json"), "--plan", "C",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "C" / "params.bin").is_file()


class TestRerank:
    def test_round_trip(self, ws, tmp_path, capsys):
        out_path = tmp_path / "reranked.txt"
        rc = main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"),
            "--run", str(ws / "bm25.txt"),
            "--params", str(ws / "trained" / "C" / "params.bin"),
            "--depth", "20", "--out", str(out_path),
        ])
        assert rc == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        reranked = {r.query_id: r for r in parse_run(out_path.read_text(encoding="utf-8"))}
        first = {r.query_id: r for r in parse_run((ws / "bm25.txt").read_text(encoding="utf-8"))}
        assert set(reranked) == set(first)
        for qid, r in reranked.items():
            head = list(first[qid].ids)[:20]
            assert sorted(r.ids) == sorted(head)

    def test_scores_come_from_the_checkpoint(self, ws, tmp_path):
        out_path = tmp_path / "reranked.txt"
        main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"),
            "--run", str(ws / "bm25.txt"),
            "--params", str(ws / "trained" / "C" / "params.bin"),
            "--depth", "50", "--out", str(out_path),
        ])
        reranked = parse_run(out_path.read_text(encoding="utf-8"))
        first = {r.query_id: r for r in parse_run((ws / "bm25.txt").read_text(encoding="utf-8"))}
        assert any(list(r.ids) != list(first[r.query_id].ids) for r in reranked)
        for r in reranked:
            scores = [e.score for e in r.entries]
            assert scores == sorted(scores, reverse=True)

    def test_bm25_settings_are_not_flags(self, ws, capsys):
        # params.bin does not record them, and every checkpoint is trained
        # on the experiment's
        rc = main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"),
            "--run", str(ws / "bm25.txt"),
            "--params", str(ws / "trained" / "C" / "params.bin"), "--k1", "1.2",
        ])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --k1 1.2\n")

    @pytest.mark.parametrize("buckets, hidden", [(0, 3), (16, 0)])
    def test_empty_shape_checkpoint_exits_two(self, ws, tmp_path, capsys, buckets, hidden):
        # a header of this shape over zeros of the length it implies
        size = hidden * (buckets + N_DENSE) + 2 * hidden + 1
        path = tmp_path / "params.bin"
        path.write_bytes(struct.pack("<4sHII", b"RFCP", 1, buckets, hidden) + bytes(8 * size))
        rc = main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"),
            "--run", str(ws / "bm25.txt"), "--params", str(path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_each_context_serves_one_query(self, ws, tmp_path, monkeypatch):
        # each query is re-ranked once, so no context should hold two queries' rows
        served: dict[ScoringContext, set[str]] = {}  # keeps every context alive
        real = ScoringContext.feature_matrix

        def feature_matrix(self, query, doc_ids):
            served.setdefault(self, set()).add(query.id)
            return real(self, query, doc_ids)

        monkeypatch.setattr(ScoringContext, "feature_matrix", feature_matrix)
        rc = main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"),
            "--run", str(ws / "bm25.txt"),
            "--params", str(ws / "trained" / "C" / "params.bin"),
            "--out", str(tmp_path / "reranked.txt"),
        ])
        assert rc == 0
        assert len(served) == len(parse_run((ws / "bm25.txt").read_text(encoding="utf-8")))
        assert all(len(qids) == 1 for qids in served.values())

    def test_missing_params_file(self, ws, capsys):
        rc = main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(ws / "data" / "queries.tsv"),
            "--run", str(ws / "bm25.txt"), "--params", str(ws / "ghost.bin"),
        ])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_query_missing_from_queries_file(self, ws, tmp_path, capsys):
        short = tmp_path / "queries.tsv"
        lines = (ws / "data" / "queries.tsv").read_text(encoding="utf-8").splitlines()
        short.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")
        rc = main([
            "rerank", "--corpus", str(ws / "data" / "corpus.tsv"),
            "--queries", str(short), "--run", str(ws / "bm25.txt"),
            "--params", str(ws / "trained" / "C" / "params.bin"),
        ])
        assert rc == 2
        assert "missing from queries file" in capsys.readouterr().err


class TestEvaluate:
    def test_csv_to_stdout(self, ws, capsys):
        rc = main([
            "evaluate", "--run", str(ws / "bm25.txt"),
            "--qrels", str(ws / "data" / "qrels.txt"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "qid,metric,value"
        assert any(line.startswith("all,AP,") for line in lines)
        assert any(line.startswith("all,nDCG@10,") for line in lines)
        assert any(line.startswith("all,MRR@10,") for line in lines)
        assert "AP: " in captured.err and " over 40 queries" in captured.err

    def test_metric_subset_and_out_file(self, ws, tmp_path, capsys):
        out_path = tmp_path / "m.csv"
        rc = main([
            "evaluate", "--run", str(ws / "bm25.txt"),
            "--qrels", str(ws / "data" / "qrels.txt"),
            "--metrics", "ndcg@5", "--out", str(out_path),
        ])
        assert rc == 0
        text = out_path.read_text(encoding="utf-8")
        assert "nDCG@5" in text and "AP" not in text
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_bad_cutoff(self, ws, capsys):
        rc = main([
            "evaluate", "--run", str(ws / "bm25.txt"),
            "--qrels", str(ws / "data" / "qrels.txt"), "--metrics", "ndcg@ten",
        ])
        assert rc == 2
        assert "bad metric cutoff" in capsys.readouterr().err

    def test_unknown_metric_kind(self, ws, capsys):
        rc = main([
            "evaluate", "--run", str(ws / "bm25.txt"),
            "--qrels", str(ws / "data" / "qrels.txt"), "--metrics", "recall",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_metrics(self, ws, capsys):
        rc = main([
            "evaluate", "--run", str(ws / "bm25.txt"),
            "--qrels", str(ws / "data" / "qrels.txt"), "--metrics", ",",
        ])
        assert rc == 2
        assert "no metrics" in capsys.readouterr().err

    @pytest.mark.parametrize("metrics, flag, message", [
        ("ndcg@10", ["--threshold", "2"], "--threshold is read by ap and mrr only"),
        ("ap,mrr@10", ["--gain", "exponential"], "--gain is read by ndcg only"),
    ])
    def test_flag_no_metric_reads(self, ws, capsys, metrics, flag, message):
        rc = main([
            "evaluate", "--run", str(ws / "bm25.txt"),
            "--qrels", str(ws / "data" / "qrels.txt"), "--metrics", metrics, *flag,
        ])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_flags_go_to_the_metrics_that_read_them(self, ws, tmp_path):
        argv = ["evaluate", "--run", str(ws / "bm25.txt"),
                "--qrels", str(ws / "data" / "qrels.txt"), "--metrics", "ap,ndcg@10"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--threshold", "2", "--out", str(flagged)]) == 0
        plain, flagged = (dict(line.rsplit(",", 1) for line in p.read_text().splitlines())
                          for p in (plain, flagged))
        # the threshold moves AP only; nDCG@10 reads every positive grade as before
        assert plain["all,nDCG@10"] == flagged["all,nDCG@10"]
        assert plain["all,AP"] != flagged["all,AP"]


@pytest.fixture(scope="module")
def variant_runs(ws, tmp_path_factory):
    """Two copies of the first-stage run, one intact and one reversed per query."""
    root = tmp_path_factory.mktemp("cmp")
    base = parse_run((ws / "bm25.txt").read_text(encoding="utf-8"))
    for label, flip in (("sysA", False), ("sysB", True)):
        rankings = []
        for r in base:
            docs = list(r.ids)
            if flip:
                docs = docs[::-1]
            scores = [float(len(docs) - i) for i in range(len(docs))]
            rankings.append(Ranking(r.query_id, docs, scores))
        (root / f"{label}.txt").write_text(write_run(rankings, label), encoding="utf-8")
    return root


class TestCompare:
    def test_markdown_table(self, ws, variant_runs, capsys):
        rc = main([
            "compare", "--qrels", str(ws / "data" / "qrels.txt"),
            "--baseline", str(ws / "bm25.txt"),
            str(variant_runs / "sysA.txt"), str(variant_runs / "sysB.txt"),
            "--pairs", "sysA:sysB",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| System | AP | nDCG@10 | MRR@10 |")
        for label in ("bm25", "sysA", "sysB"):
            assert f"| {label} |" in out
        # sysA re-ranks identically to bm25; reversed sysB must trail it
        assert "**" in out

    def test_out_file(self, ws, variant_runs, tmp_path):
        out_path = tmp_path / "table.md"
        rc = main([
            "compare", "--qrels", str(ws / "data" / "qrels.txt"),
            "--baseline", str(ws / "bm25.txt"), str(variant_runs / "sysA.txt"),
            "--out", str(out_path),
        ])
        assert rc == 0
        assert out_path.read_text(encoding="utf-8").startswith("| System |")

    def test_gain_without_ndcg(self, ws, variant_runs, capsys):
        rc = main([
            "compare", "--qrels", str(ws / "data" / "qrels.txt"),
            "--baseline", str(ws / "bm25.txt"), str(variant_runs / "sysA.txt"),
            "--metrics", "ap", "--gain", "exponential",
        ])
        assert rc == 2
        assert "--gain is read by ndcg only" in capsys.readouterr().err

    def test_bad_pairs(self, ws, variant_runs, capsys):
        rc = main([
            "compare", "--qrels", str(ws / "data" / "qrels.txt"),
            "--baseline", str(ws / "bm25.txt"), str(variant_runs / "sysA.txt"),
            "--pairs", "sysA",
        ])
        assert rc == 2
        assert "bad --pairs" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    """The README's command-line block as argument lists, one per command,
    with backslash continuations joined and comments dropped."""
    readme = (_REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
    def test_command_parses(self, argv):
        assert argv[0] == "rankforge"
        assert _build_parser().parse_args(argv[1:]).command == argv[1]

    def test_compare_line_runs_on_experiment_output(self, ws, tmp_path, monkeypatch):
        (argv,) = [a for a in _readme_commands() if a[1] == "compare"]
        shutil.copytree(ws / "data", tmp_path / "data")
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(ws / "exp.json"), "--out", str(out)]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(argv[1:]) == 0
        table = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8").splitlines()
        # the header and the untrained, C and D rows of rq1.md
        assert len(table) == 5
        assert set(table) <= set((out / "rq1.md").read_text(encoding="utf-8").splitlines())


class TestSynth:
    def test_default_seed_is_42(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out, extra in ((a, []), (b, ["--seed", "42"])):
            rc = main([
                "synth", "--out", str(out), "--vocab", "100", "--topics", "2",
                "--docs-per-topic", "5", "--queries", "4", *extra,
            ])
            assert rc == 0
        assert (a / "corpus.tsv").read_bytes() == (b / "corpus.tsv").read_bytes()
        out_text = capsys.readouterr().out
        assert out_text.count("wrote ") == 8

    def test_invalid_spec(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--vocab", "2", "--topics", "10"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_numpy_ma_not_imported(self, tmp_path):
        """synth finds its groups by counting and sorting, not with numpy's
        set routines, which import numpy.ma."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rankforge.cli import main; rc = main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules); sys.exit(rc)",
             "synth", "--out", str(tmp_path / "data"), "--seed", "42", "--noise", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestCommandImports:
    """A command loads only the modules it runs: synth, index and retrieve
    start no training, evaluation or scoring code."""

    RUN_ONLY = {f"rankforge.{m}" for m in
                ("experiment", "training", "evaluation", "losses", "scorer")}

    @staticmethod
    def loaded_after(*argv: str) -> set[str]:
        """The modules a fresh process holds once `main(argv)` returns."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rankforge.cli import main; rc = main(sys.argv[1:]); "
             "print(' '.join(sys.modules)); sys.exit(rc)", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @pytest.mark.parametrize("command", ["synth", "index", "retrieve"])
    def test_command_loads_no_run_code(self, ws, tmp_path, command):
        corpus, queries = str(ws / "data" / "corpus.tsv"), str(ws / "data" / "queries.tsv")
        argv = {
            "synth": ["--out", str(tmp_path / "data"), "--vocab", "100", "--topics", "2",
                      "--docs-per-topic", "5", "--queries", "4"],
            "index": ["--corpus", corpus],
            "retrieve": ["--corpus", corpus, "--queries", queries,
                         "--out", str(tmp_path / "bm25.txt")],
        }[command]
        loaded = self.loaded_after(command, *argv)
        assert "rankforge.data" in loaded
        assert sorted(loaded & self.RUN_ONLY) == []

    def test_experiment_loads_them(self, ws, tmp_path):
        loaded = self.loaded_after(
            "experiment", "--config", str(ws / "exp.json"), "--out", str(tmp_path / "out")
        )
        assert self.RUN_ONLY <= loaded


class TestExperimentCommand:
    def test_end_to_end(self, ws, tmp_path, capsys):
        rc = main([
            "experiment", "--config", str(ws / "exp.json"), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for rq in ("rq1.md", "rq2.md", "rq3.md"):
            assert (tmp_path / "out" / rq).is_file()
            assert f"wrote {tmp_path / 'out' / rq}" in out
        assert "nDCG@10 bm25:" in out
        assert "best single:" in out and "best multi:" in out
        assert "completed in" in out

    def test_cli_defaults_reproduce_the_experiment(self, ws, tmp_path):
        """`retrieve` and `rerank` at their defaults (the experiment's BM25
        settings and depths) give the ids and scores the experiment wrote;
        only the tags differ."""
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(ws / "exp.json"), "--out", str(out)]) == 0
        data = ["--corpus", str(ws / "data" / "corpus.tsv"),
                "--queries", str(ws / "data" / "queries.tsv")]
        first, served = tmp_path / "first.txt", tmp_path / "served.txt"
        assert main(["retrieve", *data, "--out", str(first)]) == 0
        assert main(["rerank", *data, "--run", str(first),
                     "--params", str(out / "C" / "params.bin"), "--out", str(served)]) == 0

        def lists(path: Path) -> dict:
            return {r.query_id: [(e.doc_id, e.score) for e in r.entries]
                    for r in parse_run(path.read_text(encoding="utf-8"))}

        assert lists(first) == lists(out / "first_stage.txt")
        expected, reranked = lists(out / "C" / "rerank.txt"), lists(served)
        assert {qid: reranked[qid] for qid in expected} == expected  # the evaluation queries

    def test_numpy_ma_not_imported(self, ws, tmp_path):
        """numpy's set routines (np.unique and its kin) import numpy.ma, half
        a megabyte of module code; an experiment uses none of them."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rankforge.cli import main; rc = main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules); sys.exit(rc)",
             "experiment", "--config", str(ws / "exp.json"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_config_errors_exit_two(self, tmp_path, capsys):
        rc = main(["experiment", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_config_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"out": "caf\xe9"}')
        assert main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1

    def test_pool_as_deep_as_the_negative_count(self, tmp_path):
        # the first-stage rankings of even-numbered queries end at their 20th
        # doc not judged relevant, of odd-numbered ones at their 19th: the
        # odd ones' pools hold 19 negatives, one short of the sampler's 20,
        # so they are dropped before training, not mid-stage
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "42", "--noise", "0.0"]) == 0
        assert main(["retrieve", "--corpus", str(data / "corpus.tsv"),
                     "--queries", str(data / "queries.tsv"),
                     "--out", str(tmp_path / "bm25.txt")]) == 0
        qrels = parse_qrels((data / "qrels.txt").read_text(encoding="utf-8")).by_query
        cut = []
        for r in parse_run((tmp_path / "bm25.txt").read_text(encoding="utf-8")):
            unjudged = [i for i, d in enumerate(r.ids) if qrels[r.query_id].get(d, 0) < 1]
            end = unjudged[19 - int(r.query_id[1:]) % 2] + 1
            cut.append(Ranking(r.query_id, r.ids[:end], r.scores[:end]))
        (tmp_path / "cut.txt").write_text(write_run(cut, tag="bm25"), encoding="utf-8")
        lce = dict(_LCE, steps=20)
        rk = dict(_RK, steps=20)
        config = {
            "corpus": "data/corpus.tsv", "queries": "data/queries.tsv",
            "qrels": "data/qrels.txt", "teacher": "data/teacher.jsonl",
            "first_stage": "cut.txt", "seed": 42,
            "plans": {"C": [lce], "D": [rk], "C->D": [lce, rk], "D->C": [rk, lce]},
        }
        (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        rc = main(["experiment", "--config", str(tmp_path / "exp.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["queries"] == {"eval": 50, "train": 97, "val": 1}
        # the trained queries are the even-numbered ones not held out
        held_out = {r.query_id for r in parse_run(
            (tmp_path / "out" / "untrained" / "rerank.txt").read_text(encoding="utf-8"))}
        even = {r.query_id for r in cut if int(r.query_id[1:]) % 2 == 0}
        assert summary["queries"]["train"] + summary["queries"]["val"] == len(even - held_out)

    def test_document_missing_from_corpus_drops_query(self, tmp_path):
        # the last teacher entry names a document the corpus does not hold:
        # its query is dropped in preparation, not failed on in training
        assert main(["synth", "--out", str(tmp_path / "data"), "--seed", "42",
                     "--noise", "0.0"]) == 0
        teacher = tmp_path / "data" / "teacher.jsonl"
        lines = teacher.read_text(encoding="utf-8").splitlines()
        last = json.loads(lines[-1])
        assert last["qid"] == "q0249"
        last["ranked"].insert(0, "zz_missing")
        teacher.write_text("\n".join([*lines[:-1], json.dumps(last)]) + "\n", encoding="utf-8")
        lce = dict(_LCE, steps=20)
        rk = dict(_RK, steps=20)
        config = {
            "corpus": "data/corpus.tsv", "queries": "data/queries.tsv",
            "qrels": "data/qrels.txt", "teacher": "data/teacher.jsonl", "seed": 42,
            "plans": {"C": [lce], "D": [rk], "C->D": [lce, rk], "D->C": [rk, lce]},
        }
        (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")
        rc = main(["experiment", "--config", str(tmp_path / "exp.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["queries"]["train"] + summary["queries"]["val"] == 199

    def test_no_query_with_corpus_documents_exits_two(self, ws, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(ws / "data", data)
        entries = [json.loads(line) for line in
                   (data / "teacher.jsonl").read_text(encoding="utf-8").splitlines()]
        (data / "teacher.jsonl").write_text(
            "".join(json.dumps(dict(e, ranked=["zz_missing", *e["ranked"]])) + "\n"
                    for e in entries),
            encoding="utf-8",
        )
        shutil.copy(ws / "exp.json", tmp_path / "exp.json")
        assert main(["experiment", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: only 0 trainable queries; first dropped query q\d+: "
                            r"document 'zz_missing' has no text in corpus\n", err)
        assert not (tmp_path / "out").exists()

    def test_worker_error_exits_two(self, ws, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        real_run_stage = rankforge.training.run_stage

        def run_stage(*args, **kwargs):
            if os.getpid() != parent:
                raise DataError("query q0001: failed in a worker")
            return real_run_stage(*args, **kwargs)

        monkeypatch.setattr(rankforge.training, "run_stage", run_stage)
        monkeypatch.setattr(rankforge.experiment, "_usable_cpus", lambda: 2)
        assert main(["experiment", "--config", str(ws / "exp.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "error: query q0001: failed in a worker\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", [
        {"metrics": [{"kind": "ap"}]},  # the protocol's metrics are fixed
        {"seed": True},
        {"plans": ["C"]},
        {"seed": 8.7},
        {"retrieve_depth": 100},  # so are its depths, even at the fixed value
        {"plans": {"C": [dict(_LCE, steps=0)]}},
        {"plans": {"C->D": {"preset": "reference", "variant": "base", "scale": 0.1}}},
        {"plans": {"D": [{"loss": "ranknet", "lr": 1e-3, "steps": 5, "negatives": 7}]}},
        {"plans": {"C": [dict(_LCE, lr=-1.5)]}},
        {"plans": {"C": [dict(_LCE, lr=10**400)]}},  # an integer no float holds
        # json.loads accepts NaN and Infinity, which are not JSON
        {"plans": {"C": [dict(_LCE, lr=math.nan)]}},
        {"plans": {"C": [dict(_LCE, lr=math.inf)]}},
        {"seed": math.nan},
    ])
    def test_malformed_section_exits_two(self, ws, tmp_path, capsys, section):
        config = json.loads((ws / "exp.json").read_text(encoding="utf-8"))
        config.update({k: str(ws / config[k]) for k in ("corpus", "queries", "qrels", "teacher")})
        config.update(section)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_exits_two(self, ws, tmp_path, capsys):
        config = json.loads((ws / "exp.json").read_text(encoding="utf-8"))
        config.update({k: str(ws / config[k]) for k in ("corpus", "queries", "qrels", "teacher")})
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 7, ' + json.dumps(config)[1:], encoding="utf-8")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "duplicate key 'seed'" in err
        assert not (tmp_path / "out").exists()


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        assert main(["index"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestConsoleEntryPoint:
    def test_installed_script(self, ws, tmp_path):
        """The `rankforge` script that an install generates from pyproject.toml.

        The script is written here from the `[project.scripts]` entry, in the
        form an installer gives it, so the check needs no install. It runs
        against the copy of the package this suite imported (see the
        `subprocess_import_path` fixture).
        """
        tomllib = pytest.importorskip("tomllib")
        with open(_REPO_ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"].get("scripts", {})
        assert "rankforge" in scripts
        module, sep, attr = scripts["rankforge"].partition(":")
        assert sep and module and attr
        script = tmp_path / "rankforge"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        proc = subprocess.run(
            [sys.executable, str(script),
             "index", "--corpus", str(ws / "data" / "corpus.tsv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "documents: 100" in proc.stdout

    @pytest.mark.skipif(shutil.which("rankforge") is None,
                        reason="no `rankforge` command on PATH (package not installed)")
    def test_script_on_path(self, ws):
        proc = subprocess.run(
            ["rankforge", "index", "--corpus", str(ws / "data" / "corpus.tsv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "documents: 100" in proc.stdout

    def test_module_failure_exit_code(self, ws):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rankforge.cli import main; sys.exit(main(sys.argv[1:]))",
             "index", "--corpus", str(ws / "missing.tsv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
