"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import spec
from spans import ROOT as ROOT_SPAN
from spans import Tracer, summarize

sys.path.insert(0, str(run.ROOT / "src"))


def test_self_times_and_other_add_up_to_traced_wall():
    # run 0..10 holds stage 1..4 (which holds optimizer 2..3), stage 5..6.5
    # and optimizer 7..7.5 called straight from the root
    names = [ROOT_SPAN, "training.stage", "training.optimizer"]
    spans = [
        [0, 0.0, 10.0, -1],
        [1, 1.0, 4.0, 0],
        [2, 2.0, 3.0, 1],
        [1, 5.0, 6.5, 0],
        [2, 7.0, 7.5, 0],
    ]
    rows = summarize(names, spans)
    assert rows[ROOT_SPAN] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert rows["training.stage"] == {"calls": 2, "total_s": 4.5, "self_s": 3.5}
    assert rows["training.optimizer"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}

    metrics, errors = layers.derive(
        {"names": names, "spans": spans, "counters": {}, "missing": []})
    assert errors == []
    assert metrics["trace.wall_s"] == 10.0
    assert metrics["trace.other_s"] == 5.0
    assert metrics["training.stage_s"] == 4.5  # inclusive
    assert metrics["training.optimizer_s"] == 1.5
    assert metrics["training.optimizer_steps"] == 2


def test_derive_reports_broken_accounting():
    names = [ROOT_SPAN, "data.parse"]
    two_roots = [[0, 0.0, 1.0, -1], [1, 2.0, 3.0, -1]]
    _, errors = layers.derive(
        {"names": names, "spans": two_roots, "counters": {}, "missing": ["x.y"]})
    assert any("root" in e for e in errors)
    assert any("x.y" in e for e in errors)


def test_tracer_nests_spans_and_restores_targets():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Owner.inner(x) * 2

    holder = type("Module", (), {"outer": staticmethod(outer)})
    tracer = Tracer("test")
    tracer.patch(Owner, "inner", lambda fn: tracer.timed("inner", fn))
    tracer.patch(holder, "outer", lambda fn: tracer.timed("outer", fn))
    with tracer.root():
        assert holder.outer(1) == 4
    tracer.restore()
    assert Owner.inner(1) == 2 and holder.outer(1) == 4  # untimed again
    by_name = {tracer.names[s[0]]: (i, s) for i, s in enumerate(tracer.spans)}
    root_idx, _ = by_name[ROOT_SPAN]
    outer_idx, outer_span = by_name["outer"]
    _, inner_span = by_name["inner"]
    assert len(tracer.spans) == 3
    assert outer_span[3] == root_idx and inner_span[3] == outer_idx
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]


def test_peak_rss_is_read_per_child(tmp_path):
    # RUSAGE_CHILDREN keeps the largest child waited on so far; wait4 does not
    r = run.Run(tmp_path)
    big = r.child([sys.executable, "-c", "x = 'x' * (200 * 2**20)"])
    small = r.child([sys.executable, "-c", "pass"])
    assert big.rc == small.rc == 0
    assert big.rss_mb > 200
    assert small.rss_mb < 100


def test_serve_check_catches_wrong_scores():
    from rankforge.data import parse_corpus
    from rankforge.evaluation import rerank
    from rankforge.data import Query
    from rankforge.retrieval import Bm25Params, build_index, retrieve_topk
    from rankforge.scorer import ScorerConfig, ScoringContext, init_params, save_params

    import child

    corpus = parse_corpus("d1\tthe cat sat\nd2\tthe dog sat\nd3\ta cat and a dog\n")
    index = build_index(corpus)
    ctx = ScoringContext(corpus, index, Bm25Params(), buckets=8)
    params = init_params(ScorerConfig(buckets=8, hidden=4, seed=3))
    query = Query("q1", "cat dog")
    first = retrieve_topk(index, Bm25Params(), query, 100)
    ranked = rerank(params, ctx, query, first, 100)
    blob = save_params(params)
    assert child.check_served([(query, first, ranked)], ctx, blob) == []

    params.b2 += 1.0
    assert child.check_served([(query, first, ranked)], ctx, save_params(params))
    dropped = type(ranked)(ranked.query_id, ranked.entries[:-1])
    assert child.check_served([(query, first, dropped)], ctx, blob)


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    setup = next(m for m in on_disk["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in on_disk["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    """Two traced runs of a workload agree on every count, byte total and
    ratio, and report every per-layer metric."""
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--trace", "1"],
            capture_output=True, text=True, cwd=run.ROOT, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout
        assert set(result["metrics"]) == set(spec.PER_LAYER)
        results.append({k: m["value"] for k, m in result["metrics"].items()})
    exact = [n for n, (unit, *_) in spec.PER_LAYER.items() if unit in ("count", "bytes", "ratio")]
    assert {"scorer.extract_calls", "training.optimizer_steps"} <= set(exact)
    for name in exact:
        assert results[0][name] == results[1][name], name
    assert results[0]["training.optimizer_steps"] == 11_500
    assert results[0]["training.stages_run"] == 6
