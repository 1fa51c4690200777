"""Shared fixtures: a tiny hand-built corpus and a small generated world."""

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

import rankforge
from rankforge.data import (
    Qrels,
    Query,
    Ranking,
    TeacherRanking,
    parse_corpus,
    parse_qrels,
    parse_queries,
    parse_teacher,
)
from rankforge.retrieval import Bm25Params, InvertedIndex, build_index, retrieve_topk
from rankforge.scorer import ScorerConfig, ScoringContext
from rankforge.synth import SynthSpec, generate
from rankforge.training import QueryExample

TINY_CORPUS_TSV = (
    "d1\tthe cat sat on the mat\n"
    "d2\tthe dog chased the cat\n"
    "d3\ta bird sang in the tree\n"
    "d4\tcat cat cat everywhere\n"
    "d5\tdogs and birds share the park\n"
)


@pytest.fixture(scope="session", autouse=True)
def subprocess_import_path():
    """Subprocesses started by tests import the rankforge this suite imported.

    pytest's `pythonpath` setting reaches only this process, so the package
    root is prepended to PYTHONPATH for child interpreters too.
    """
    root = str(Path(rankforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process unreaped, running or exited
    (an exited one is reaped here, so later tests start clean)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid == 0:
        pytest.fail("test left a child process running")
    pytest.fail(f"test left child process {pid} unreaped (wait status {status})")


@pytest.fixture(scope="session")
def tiny_corpus() -> dict[str, str]:
    return parse_corpus(TINY_CORPUS_TSV)


@pytest.fixture(scope="session")
def tiny_index(tiny_corpus) -> InvertedIndex:
    return build_index(tiny_corpus)


@dataclass
class SynthWorld:
    """Parsed small synthetic dataset plus retrieval scaffolding."""

    corpus: dict[str, str]
    queries: list[Query]
    qrels: Qrels
    teachers: dict[str, TeacherRanking]
    index: InvertedIndex
    ctx: ScoringContext
    scorer_config: ScorerConfig
    rankings: dict[str, Ranking]
    examples: list[QueryExample]


SMALL_SPEC = SynthSpec(
    vocab_size=800, topics=4, docs_per_topic=25, queries=40, noise=0.5, seed=7
)
SMALL_SCORER = ScorerConfig(buckets=64, hidden=8, seed=11)


@pytest.fixture(scope="session")
def small_world() -> SynthWorld:
    ds = generate(SMALL_SPEC)
    corpus = parse_corpus(ds.corpus_tsv)
    queries = parse_queries(ds.queries_tsv)
    qrels = parse_qrels(ds.qrels_txt)
    teachers = {t.query_id: t for t in parse_teacher(ds.teacher_jsonl)}
    index = build_index(corpus)
    ctx = ScoringContext(corpus, index, Bm25Params(), buckets=SMALL_SCORER.buckets)
    rankings = {q.id: retrieve_topk(index, Bm25Params(), q, 50) for q in queries}
    examples = [
        QueryExample(
            query=q,
            judged=qrels.by_query.get(q.id),
            ranking=rankings[q.id],
            teacher=teachers.get(q.id),
        )
        for q in queries
    ]
    return SynthWorld(
        corpus, queries, qrels, teachers, index, ctx, SMALL_SCORER, rankings, examples
    )
