"""Generated datasets: determinism, pinned bytes, structure, grade strata,
teacher order."""

import hashlib
from collections import Counter

import pytest

import rankforge.synth
from rankforge.data import parse_corpus, parse_qrels, parse_queries, parse_teacher
from rankforge.retrieval import tokenize
from rankforge.rng import SplitMix64
from rankforge.synth import (
    TEACHER_DEPTH,
    SynthDataset,
    SynthSpec,
    generate,
    write_dataset,
)

SPEC = SynthSpec(vocab_size=800, topics=4, docs_per_topic=25, queries=40, noise=0.5, seed=7)
SLICE = SPEC.vocab_size // SPEC.topics


@pytest.fixture(scope="module")
def dataset():
    return generate(SPEC)


@pytest.fixture(scope="module")
def parsed(dataset):
    return (
        parse_corpus(dataset.corpus_tsv),
        parse_queries(dataset.queries_tsv),
        parse_qrels(dataset.qrels_txt),
        parse_teacher(dataset.teacher_jsonl),
    )


def _word_index(token: str) -> int:
    assert token.startswith("w") and len(token) == 6
    return int(token[1:])


def _topic_of_doc(doc_id: str) -> int:
    return int(doc_id[1:]) // SPEC.docs_per_topic


class TestSpecValidation:
    def test_counts_positive(self):
        for field in ("vocab_size", "topics", "docs_per_topic", "queries"):
            with pytest.raises(ValueError, match=field):
                SynthSpec(**{field: 0})

    def test_vocab_covers_topics(self):
        with pytest.raises(ValueError, match="per topic"):
            SynthSpec(vocab_size=5, topics=10)

    def test_noise_bounds(self):
        with pytest.raises(ValueError, match="noise"):
            SynthSpec(noise=-0.1)
        with pytest.raises(ValueError, match="noise"):
            SynthSpec(noise=float("nan"))
        SynthSpec(noise=0.0)


class TestDeterminism:
    def test_same_seed_same_bytes(self, dataset):
        again = generate(SPEC)
        assert again == dataset

    def test_seed_changes_content(self, dataset):
        other = generate(SynthSpec(
            vocab_size=800, topics=4, docs_per_topic=25, queries=40, noise=0.5, seed=8
        ))
        assert other.corpus_tsv != dataset.corpus_tsv
        assert other.queries_tsv != dataset.queries_tsv

    def test_noise_only_touches_teacher(self, dataset):
        quiet = generate(SynthSpec(
            vocab_size=800, topics=4, docs_per_topic=25, queries=40, noise=0.0, seed=7
        ))
        assert quiet.corpus_tsv == dataset.corpus_tsv
        assert quiet.queries_tsv == dataset.queries_tsv
        assert quiet.qrels_txt == dataset.qrels_txt
        assert quiet.teacher_jsonl != dataset.teacher_jsonl


# sha256 of (corpus, queries, qrels, teacher) for specs spanning the code
# paths: the test_07 shape with and without teacher noise, the rerank-serve
# benchmark shape, a single topic (no side topics), a single document per
# topic (no teacher), and large noise at the largest seed
PINNED = {
    "test07": (SynthSpec(seed=42, noise=0.0), (
        "9695bb16d87239e80c9fdfc0fc8f4fc515ccfba4ee7bb81ce6e41ee8407adacf",
        "be5269c3e6a995618df9f84aa21416fce0ab67d1541f87ed4026008f47198f52",
        "b501b0b4ad81a1fa783e2086c4c11e8fb90818d53da8cc6d08cf9288f508f78c",
        "bee3ea21989523faef6d0da1e6edcbd93365520bcdbaea8ef4f364ccce22abd1",
    )),
    "test07-noise": (SynthSpec(seed=42, noise=0.5), (
        "9695bb16d87239e80c9fdfc0fc8f4fc515ccfba4ee7bb81ce6e41ee8407adacf",
        "be5269c3e6a995618df9f84aa21416fce0ab67d1541f87ed4026008f47198f52",
        "b501b0b4ad81a1fa783e2086c4c11e8fb90818d53da8cc6d08cf9288f508f78c",
        "98604815780999cf7ca274ac75ed9f30f6cea8d85df9b8129874af0b0b566699",
    )),
    "rerank-serve": (SynthSpec(vocab_size=10000, topics=40, queries=500, noise=0.0, seed=7), (
        "2d8f5ffc154230c1f800f718b7ee77a67d40c0746d4c1b847f9242058f46ebb7",
        "b475cf9d135177f83305fd78c25434b5b13e56a6a9a9551823d36ec13e7a8b95",
        "718929433c95b2865c06294bf64e223c44b96827047a9b8eaec567d2436455f7",
        "2143c0a40216f5be6445b617b2d5ac3efee0b5e476cd4626e9ee3b93bda7a2e3",
    )),
    "one-topic": (SynthSpec(vocab_size=300, topics=1, docs_per_topic=30, queries=12, seed=3), (
        "f75d7725ee3f145c3d92ef1d1a552aef4c89980bdf14313f56610a4137416c27",
        "7bc99076cef628283be47a5cae6baa15de8091496ad2c834dd3217c261857487",
        "afcfedab0dbcd46a687d2db032571dd0d8b0c4a6b571173510982802b020f244",
        "ae090959c10a61fc5900801de6d7f928173216ad7c358f6704306f67073a2d35",
    )),
    "one-doc": (SynthSpec(vocab_size=200, topics=5, docs_per_topic=1, queries=9, seed=11), (
        "91f3abeb49284a70032cacce5fe10546a79f3928ffcc41ec45513300537f2ee3",
        "bec50714dadee6fa0c48bc5f8f0e12713dd52030274f7f5fcd5cd83f60d83cc0",
        "15b82e98aaef1a2bf988c5e2d7829577cfbc254e3fbb4bb6e3502970f01530f0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    )),
    "max-seed-noise": (SynthSpec(vocab_size=400, topics=4, docs_per_topic=20, queries=10,
                                 noise=2.5, seed=2**64 - 1), (
        "69f0b2f0ad21b734b7c20810e85735d5dde040aff56faa83246f0a85ec0129be",
        "7a3652eb8eb7724f107bddee8f71da1e20bebb0c24c7282aa25b256bdcee9fb9",
        "e71d99f5ca0a266fbaa3d91dc83b07db524531a8e56fd134edd87052d307bc46",
        "dc951fb62965b77aebda4b424f34f83c496a762ed39aa2960a21e0ec10312ed5",
    )),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_bytes(name):
    """Every generated file keeps the bytes it has always had."""
    spec, want = PINNED[name]
    ds = generate(spec)
    got = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (ds.corpus_tsv, ds.queries_tsv, ds.qrels_txt, ds.teacher_jsonl)
    )
    assert got == want


class TestBlockDraws:
    def test_draw_count_does_not_grow_with_size(self, monkeypatch):
        # at noise 0 every draw is one of a fixed number of array passes:
        # no scalar generator step and no Box-Muller deviate, however many
        # documents and queries
        calls = Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(SplitMix64, "next_u64", counted("next_u64", SplitMix64.next_u64))
        for name in ("box_muller", "state_below", "state_sample", "state_uniforms"):
            monkeypatch.setattr(rankforge.synth, name,
                                counted(name, getattr(rankforge.synth, name)))
        counts = []
        for docs, queries in ((25, 40), (100, 40), (25, 400)):
            calls.clear()
            generate(SynthSpec(vocab_size=800, topics=4, docs_per_topic=docs,
                               queries=queries, noise=0.0, seed=7))
            counts.append(dict(calls))
        assert counts[0] == {"state_uniforms": 3, "state_below": 2, "state_sample": 1}
        assert counts[1] == counts[0] and counts[2] == counts[0]


class TestCorpusShape:
    def test_doc_count_and_ids(self, parsed):
        corpus, _, _, _ = parsed
        assert len(corpus) == SPEC.topics * SPEC.docs_per_topic
        assert list(corpus) == [f"d{i:05d}" for i in range(len(corpus))]

    def test_doc_lengths(self, parsed):
        corpus, _, _, _ = parsed
        for doc_id, text in corpus.items():
            n = len(tokenize(text))
            assert 20 <= n <= 60, doc_id

    def test_vocabulary_stays_in_range(self, parsed):
        corpus, _, _, _ = parsed
        for text in corpus.values():
            for tok in tokenize(text):
                assert 0 <= _word_index(tok) < SPEC.vocab_size

    def test_primary_topic_dominates_high_grades(self, parsed):
        # realized token share is noisy, but averaged per grade it must
        # reproduce the mixture ordering 3 > 2 > 1 > 0
        corpus, _, qrels, _ = parsed
        grade_of = {}
        for grades in qrels.by_query.values():
            grade_of.update(grades)  # identical across queries of the topic
        share_sums = {g: [0.0, 0] for g in range(4)}
        for doc_id, text in corpus.items():
            topic = _topic_of_doc(doc_id)
            toks = tokenize(text)
            inside = sum(
                1 for t in toks if topic * SLICE <= _word_index(t) < (topic + 1) * SLICE
            )
            acc = share_sums[grade_of[doc_id]]
            acc[0] += inside / len(toks)
            acc[1] += 1
        means = {g: s / n for g, (s, n) in share_sums.items()}
        assert means[3] > means[2] > means[1] > means[0]
        assert means[3] > 0.75
        assert means[0] < 0.25


class TestQueries:
    def test_count_and_lengths(self, parsed):
        _, queries, _, _ = parsed
        assert len(queries) == SPEC.queries
        assert [q.id for q in queries] == [f"q{i:04d}" for i in range(SPEC.queries)]
        for q in queries:
            assert 3 <= len(tokenize(q.text)) <= 6

    def test_tokens_come_from_topic_head(self, parsed):
        # query vocabulary is capped to the frequent end of the topic slice
        _, queries, _, _ = parsed
        for i, q in enumerate(queries):
            topic = i % SPEC.topics
            lo = topic * SLICE
            for tok in tokenize(q.text):
                assert lo <= _word_index(tok) < lo + 25, q.id


class TestQrels:
    def test_every_topic_doc_judged(self, parsed):
        _, queries, qrels, _ = parsed
        for i, q in enumerate(queries):
            judged = qrels.docs_for(q.id)
            assert len(judged) == SPEC.docs_per_topic
            topic = i % SPEC.topics
            assert all(_topic_of_doc(d) == topic for d in judged)

    def test_grade_strata_counts(self, parsed):
        # docs_per_topic=25 quantizes the published shares to 1/2/3/19
        _, queries, qrels, _ = parsed
        for q in queries:
            judged = qrels.docs_for(q.id)
            by_grade = {g: sum(1 for v in judged.values() if v == g) for g in range(4)}
            assert by_grade == {3: 1, 2: 2, 1: 3, 0: 19}

    def test_every_query_has_a_relevant_doc(self, parsed):
        _, queries, qrels, _ = parsed
        for q in queries:
            assert any(g >= 1 for g in qrels.docs_for(q.id).values())


class TestTeacher:
    def test_one_ranking_per_query(self, parsed):
        _, queries, _, teachers = parsed
        assert [t.query_id for t in teachers] == [q.id for q in queries]

    def test_depth_and_membership(self, parsed):
        _, _, qrels, teachers = parsed
        for t in teachers:
            assert len(t.doc_ids) == min(TEACHER_DEPTH, SPEC.docs_per_topic)
            judged = qrels.docs_for(t.query_id)
            assert set(t.doc_ids) <= set(judged)

    def test_noiseless_teacher_sorts_by_grade_then_id(self):
        spec = SynthSpec(
            vocab_size=800, topics=4, docs_per_topic=25, queries=8, noise=0.0, seed=7
        )
        ds = generate(spec)
        qrels = parse_qrels(ds.qrels_txt)
        for t in parse_teacher(ds.teacher_jsonl):
            judged = qrels.docs_for(t.query_id)
            want = sorted(judged, key=lambda d: (-judged[d], d))[:TEACHER_DEPTH]
            assert list(t.doc_ids) == want

    def test_noise_perturbs_but_respects_membership(self, parsed):
        # under noise the top-20 cut may change membership, never the pool
        _, _, qrels, teachers = parsed
        n_moved = 0
        for t in teachers:
            judged = qrels.docs_for(t.query_id)
            quiet = sorted(judged, key=lambda d: (-judged[d], d))[:TEACHER_DEPTH]
            if list(t.doc_ids) != quiet:
                n_moved += 1
        assert n_moved > 0  # sigma=0.5 must actually shuffle something


class TestSmallestWorlds:
    def test_single_doc_per_topic(self):
        spec = SynthSpec(vocab_size=40, topics=2, docs_per_topic=1, queries=2, seed=3)
        ds = generate(spec)
        qrels = parse_qrels(ds.qrels_txt)
        # the lone doc takes the mandatory grade-3 slot; no teacher possible
        for qid in ("q0000", "q0001"):
            assert list(qrels.docs_for(qid).values()) == [3]
        assert ds.teacher_jsonl == ""

    def test_single_topic_is_all_primary(self):
        spec = SynthSpec(vocab_size=50, topics=1, docs_per_topic=6, queries=2, seed=3)
        corpus = parse_corpus(generate(spec).corpus_tsv)
        for text in corpus.values():
            for tok in tokenize(text):
                assert _word_index(tok) < 50


class TestWriteDataset:
    def test_files_round_trip(self, dataset, tmp_path):
        paths = write_dataset(dataset, tmp_path / "data")
        assert set(paths) == {"corpus", "queries", "qrels", "teacher"}
        assert paths["corpus"].read_text(encoding="utf-8") == dataset.corpus_tsv
        assert paths["queries"].read_text(encoding="utf-8") == dataset.queries_tsv
        assert paths["qrels"].read_text(encoding="utf-8") == dataset.qrels_txt
        assert paths["teacher"].read_text(encoding="utf-8") == dataset.teacher_jsonl

    def test_creates_nested_directories(self, tmp_path):
        ds = SynthDataset("d1\ta b\n", "q1\ta\n", "q1 0 d1 1\n", "")
        paths = write_dataset(ds, tmp_path / "a" / "b")
        assert paths["corpus"].exists()
