"""Tokenizer, inverted index, BM25 scoring, and top-k retrieval."""

import math
import warnings

import numpy as np
import pytest

from rankforge import retrieval
from rankforge.data import parse_corpus
from rankforge.retrieval import (
    Bm25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    retrieve_topk,
    term_weight,
    tokenize,
)
from rankforge.scorer import extract_features
from rankforge.data import Query
from rankforge.rng import SplitMix64


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumeric_runs(self):
        assert tokenize("a1-b2") == ["a1", "b2"]

    def test_underscore_splits(self):
        # underscores are not token characters
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_order_preserved(self):
        assert tokenize("b a b") == ["b", "a", "b"]


class TestBuildIndex:
    def test_counting(self):
        index = build_index(parse_corpus("d\tcat cat dog\n"))
        # term t's postings are docs and tfs over indptr[t]:indptr[t + 1]
        assert index.terms == {"cat": 0, "dog": 1}
        assert index.indptr.tolist() == [0, 1, 2]
        assert index.docs.tolist() == [0, 0] and index.tfs.tolist() == [2, 1]
        assert index.avg_doc_length == 3.0

    def test_documents_numbered_in_id_order(self):
        index = build_index(parse_corpus("b\tdog cat\na\tcat cat\nc\t--\n"))
        assert index.doc_ids == ("a", "b", "c")
        t = index.terms["cat"]
        lo, hi = index.indptr[t], index.indptr[t + 1]
        assert index.docs[lo:hi].tolist() == [0, 1] and index.tfs[lo:hi].tolist() == [2, 1]
        assert index.lengths.tolist() == [2, 2, 0]
        # the token stream holds each document's term ids in text order
        names = {i: t for t, i in index.terms.items()}
        assert [[names[i] for i in index.tokens[lo:hi]]
                for lo, hi in zip(index.starts, index.starts[1:])] == [
            ["cat", "cat"], ["dog", "cat"], []]

    def test_empty_corpus(self):
        index = build_index(parse_corpus(""))
        assert index.size == 0

    def test_avg_length(self):
        index = build_index(parse_corpus("d1\ta b\nd2\ta b c d\n"))
        assert index.avg_doc_length == 3.0

    def test_df_counts_documents_not_occurrences(self):
        index = build_index(parse_corpus("d1\tcat cat\nd2\tcat\n"))
        t = index.terms["cat"]
        assert index.indptr[t + 1] - index.indptr[t] == 2  # not the 3 occurrences

    def test_unknown_term(self):
        index = build_index(parse_corpus("d1\ta\n"))
        # an unseen term has no id, so no postings
        assert "zzz" not in index.terms
        assert len(index.indptr) == len(index.terms) + 1


class TestBm25:
    def test_ln2_fixture(self):
        """N=2, df=1, tf=1, len=avglen scores exactly ln 2."""
        index = build_index(parse_corpus("d1\tcat dog\nd2\tfox owl\n"))
        score = bm25_score(index, Bm25Params(k1=0.9, b=0.4), ["cat"], "d1")
        assert score == pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_overlap_scores_zero(self):
        index = build_index(parse_corpus("d1\tcat dog\n"))
        assert bm25_score(index, Bm25Params(), ["fox"], "d1") == 0.0

    def test_repeated_query_term_doubles_score(self):
        index = build_index(parse_corpus("d1\tcat dog\nd2\tfox owl\n"))
        once = bm25_score(index, Bm25Params(), ["cat"], "d1")
        twice = bm25_score(index, Bm25Params(), ["cat", "cat"], "d1")
        assert twice == pytest.approx(2.0 * once, rel=1e-12)

    def test_idf_formula(self):
        corpus = parse_corpus("d1\tcat\nd2\tcat\nd3\tdog\n")
        index = build_index(corpus)
        expected = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        assert index.idf("cat") == pytest.approx(expected, rel=1e-12)

    def test_tf_monotonicity_same_length(self):
        # same doc length, higher tf of the query term scores higher
        corpus = parse_corpus("d1\tcat pad pad pad\nd2\tcat cat pad pad\n")
        index = build_index(corpus)
        low = bm25_score(index, Bm25Params(), ["cat"], "d1")
        high = bm25_score(index, Bm25Params(), ["cat"], "d2")
        assert high > low

    def test_unknown_doc_raises(self):
        index = build_index(parse_corpus("d1\tcat\n"))
        with pytest.raises(ValueError, match="d9"):
            bm25_score(index, Bm25Params(), ["cat"], "d9")

    def test_params_validated(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0.0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_non_finite_k1_rejected(self, k1):
        with pytest.raises(ValueError, match="k1 must be finite"):
            Bm25Params(k1=k1)


class TestRetrieveTopk:
    def test_single_match(self, tiny_index):
        r = retrieve_topk(tiny_index, Bm25Params(), Query("q", "bird sang"), 10)
        assert r.entries[0].doc_id == "d3"

    def test_tie_breaks_by_doc_id(self):
        index = build_index(parse_corpus("db\tcat\nda\tcat\n"))
        r = retrieve_topk(index, Bm25Params(), Query("q", "cat"), 2)
        assert list(r.ids) == ["da", "db"]

    def test_k_larger_than_candidates(self, tiny_index):
        r = retrieve_topk(tiny_index, Bm25Params(), Query("q", "cat"), 50)
        # only docs containing at least one query term are candidates
        assert len(r.ids) == 3
        assert set(r.ids) == {"d1", "d2", "d4"}

    def test_no_match_gives_empty_ranking(self, tiny_index):
        r = retrieve_topk(tiny_index, Bm25Params(), Query("q", "zebra"), 5)
        assert len(r.ids) == 0

    def test_k_validated(self, tiny_index):
        with pytest.raises(ValueError):
            retrieve_topk(tiny_index, Bm25Params(), Query("q", "cat"), 0)

    def test_determinism(self, tiny_index):
        q = Query("q", "the cat")
        a = retrieve_topk(tiny_index, Bm25Params(), q, 5)
        b = retrieve_topk(tiny_index, Bm25Params(), q, 5)
        assert a == b


class TestImpacts:
    """Each posting's BM25 term weight is computed once per index and params."""

    REPEATS = "d1\tcat cat dog\nd2\t\nd3\tdog fox fox fox\nd4\tcat\n"  # d2 is empty

    @pytest.mark.parametrize(
        "params",
        [Bm25Params(), Bm25Params(k1=1.2, b=1.0), Bm25Params(k1=1.37, b=0.73)],
        ids=["default", "b1", "uneven"],
    )
    @pytest.mark.parametrize("world", ["empty_doc", "random"])
    def test_each_posting_is_its_term_weight(self, params, world):
        text = self.REPEATS if world == "empty_doc" else _random_corpus(SplitMix64(5), 60)
        index = build_index(parse_corpus(text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0, even at b = 1 with an empty document
            got = index.impacts(params)
        assert got.dtype == np.float64 and got.shape == index.docs.shape
        names = {t: term for term, t in index.terms.items()}
        want = []
        for t in range(len(names)):
            lo, hi = index.indptr[t], index.indptr[t + 1]
            for num, tf in zip(index.docs[lo:hi].tolist(), index.tfs[lo:hi].tolist()):
                length = int(index.lengths[num])
                norm = params.k1 * (1.0 - params.b + params.b * length / index.avg_doc_length)
                want.append(term_weight(index.idf(names[t]), tf, norm, params.k1))
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_idf_table_matches_the_formula(self):
        index = build_index(parse_corpus(self.REPEATS))
        dfs = np.diff(index.indptr)
        for term in ("cat", "dog", "fox", "zzz"):
            df = int(dfs[index.terms[term]]) if term in index.terms else 0
            want = math.log(1.0 + (index.size - df + 0.5) / (df + 0.5))
            assert type(index.idf(term)) is float and index.idf(term).hex() == want.hex()

    def test_held_per_params(self):
        index = build_index(parse_corpus(self.REPEATS))
        held = index.impacts(Bm25Params())
        assert index.impacts(Bm25Params()) is held
        assert not held.flags.writeable
        other = index.impacts(Bm25Params(k1=1.2, b=1.0))
        assert other is not held and not np.array_equal(other, held)
        assert index.impacts(Bm25Params(k1=1.2, b=1.0)) is other

    def test_second_query_computes_no_term_weight(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return term_weight(*args)

        monkeypatch.setattr(retrieval, "term_weight", counted)
        index = build_index(parse_corpus(self.REPEATS))
        params = Bm25Params()
        retrieve_topk(index, params, Query("q1", "cat dog"), 10)
        assert len(calls) == 1
        second = Query("q2", "fox dog dog cat")
        ids = list(retrieve_topk(index, params, second, 10).ids)
        extract_features(index, params, second, ids, 16)
        bm25_score(index, params, tokenize(second.text), "d3")
        assert len(calls) == 1


class TestLog1pLengths:
    """Each document's log1p(length), held in the index for feature [3]."""

    def test_bit_equal_to_math_log1p(self):
        text = TestImpacts.REPEATS + _random_corpus(SplitMix64(9), 60)
        index = build_index(parse_corpus(text))
        want = [math.log1p(n) for n in index.lengths.tolist()]
        assert index.log1p_lengths.dtype == np.float64
        assert index.log1p_lengths.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def _random_corpus(rng: SplitMix64, n_docs: int) -> str:
    words = [f"w{i}" for i in range(30)]
    lines = []
    for d in range(n_docs):
        length = 1 + rng.below(12)
        text = " ".join(words[rng.below(len(words))] for _ in range(length))
        lines.append(f"d{d:03d}\t{text}\n")
    return "".join(lines)


class TestRetrievalProperties:
    def test_ranking_invariants_and_score_agreement(self):
        """Property suite: retrieve_topk output is a valid Ranking whose
        scores match bm25_score, with ties broken by ascending doc id."""
        rng = SplitMix64(123)
        params = Bm25Params()
        for trial in range(40):
            corpus = parse_corpus(_random_corpus(rng, 3 + rng.below(20)))
            index = build_index(corpus)
            n_terms = 1 + rng.below(4)
            query = Query("q", " ".join(f"w{rng.below(30)}" for _ in range(n_terms)))
            k = 1 + rng.below(10)
            ranking = retrieve_topk(index, params, query, k)

            assert [e.rank for e in ranking.entries] == list(
                range(1, len(ranking.ids) + 1)
            )
            tokens = query.text.split()
            for entry in ranking.entries:
                direct = bm25_score(index, params, tokens, entry.doc_id)
                assert entry.score == pytest.approx(direct, rel=1e-12)
            scores = [e.score for e in ranking.entries]
            assert scores == sorted(scores, reverse=True)
            for a, b in zip(ranking.entries, ranking.entries[1:]):
                if a.score == b.score:
                    assert a.doc_id < b.doc_id

    def test_topk_is_actually_top(self):
        """No unreturned candidate outscores the last returned entry."""
        rng = SplitMix64(321)
        params = Bm25Params()
        for trial in range(20):
            corpus = parse_corpus(_random_corpus(rng, 15))
            index = build_index(corpus)
            query = Query("q", f"w{rng.below(30)} w{rng.below(30)}")
            ranking = retrieve_topk(index, params, query, 5)
            if len(ranking.ids) < 5:
                continue
            cutoff = ranking.entries[-1].score
            returned = set(ranking.ids)
            tokens = query.text.split()
            for doc_id in corpus:
                if doc_id not in returned:
                    assert bm25_score(index, params, tokens, doc_id) <= cutoff


class _ReferenceIndex:
    """The dict-of-dicts index the array-backed one replaced: term ->
    {doc_id: tf} in corpus order, and doc_id -> token count."""

    def __init__(self, corpus):
        self.postings: dict[str, dict[str, int]] = {}
        self.doc_lengths: dict[str, int] = {}
        for doc_id, text in corpus.items():
            tokens = tokenize(text)
            self.doc_lengths[doc_id] = len(tokens)
            for t in tokens:
                bucket = self.postings.setdefault(t, {})
                bucket[doc_id] = bucket.get(doc_id, 0) + 1
        n = len(self.doc_lengths)
        self.avg_doc_length = sum(self.doc_lengths.values()) / n if n else 0.0
        self.size = n

    def idf(self, term):
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.size - df + 0.5) / (df + 0.5))


def _reference_bm25_score(index, params, query_tokens, doc_id):
    """The per-document bm25_score the array one replaced, frozen as a reference."""
    length = index.doc_lengths[doc_id]
    norm = params.k1 * (1.0 - params.b + params.b * length / index.avg_doc_length) \
        if index.avg_doc_length > 0 else params.k1
    score = 0.0
    for t in query_tokens:
        tf = index.postings.get(t, {}).get(doc_id, 0)
        if tf == 0:
            continue
        score += index.idf(t) * tf * (params.k1 + 1.0) / (tf + norm)
    return score


def _reference_retrieve_topk(index, params, query, k):
    """The dict-accumulating retrieve_topk the array one replaced."""
    scores: dict[str, float] = {}
    for t in tokenize(query.text):
        plist = index.postings.get(t)
        if not plist:
            continue
        idf = index.idf(t)
        for doc_id, tf in plist.items():
            length = index.doc_lengths[doc_id]
            norm = params.k1 * (1.0 - params.b + params.b * length / index.avg_doc_length)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (params.k1 + 1.0) / (tf + norm)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def _assert_ranking_bits(got, want):
    assert [(e.doc_id, e.score.hex()) for e in got.entries] == [
        (d, s.hex()) for d, s in want
    ]


class TestRetrievalMatchesReference:
    """retrieve_topk and bm25_score reproduce the dict-based reference:
    the same documents in the same order, with the same score bits."""

    @pytest.mark.parametrize("full", [False, True])
    def test_generated_world(self, small_world, full):
        w = small_world
        ref = _ReferenceIndex(w.corpus)
        params = Bm25Params()
        k = len(w.corpus) if full else 100
        for q in w.queries:
            got = retrieve_topk(w.index, params, q, k)
            _assert_ranking_bits(got, _reference_retrieve_topk(ref, params, q, k))
            tokens = tokenize(q.text)
            for e in got.entries[:10]:
                want = _reference_bm25_score(ref, params, tokens, e.doc_id)
                assert bm25_score(w.index, params, tokens, e.doc_id).hex() == want.hex()

    def test_random_worlds_with_ties_in_shuffled_file_order(self):
        rng = SplitMix64(77)
        ties = 0
        for trial in range(30):
            lines = _random_corpus(rng, 5 + rng.below(25)).splitlines(keepends=True)
            # file order is not id order: ties must still go to the lower id
            for i in range(len(lines) - 1, 0, -1):
                j = rng.below(i + 1)
                lines[i], lines[j] = lines[j], lines[i]
            corpus = parse_corpus("".join(lines))
            index, ref = build_index(corpus), _ReferenceIndex(corpus)
            params = Bm25Params(k1=0.5 + rng.uniform(), b=rng.uniform())
            query = Query("q", " ".join(f"w{rng.below(30)}" for _ in range(1 + rng.below(4))))
            tokens = tokenize(query.text)
            for k in (3, len(corpus)):
                got = retrieve_topk(index, params, query, k)
                _assert_ranking_bits(got, _reference_retrieve_topk(ref, params, query, k))
            scores = [e.score for e in got.entries]
            ties += len(scores) - len(set(scores))
            for doc_id in corpus:
                want = _reference_bm25_score(ref, params, tokens, doc_id)
                assert bm25_score(index, params, tokens, doc_id).hex() == want.hex()
        assert ties > 0  # the worlds did exercise the tie-break
