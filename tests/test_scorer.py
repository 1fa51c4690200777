"""Feature extraction, the two-layer scorer, gradients, and checkpoints."""

import hashlib
import math
import struct

import numpy as np
import pytest

from rankforge import retrieval, scorer
from rankforge.data import Document, Query, parse_corpus
from rankforge.errors import DataError
from rankforge.retrieval import Bm25Params, bm25_score, build_index, retrieve_topk, tokenize
from rankforge.scorer import (
    N_DENSE,
    ScorerConfig,
    ScorerParams,
    ScoringContext,
    backward_batch,
    extract_features,
    fnv1a64,
    init_params,
    load_params,
    save_params,
    score_batch,
)


class TestFnv1a64:
    def test_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


def _random_params(rng: np.random.Generator, buckets=8, hidden=3) -> ScorerParams:
    f = buckets + N_DENSE
    return ScorerParams(
        w1=rng.normal(size=(hidden, f)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=hidden),
        b2=float(rng.normal()),
    )


def _random_x(rng: np.random.Generator, buckets=8) -> np.ndarray:
    return rng.normal(size=buckets + N_DENSE)


@pytest.fixture(scope="module")
def feature_world():
    corpus = parse_corpus("d1\tcat\nd2\tdog fox\nd3\tcat dog runs fast\n")
    return corpus, build_index(corpus)


def _query_cols(corpus, index, query, buckets):
    """The query's feature columns, as the context's memo decides them."""
    return ScoringContext(corpus, index, Bm25Params(), buckets).feature_matrix(query, [])[1]


def _expected_cols(terms, buckets):
    """The dense columns, then the terms' distinct bucket columns ascending."""
    return [*range(N_DENSE), *sorted({N_DENSE + fnv1a64(t.encode()) % buckets for t in terms})]


def _full_width(corpus, index, params, query, doc_ids, buckets):
    """extract_features' block scattered into a full-width (n, F) matrix."""
    block = extract_features(index, params, query, doc_ids, buckets)
    x = np.zeros((len(doc_ids), buckets + N_DENSE))
    x[:, _query_cols(corpus, index, query, buckets)] = block
    return x


class TestExtractFeatures:

    def test_full_overlap_f2(self, feature_world):
        corpus, index = feature_world
        x = _full_width(corpus, index, Bm25Params(), Query("q", "cat"), ["d1"], 16)[0]
        assert x[1] == 1.0

    def test_disjoint_pair_zeros(self, feature_world):
        corpus, index = feature_world
        x = _full_width(corpus, index, Bm25Params(), Query("q", "owl"), ["d1"], 16)[0]
        assert x[0] == 0.0 and x[1] == 0.0 and x[2] == 0.0 and x[5] == 0.0
        assert np.all(x[N_DENSE:] == 0.0)

    def test_hashed_block_norm_zero_or_one(self, feature_world):
        corpus, index = feature_world
        for qtext in ("cat", "owl", "cat dog", "dog fox cat"):
            for did in ("d1", "d2", "d3"):
                x = _full_width(corpus, index, Bm25Params(), Query("q", qtext), [did], 16)[0]
                norm = float(np.linalg.norm(x[N_DENSE:]))
                assert norm == pytest.approx(0.0, abs=1e-15) or norm == pytest.approx(
                    1.0, rel=1e-12
                )

    def test_dense_feature_values(self, feature_world):
        corpus, index = feature_world
        q = Query("q", "cat dog")
        x = _full_width(corpus, index, Bm25Params(), q, ["d3"], 16)[0]  # "cat dog runs fast"
        bm = bm25_score(index, Bm25Params(), ["cat", "dog"], "d3")
        assert x[0] == pytest.approx(bm / (1 + bm), rel=1e-12)
        assert x[1] == 1.0  # both query terms present
        assert x[2] == pytest.approx(1.0, rel=1e-9)  # full idf overlap
        assert x[3] == pytest.approx(math.log1p(4) / 10, rel=1e-12)
        assert x[4] == pytest.approx(math.log1p(2) / 10, rel=1e-12)
        assert x[5] == 1.0  # bigram "cat dog" contiguous in doc

    def test_bigram_fraction_partial(self, feature_world):
        corpus, index = feature_world
        # "dog cat": doc d3 has "cat dog" but not "dog cat"
        x = _full_width(corpus, index, Bm25Params(), Query("q", "dog cat"), ["d3"], 16)[0]
        assert x[5] == 0.0

    def test_bounded_features(self, feature_world):
        corpus, index = feature_world
        x = _full_width(corpus, index, Bm25Params(), Query("q", "cat dog"), ["d3"], 16)[0]
        for i in (0, 1, 2, 5):
            assert 0.0 <= x[i] <= 1.0

    def test_no_document_text_tokenized(self, feature_world, monkeypatch):
        _, index = feature_world
        seen = []

        def recording(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr(scorer, "tokenize", recording)
        monkeypatch.setattr(retrieval, "tokenize", recording)
        extract_features(index, Bm25Params(), Query("q", "cat dog runs"), ["d1", "d2", "d3"], 16)
        assert seen == ["cat dog runs"]

    def test_purity(self, feature_world):
        corpus, index = feature_world
        q = Query("q", "cat dog")
        a = _full_width(corpus, index, Bm25Params(), q, ["d3"], 16)[0]
        b = _full_width(corpus, index, Bm25Params(), q, ["d3"], 16)[0]
        np.testing.assert_array_equal(a, b)


def _reference_features(index, params, query, doc, buckets):
    """The per-pair extractor the batch one replaced, frozen as a reference."""
    q_tokens = tokenize(query.text)
    d_tokens = tokenize(doc.text)
    q_set = set(q_tokens)
    d_set = set(d_tokens)
    overlap = q_set & d_set

    x = np.zeros(buckets + N_DENSE, dtype=np.float64)

    bm25 = bm25_score(index, params, q_tokens, doc.id)
    x[0] = bm25 / (1.0 + bm25)
    x[1] = len(overlap) / max(1, len(q_set))
    idf_q = sum(index.idf(t) for t in sorted(q_set))
    idf_overlap = sum(index.idf(t) for t in sorted(overlap))
    x[2] = idf_overlap / max(1e-12, idf_q)
    x[3] = math.log1p(len(d_tokens)) / 10.0
    x[4] = math.log1p(len(q_tokens)) / 10.0
    if len(q_tokens) >= 2:
        d_bigrams = set(zip(d_tokens, d_tokens[1:]))
        q_bigrams = list(zip(q_tokens, q_tokens[1:]))
        x[5] = sum(bg in d_bigrams for bg in q_bigrams) / len(q_bigrams)

    block = x[N_DENSE:]
    for t in sorted(overlap):
        block[fnv1a64(t.encode("utf-8")) % buckets] += index.idf(t)
    norm = math.sqrt(float(np.dot(block, block)))
    if norm > 0.0:
        block /= norm
    return x


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _assert_matches_reference(block: np.ndarray, cols: np.ndarray, want: np.ndarray) -> None:
    """block, over the feature columns cols, holds the full-width reference
    rows `want`, which are 0 in every other column. The dense features
    match bit for bit; the hashed block to 2 ulp, since its norm sums the
    same squares in another order than the reference's full-width dot."""
    outside = np.ones(want.shape[1], dtype=bool)
    outside[cols] = False
    assert not want[:, outside].any()
    assert block.shape == (len(want), len(cols))
    _assert_bits_equal(block[:, :N_DENSE], want[:, :N_DENSE])
    np.testing.assert_array_max_ulp(block[:, N_DENSE:], want[:, cols[N_DENSE:]], maxulp=2)


def _reference_block(corpus, index, params, query, docs, buckets):
    """The reference rows of docs, and the query's columns."""
    want = np.stack([
        _reference_features(index, params, query, doc, buckets) for doc in docs
    ])
    return want, _query_cols(corpus, index, query, buckets)


class TestExtractionMatchesReference:
    """The batch extractor and the context's compact memo reproduce the
    per-pair reference on the query's columns."""

    @pytest.mark.parametrize("buckets", [64, 1])  # 1: every term collides
    def test_generated_world_top100(self, small_world, buckets):
        w = small_world
        bm25 = Bm25Params()
        for q in w.queries:
            ids = retrieve_topk(w.index, bm25, q, 100).doc_ids()
            want, cols = _reference_block(
                w.corpus, w.index, bm25, q, [w.corpus.get(d) for d in ids], buckets
            )
            _assert_matches_reference(extract_features(w.index, bm25, q, ids, buckets), cols, want)

    @pytest.mark.parametrize("buckets, first", [
        (64, "every third"),
        (1, "every third"),  # every term shares one column
        (64, "no shared term"),  # the first block's hashed columns are all 0
    ])
    def test_context_store_matches_reference(self, small_world, buckets, first):
        w = small_world
        ctx = ScoringContext(w.corpus, w.index, Bm25Params(), buckets)
        for q in w.queries[:10]:
            ids = retrieve_topk(w.index, Bm25Params(), q, 100).doc_ids()
            if first == "every third":
                head = ids[::3]
            else:
                q_terms = set(tokenize(q.text))
                head = [d.id for d in w.corpus if not q_terms & set(tokenize(d.text))][:5]
                assert head
            # a partial block first, then the whole list reversed with a repeat,
            # so rows come from two extractions and are gathered out of order
            ctx.feature_matrix(q, head)
            asked = ids[::-1] + head[:1]
            want, cols = _reference_block(
                w.corpus, w.index, Bm25Params(), q, [w.corpus.get(d) for d in asked], buckets
            )
            block, held_cols = ctx.feature_matrix(q, asked)
            np.testing.assert_array_equal(held_cols, cols)
            _assert_matches_reference(block, cols, want)

    @pytest.mark.parametrize("qtext", [
        "cat cat dog cat",  # repeated terms
        "dog",  # one token, no bigrams
        "owl heron",  # no overlap with any doc
        "fox dog cat runs",  # bigram terms in the doc, but not adjacent
    ])
    def test_edge_queries(self, feature_world, qtext):
        corpus, index = feature_world
        q = Query("q", qtext)
        want, cols = _reference_block(corpus, index, Bm25Params(), q, list(corpus), 16)
        got = extract_features(index, Bm25Params(), q, [d.id for d in corpus], 16)
        _assert_matches_reference(got, cols, want)

    @pytest.mark.parametrize("qtext", [
        "fox owl",  # last token of d1, first token of d2: spans a document end
        "cat dog",  # d2 ends with cat, then the empty d3, then d4 starts with dog
        "cat zebra dog",  # both bigrams hold a term missing from the vocabulary
        "zebra zebra",  # a repeated bigram of a missing term
        "cat dog cat dog",  # (cat, dog) twice: counted twice
        "dog dog",  # a bigram of one term, adjacent in no document
    ])
    def test_token_stream_edges(self, qtext):
        # d3 has no tokens at all
        corpus = parse_corpus("d1\tcat dog fox\nd2\towl cat\nd3\t--\nd4\tdog owl cat\n")
        index = build_index(corpus)
        q = Query("q", qtext)
        want, cols = _reference_block(corpus, index, Bm25Params(), q, list(corpus), 16)
        got = extract_features(index, Bm25Params(), q, [d.id for d in corpus], 16)
        _assert_matches_reference(got, cols, want)

    def test_doc_missing_from_index_raises(self, feature_world):
        _, index = feature_world
        stray = Document("d9", "cat dog")
        with pytest.raises(ValueError, match="d9"):
            _reference_features(index, Bm25Params(), Query("q", "cat"), stray, 16)
        with pytest.raises(ValueError, match="d9"):
            extract_features(index, Bm25Params(), Query("q", "cat"), ["d1", "d9"], 16)


def _score(params: ScorerParams, x: np.ndarray) -> float:
    """The single-row scorer the batch one replaced, kept as a reference."""
    return float(params.w2 @ np.tanh(params.w1 @ x + params.b1) + params.b2)


def _score_backward(params: ScorerParams, x: np.ndarray, upstream: float) -> ScorerParams:
    """Single-row reference gradient of upstream * score, in the params layout."""
    a = np.tanh(params.w1 @ x + params.b1)
    dz = upstream * params.w2 * (1.0 - a * a)
    return ScorerParams(np.outer(dz, x), dz, upstream * a, upstream)


def _score_one(params: ScorerParams, x: np.ndarray) -> float:
    scores, _ = score_batch(params, x[None, :])
    return float(scores[0])


def _backward_one(params: ScorerParams, x: np.ndarray, upstream: float) -> ScorerParams:
    _, acts = score_batch(params, x[None, :])
    return backward_batch(params, x[None, :], acts, np.array([upstream]))


class TestScore:
    def test_zero_params_score_zero(self):
        params = ScorerParams(np.zeros((3, 14)), np.zeros(3), np.zeros(3), 0.0)
        assert _score_one(params, np.ones(14)) == 0.0

    def test_bias_passthrough(self):
        params = ScorerParams(np.zeros((3, 14)), np.zeros(3), np.zeros(3), 1.0)
        assert _score_one(params, np.ones(14)) == 1.0

    def test_matches_straight_line_formula(self):
        """Random cases against an independent evaluation of the formula."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = _random_params(rng)
            x = _random_x(rng)
            expected = 0.0
            for j in range(params.hidden):
                pre = float(np.dot(params.w1[j], x)) + float(params.b1[j])
                expected += float(params.w2[j]) * math.tanh(pre)
            expected += params.b2
            assert _score_one(params, x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        params = ScorerParams(np.zeros((2, 14)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            score_batch(params, np.ones((1, 13)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        params = _random_params(rng)
        xs = np.stack([_random_x(rng) for _ in range(6)])
        scores, _ = score_batch(params, xs)
        for i in range(6):
            assert scores[i] == pytest.approx(_score(params, xs[i]), rel=1e-12)


class TestScoreBackward:
    def test_zero_upstream_zero_grad(self):
        rng = np.random.default_rng(9)
        params = _random_params(rng)
        g = _backward_one(params, _random_x(rng), 0.0)
        assert np.all(g.w1 == 0) and np.all(g.b1 == 0) and np.all(g.w2 == 0)
        assert g.b2 == 0.0

    def test_b2_grad_equals_upstream(self):
        rng = np.random.default_rng(10)
        params = _random_params(rng)
        g = _backward_one(params, _random_x(rng), 2.5)
        assert g.b2 == pytest.approx(2.5, rel=1e-15)

    def test_finite_differences(self):
        """Every component of the reference gradient vs central differences, step 1e-4."""
        rng = np.random.default_rng(11)
        step = 1e-4

        def check(analytic, est):
            # floor absorbs pure finite-difference noise at near-zero gradients
            denom = max(abs(est), abs(analytic), 1e-6)
            assert abs(analytic - est) / denom < 1e-5

        for case in range(10):
            params = _random_params(rng)
            x = _random_x(rng)
            upstream = float(rng.normal())
            g = _score_backward(params, x, upstream)

            for j in range(params.hidden):
                for k in range(params.feature_dim):
                    orig = params.w1[j, k]
                    params.w1[j, k] = orig + step
                    hi = _score(params, x)
                    params.w1[j, k] = orig - step
                    lo = _score(params, x)
                    params.w1[j, k] = orig
                    check(g.w1[j, k], upstream * (hi - lo) / (2 * step))
            for j in range(params.hidden):
                for arr, garr in ((params.b1, g.b1), (params.w2, g.w2)):
                    orig = arr[j]
                    arr[j] = orig + step
                    hi = _score(params, x)
                    arr[j] = orig - step
                    lo = _score(params, x)
                    arr[j] = orig
                    check(garr[j], upstream * (hi - lo) / (2 * step))

    def test_batch_backward_sums_rows(self):
        rng = np.random.default_rng(12)
        params = _random_params(rng)
        xs = np.stack([_random_x(rng) for _ in range(5)])
        upstream = rng.normal(size=5)
        _, acts = score_batch(params, xs)
        batched = backward_batch(params, xs, acts, upstream)
        total = sum(_score_backward(params, xs[i], float(upstream[i])).flat for i in range(5))
        total = ScorerParams.from_flat(total, *params.w1.shape)
        np.testing.assert_allclose(batched.w1, total.w1, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(batched.b1, total.b1, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(batched.w2, total.w2, rtol=1e-12, atol=1e-14)
        assert batched.b2 == pytest.approx(total.b2, rel=1e-12)


class TestParamsLayout:
    def test_one_flat_vector_in_checkpoint_order(self):
        """Weights, checkpoint body, copies and gradients share one flat layout."""
        rng = np.random.default_rng(13)
        p = _random_params(rng, buckets=8, hidden=3)
        m, f = p.w1.shape
        np.testing.assert_array_equal(
            p.flat, np.concatenate([p.w1.ravel(), p.b1, p.w2, [p.b2]])
        )
        p.w1[1, 2] = 5.0
        p.w1.ravel()[0] = 4.0  # ravel of the w1 view is a view too
        p.b1[0] = 6.0
        p.w2[2] = 7.0
        p.b2 = 8.0
        p.b2 += 1.0
        assert p.flat[f + 2] == 5.0 and p.flat[0] == 4.0
        assert p.flat[m * f] == 6.0
        assert p.flat[m * f + m + 2] == 7.0
        assert p.flat[-1] == 9.0 and p.b2 == 9.0

        assert save_params(p)[scorer._HEADER.size :] == p.flat.astype("<f8").tobytes()

        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        np.testing.assert_array_equal(p.flat, q.flat)

        xs = np.stack([_random_x(rng) for _ in range(4)])
        _, acts = score_batch(p, xs)
        g = backward_batch(p, xs, acts, rng.normal(size=4))
        assert g.flat.shape == p.flat.shape
        assert not np.shares_memory(g.flat, p.flat)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(ScorerConfig(32, 4, seed=5))
        b = init_params(ScorerConfig(32, 4, seed=5))
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_different_seeds_differ(self):
        a = init_params(ScorerConfig(32, 4, seed=5))
        b = init_params(ScorerConfig(32, 4, seed=6))
        assert not np.array_equal(a.w1, b.w1)

    def test_glorot_bounds_and_zero_biases(self):
        cfg = ScorerConfig(32, 4, seed=5)
        p = init_params(cfg)
        f = cfg.feature_dim
        bound1 = math.sqrt(6.0 / (f + cfg.hidden))
        bound2 = math.sqrt(6.0 / (cfg.hidden + 1))
        assert np.all(np.abs(p.w1) <= bound1)
        assert np.all(np.abs(p.w2) <= bound2)
        assert np.all(p.b1 == 0.0)
        assert p.b2 == 0.0

    def test_default_checkpoint_bytes_pinned(self):
        blob = save_params(init_params(ScorerConfig()))
        assert hashlib.sha256(blob).hexdigest() == (
            "62030ec5e9be3b8c7fb03592a247bb03c51ad38290739f33c8d68cb437d89d81"
        )

    def test_config_validated(self):
        with pytest.raises(ValueError):
            ScorerConfig(0, 4)
        with pytest.raises(ValueError):
            ScorerConfig(4, 0)


def _empty_checkpoint(buckets: int, hidden: int) -> bytes:
    """A checkpoint of zeros whose header has this shape, which ScorerConfig
    would reject when either is 0."""
    size = hidden * (buckets + N_DENSE) + 2 * hidden + 1
    return struct.pack("<4sHII", b"RFCP", 1, buckets, hidden) + bytes(8 * size)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        p = init_params(ScorerConfig(16, 3, seed=1))
        q = load_params(save_params(p))
        assert np.array_equal(p.w1, q.w1)
        assert np.array_equal(p.b1, q.b1)
        assert np.array_equal(p.w2, q.w2)
        assert p.b2 == q.b2

    def test_truncated_stream_rejected(self):
        blob = save_params(init_params(ScorerConfig(16, 3, seed=1)))
        with pytest.raises(DataError):
            load_params(blob[:-8])

    def test_wrong_magic_rejected(self):
        blob = save_params(init_params(ScorerConfig(16, 3, seed=1)))
        with pytest.raises(DataError):
            load_params(b"XXXX" + blob[4:])

    def test_wrong_version_rejected(self):
        blob = bytearray(save_params(init_params(ScorerConfig(16, 3, seed=1))))
        blob[4] = 99
        with pytest.raises(DataError):
            load_params(bytes(blob))

    @pytest.mark.parametrize("buckets, hidden", [(0, 3), (16, 0)])
    def test_empty_shape_rejected(self, buckets, hidden):
        with pytest.raises(DataError, match=">= 1"):
            load_params(_empty_checkpoint(buckets, hidden))

    def test_buckets_property(self):
        p = init_params(ScorerConfig(16, 3, seed=1))
        assert p.buckets == 16
        assert p.feature_dim == 16 + N_DENSE


class TestScoringContext:
    def test_features_match_direct_extraction(self, tiny_corpus, tiny_index):
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        q = Query("q", "cat dog")
        via_ctx = ctx.features(q, "d2")
        direct = _full_width(tiny_corpus, tiny_index, Bm25Params(), q, ["d2"], 16)[0]
        np.testing.assert_array_equal(via_ctx, direct)
        block, cols = ctx.feature_matrix(q, ["d2"])
        np.testing.assert_array_equal(cols, _expected_cols(["cat", "dog"], 16))
        np.testing.assert_array_equal(
            block, extract_features(tiny_index, Bm25Params(), q, ["d2"], 16)
        )

    def test_memo_extracts_each_pair_once(self, tiny_corpus, tiny_index, monkeypatch):
        extracted = []
        real = scorer.extract_features

        def counting(index, params, query, doc_ids, *rest):
            extracted.append(list(doc_ids))
            return real(index, params, query, doc_ids, *rest)

        monkeypatch.setattr(scorer, "extract_features", counting)
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        q = Query("q", "cat")
        first = ctx.features(q, "d1")
        assert extracted == [["d1"]]
        np.testing.assert_array_equal(ctx.features(q, "d1"), first)
        assert extracted == [["d1"]]
        ctx.feature_matrix(q, ["d2", "d1", "d2"])
        assert extracted == [["d1"], ["d2"]]
        ctx.feature_matrix(q, ["d1", "d2"])
        assert extracted == [["d1"], ["d2"]]

    def test_warm_extracts_missing_docs_in_one_block(self, tiny_corpus, tiny_index,
                                                     monkeypatch):
        extracted = []
        real = scorer.extract_features

        def counting(index, params, query, doc_ids, *rest):
            extracted.append(list(doc_ids))
            return real(index, params, query, doc_ids, *rest)

        monkeypatch.setattr(scorer, "extract_features", counting)
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        q = Query("q", "cat")
        ctx.feature_matrix(q, ["d1"])
        ctx.feature_matrix(q, ["d3", "d1", "d2", "d3"])
        assert extracted == [["d1"], ["d3", "d2"]]
        ctx.feature_matrix(q, ["d2"])
        ctx.feature_matrix(q, ["d2", "d3", "d1"])
        assert extracted == [["d1"], ["d3", "d2"]]

    def test_each_query_term_hashed_once(self, tiny_corpus, tiny_index, monkeypatch):
        hashed = []
        real = scorer.fnv1a64

        def counting(data):
            hashed.append(data)
            return real(data)

        monkeypatch.setattr(scorer, "fnv1a64", counting)
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        q = Query("q", "cat dog cat zebra")
        block, cols = ctx.feature_matrix(q, ["d1", "d2"])
        assert sorted(hashed) == [b"cat", b"dog", b"zebra"]
        ctx.feature_matrix(q, ["d3", "d1"])
        assert len(hashed) == 3
        # the shared bucket list gives the same block as a fresh extraction
        np.testing.assert_array_equal(
            block, extract_features(tiny_index, Bm25Params(), q, ["d1", "d2"], 16)
        )
        np.testing.assert_array_equal(cols, _expected_cols(["cat", "dog", "zebra"], 16))

    def test_returned_arrays_are_independent(self, tiny_corpus, tiny_index):
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        q = Query("q", "cat")
        x = ctx.features(q, "d1")
        want = x.copy()
        x[:] = -1.0
        np.testing.assert_array_equal(ctx.features(q, "d1"), want)
        mat, cols = ctx.feature_matrix(q, ["d1", "d1"])
        mat[0] = 7.0
        np.testing.assert_array_equal(ctx.feature_matrix(q, ["d1"])[0][0], want[cols])
        with pytest.raises(ValueError):
            cols[0] = 3

    def test_missing_doc_raises(self, tiny_corpus, tiny_index):
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        with pytest.raises(DataError, match="d99"):
            ctx.features(Query("q", "cat"), "d99")

    def test_feature_matrix_rows(self, tiny_corpus, tiny_index):
        ctx = ScoringContext(tiny_corpus, tiny_index, Bm25Params(), buckets=16)
        q = Query("q", "cat")
        mat, cols = ctx.feature_matrix(q, ["d1", "d2"])
        np.testing.assert_array_equal(mat[0], ctx.features(q, "d1")[cols])
        np.testing.assert_array_equal(mat[1], ctx.features(q, "d2")[cols])


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """Equal to rtol 1e-12 of the largest value: the same terms summed in
    another order, where values near 0 are cancellations of larger terms."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestNarrowBlock:
    """A query's feature block over its columns scores and trains as the
    full-width matrix it stands for."""

    @pytest.mark.parametrize("buckets", [1024, 8, 1])
    def test_block_matches_full_width(self, small_world, buckets):
        w = small_world
        ctx = ScoringContext(w.corpus, w.index, Bm25Params(), buckets)
        params = init_params(ScorerConfig(buckets, hidden=8, seed=buckets))
        rng = np.random.default_rng(buckets)
        for q in w.queries:
            block, cols = ctx.feature_matrix(q, w.rankings[q.id].doc_ids())
            full = np.zeros((len(block), params.feature_dim))
            full[:, cols] = block
            scores, acts = score_batch(params, block, cols)
            full_scores, full_acts = score_batch(params, full)
            _assert_close(scores, full_scores)

            upstream = rng.normal(size=len(block))
            grads = backward_batch(params, block, acts, upstream, cols)
            full_grads = backward_batch(params, full, full_acts, upstream)
            # the block gradient has the parameters' shape, and its W1 is 0
            # outside cols, as is the full-width gradient's
            assert grads.flat.shape == params.flat.shape
            _assert_close(grads.flat, full_grads.flat)
            outside = np.ones(params.feature_dim, dtype=bool)
            outside[cols] = False
            assert not grads.w1[:, outside].any()
            assert not full_grads.w1[:, outside].any()
