"""Point-wise differentiable relevance scorer.

A query-document pair is encoded as F = buckets + 6 interaction features:

  [0] bm25 / (1 + bm25)
  [1] |unique(q) & unique(d)| / max(1, |unique(q)|)
  [2] sum of idf over overlapping terms / max(eps, sum of idf over query terms)
  [3] ln(1 + doc token count) / 10
  [4] ln(1 + query token count) / 10
  [5] fraction of query bigrams appearing contiguously in the doc
  [6:] hashed overlap block: bucket fnv1a64(t) % buckets accumulates idf(t)
       for each overlapping term t, L2-normalized when nonzero

`extract_features` computes these for one query and a list of documents at
once. The query side (tokens, idf, buckets, bigrams) is done once per call,
and the document side is read from the inverted index's arrays with numpy
operations over the whole block: term frequencies from the query terms'
postings, lengths from `lengths`, and [5] from adjacent term ids in the
token stream. The index must be built from the same corpus; no document
text is re-tokenized. A row of a query can be nonzero only in the query's
columns: the N_DENSE features and its terms' distinct buckets, since the
hashed block is written only at those buckets. So the extractor returns
the narrow block over those columns, `ScoringContext` memoizes it per query
and returns held rows as they are, and the scorer multiplies a block by
the matching columns of W1; a full-width matrix is the case where the
columns are all of them.

The scorer itself is a one-hidden-layer MLP, s = w2 . tanh(W1 x + b1) + b2,
small enough that its backward pass is written out exactly and checked
against finite differences. Its parameters live in one float64 vector in
checkpoint order (W1 row-major, b1, w2, b2) with the arrays as views into
it; gradients and AdamW moments share that layout, so the optimizer and
the checkpoint format each handle a single vector.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Corpus, Query
from .errors import DataError
from .retrieval import Bm25Params, InvertedIndex, bm25_block, concat_ranges, tokenize
from .rng import SplitMix64

_EPS = 1e-12

N_DENSE = 6  # dense interaction features ahead of the hashed block

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash (fixed so features are bit-exact across platforms)."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class ScorerConfig:
    buckets: int = 1024
    hidden: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.buckets < 1 or self.hidden < 1:
            raise ValueError("buckets and hidden must be >= 1")

    @property
    def feature_dim(self) -> int:
        return self.buckets + N_DENSE


class ScorerParams:
    """Trainable parameters, held in one float64 vector `flat`.

    `flat` is laid out in checkpoint order: w1 (hidden, F) row-major, then
    b1 (hidden,), w2 (hidden,) and the scalar b2. `w1`, `b1` and `w2` are
    views into it, so modify them in place; `b2` reads and writes
    `flat[-1]`. Gradients and AdamW moments use this same type.
    """

    __slots__ = ("flat", "w1", "b1", "w2")

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: float):
        w1 = np.asarray(w1, dtype=np.float64)
        if w1.ndim != 2 or np.shape(b1) != (w1.shape[0],) or np.shape(w2) != np.shape(b1):
            raise ValueError("w1 must be (hidden, F) and b1, w2 must be (hidden,)")
        flat = np.concatenate([w1.ravel(), b1, w2, [b2]], dtype=np.float64)
        self._view(flat, *w1.shape)

    @classmethod
    def from_flat(cls, flat: np.ndarray, hidden: int, feature_dim: int) -> "ScorerParams":
        """Parameters over `flat` itself (not copied)."""
        params = cls.__new__(cls)
        params._view(flat, hidden, feature_dim)
        return params

    def _view(self, flat: np.ndarray, m: int, f: int) -> None:
        if flat.dtype != np.float64 or flat.shape != (m * f + 2 * m + 1,):
            raise ValueError(f"flat must be float64 of size {m * f + 2 * m + 1}")
        self.flat = flat
        self.w1 = flat[: m * f].reshape(m, f)
        self.b1 = flat[m * f : m * f + m]
        self.w2 = flat[m * f + m : -1]

    @property
    def b2(self) -> float:
        return float(self.flat[-1])

    @b2.setter
    def b2(self, value: float) -> None:
        self.flat[-1] = value

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def buckets(self) -> int:
        return self.w1.shape[1] - N_DENSE

    def copy(self) -> "ScorerParams":
        return ScorerParams.from_flat(self.flat.copy(), *self.w1.shape)


def extract_features(
    index: InvertedIndex,
    params: Bm25Params,
    query: Query,
    doc_ids: Sequence[str],
    buckets: int,
    term_cols: Sequence[int] | None = None,
) -> np.ndarray:
    """The (len(doc_ids), len(cols)) feature block of the documents, one row
    per document in order, over the query's columns cols (`_columns`; layout
    in module docstring); every other feature is 0.

    `term_cols`, when given, is `term_columns` of the query's distinct terms
    in sorted order, as a caller that already hashed them holds it.
    `index` must be built from the corpus the documents come from: every
    document-side quantity is read from its arrays, and no document text
    is tokenized. A document missing from the index raises ValueError.
    """
    nums = index.doc_numbers(doc_ids)
    q_tokens = tokenize(query.text)
    # sorted terms: accumulation order must not depend on the process hash
    # seed or the result is not bit-reproducible across runs
    q_terms = sorted(set(q_tokens))
    tf = index.tf_matrix(q_terms, nums)
    hit = tf > 0  # (query terms, docs)
    q_idf = [index.idf(t) for t in q_terms]
    if term_cols is None:
        term_cols = term_columns(q_terms, buckets)
    cols = _columns(term_cols)
    # each term's column within the block
    slots = np.searchsorted(cols, term_cols).tolist()

    x = np.zeros((len(nums), len(cols)), dtype=np.float64)
    bm25 = bm25_block(index, params, q_tokens, q_terms, tf, nums)
    x[:, 0] = bm25 / (1.0 + bm25)
    x[:, 1] = hit.sum(axis=0) / max(1, len(q_terms))
    idf_overlap = np.zeros(len(nums))
    for j, idf in enumerate(q_idf):
        idf_overlap[hit[j]] += idf
        x[hit[j], slots[j]] += idf
    x[:, 2] = idf_overlap / max(_EPS, sum(q_idf))
    x[:, 3] = [math.log1p(n) / 10.0 for n in index.lengths[nums].tolist()]
    x[:, 4] = math.log1p(len(q_tokens)) / 10.0
    x[:, 5] = _bigram_fraction(index, q_tokens, nums)
    # every idf is > 0, so exactly the rows with a hit have a nonzero norm
    hashed = x[:, N_DENSE:]
    norm = np.sqrt(np.einsum("ij,ij->i", hashed, hashed))[:, None]
    np.divide(hashed, norm, out=hashed, where=norm > 0.0)
    return x


def term_columns(terms: Iterable[str], buckets: int) -> list[int]:
    """The feature column of each term's hashed bucket, in order."""
    return [N_DENSE + fnv1a64(t.encode("utf-8")) % buckets for t in terms]


def _columns(term_cols: Iterable[int]) -> np.ndarray:
    """A query's columns, the only ones its rows can fill: the N_DENSE dense
    columns, then its terms' distinct bucket columns (these) ascending."""
    return np.array([*range(N_DENSE), *sorted(set(term_cols))], dtype=np.intp)


def _bigram_fraction(index: InvertedIndex, q_tokens: list[str], nums: np.ndarray) -> np.ndarray:
    """Per document, the share of the query's bigrams (repeats counted) that
    occur as adjacent tokens in it, read from the index's token stream."""
    q_bigrams = list(zip(q_tokens, q_tokens[1:]))
    # a bigram with a term missing from the index occurs nowhere
    multiplicity = Counter(
        (index.terms[a], index.terms[b])
        for a, b in q_bigrams if a in index.terms and b in index.terms
    )
    count = np.zeros(len(nums), dtype=np.intp)
    if multiplicity:
        # each stream position whose successor is in the same document, so
        # no pair spans a document boundary
        lo = index.starts[nums]
        spans = np.maximum(index.starts[nums + 1] - lo - 1, 0)
        pos = concat_ranges(lo, lo + spans)
        col = np.repeat(np.arange(len(nums)), spans)
        left, right = index.tokens[pos], index.tokens[pos + 1]
        for (a, b), times in multiplicity.items():
            found = np.zeros(len(nums), dtype=bool)
            found[col[(left == a) & (right == b)]] = True
            count += times * found
    return count / max(1, len(q_bigrams))


def score_batch(
    params: ScorerParams, x_mat: np.ndarray, cols: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Scores for an (n, len(cols)) feature block over the feature columns
    `cols`, every other feature 0 (by default a full-width (n, F) matrix);
    also returns hidden activations for backward."""
    a = np.tanh(x_mat @ params.w1[:, cols].T + params.b1)
    return a @ params.w2 + params.b2, a


def backward_batch(
    params: ScorerParams,
    x_mat: np.ndarray,
    activations: np.ndarray,
    upstream: np.ndarray,
    cols: np.ndarray | slice = slice(None),
) -> ScorerParams:
    """Exact gradient of sum_i upstream_i * s_i w.r.t. every parameter, for
    the block and columns `score_batch` was given, in the parameters' own
    shape: its W1 is 0 outside `cols`."""
    dz = (upstream[:, None] * params.w2[None, :]) * (1.0 - activations * activations)
    grads = ScorerParams.from_flat(np.zeros_like(params.flat), *params.w1.shape)
    grads.w1[:, cols] = dz.T @ x_mat
    np.sum(dz, axis=0, out=grads.b1)
    np.matmul(activations.T, upstream, out=grads.w2)
    grads.b2 = upstream.sum()
    return grads


def init_params(config: ScorerConfig) -> ScorerParams:
    """Glorot-uniform init, zero biases, deterministic per seed.

    A single splitmix64 stream fills W1 row-major then w2, so the layout is
    reproducible bit-for-bit.
    """
    f = config.feature_dim
    m = config.hidden
    u = 2.0 * SplitMix64(config.seed).uniforms(m * f + m) - 1.0
    w1 = (u[: m * f] * math.sqrt(6.0 / (f + m))).reshape(m, f)
    w2 = u[m * f :] * math.sqrt(6.0 / (m + 1))
    return ScorerParams(w1, np.zeros(m), w2, 0.0)


_MAGIC = b"RFCP"
_VERSION = 1
_HEADER = struct.Struct("<4sHII")  # magic, version, buckets, hidden


def save_params(params: ScorerParams) -> bytes:
    """Serialize to the versioned little-endian checkpoint format."""
    header = _HEADER.pack(_MAGIC, _VERSION, params.buckets, params.hidden)
    return header + params.flat.astype("<f8").tobytes()


def load_params(blob: bytes) -> ScorerParams:
    """Inverse of save_params; rejects bad magic, version, shape, or truncation."""
    if len(blob) < _HEADER.size:
        raise DataError("checkpoint truncated: header incomplete")
    magic, version, buckets, m = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise DataError(f"not a scorer checkpoint (magic {magic!r})")
    if version != _VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    if buckets < 1 or m < 1:
        raise DataError(f"checkpoint buckets and hidden must be >= 1, got {buckets} and {m}")
    f = buckets + N_DENSE
    expected = _HEADER.size + 8 * (m * f + m + m + 1)
    if len(blob) != expected:
        raise DataError(f"checkpoint length {len(blob)} != expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    return ScorerParams.from_flat(flat, m, f)


class _QueryFeatures:
    """One query's extracted rows: a doc -> row map and the rows' values in
    `cols`, the query's columns (`_columns`)."""

    __slots__ = ("rows", "term_cols", "cols", "vals")

    def __init__(self, query: Query, buckets: int):
        self.rows: dict[str, int] = {}
        # hashed once here; every extraction for the query reuses them
        self.term_cols = term_columns(sorted(set(tokenize(query.text))), buckets)
        self.cols = _columns(self.term_cols)
        self.cols.flags.writeable = False
        self.vals = np.empty((0, len(self.cols)))

    def add(self, doc_ids: list[str], x: np.ndarray) -> None:
        """Append the rows of x, the feature block of doc_ids not yet held."""
        base = len(self.rows)
        self.rows.update((d, base + i) for i, d in enumerate(doc_ids))
        self.vals = np.concatenate([self.vals, x])


class ScoringContext:
    """Bundles corpus, index, and BM25 params; memoizes feature extraction.

    Feature vectors are pure functions of (query, doc), so the memo never
    invalidates. It is keyed by query id and holds each query's rows as
    one block over the query's own columns (the dense features and its
    terms' distinct buckets, so at most N_DENSE + distinct query terms
    wide); every lookup returns a new block, so callers may modify it.
    `index` must be built from `corpus`. Shared read-only across systems
    being compared.
    """

    def __init__(self, corpus: Corpus, index: InvertedIndex, bm25: Bm25Params, buckets: int):
        self.corpus = corpus
        self.index = index
        self.bm25 = bm25
        self.buckets = buckets
        self._memo: dict[str, _QueryFeatures] = {}

    def features(self, query: Query, doc_id: str) -> np.ndarray:
        """One document's full-width (F,) feature row."""
        x, cols = self.feature_matrix(query, [doc_id])
        row = np.zeros(self.buckets + N_DENSE)
        row[cols] = x[0]
        return row

    def feature_matrix(
        self, query: Query, doc_ids: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (len(doc_ids), len(cols)) feature block and the query's
        read-only columns cols (`_columns`); the docs not yet held are
        extracted in one block. The memo's one entry point."""
        held = self._memo.get(query.id)
        if held is None:
            held = self._memo[query.id] = _QueryFeatures(query, self.buckets)
        missing = [d for d in dict.fromkeys(doc_ids) if d not in held.rows]
        if missing:
            for d in missing:
                if d not in self.corpus:
                    raise DataError(f"query {query.id}: document {d!r} has no text in corpus")
            held.add(missing, extract_features(
                self.index, self.bm25, query, missing, self.buckets, held.term_cols
            ))
        return held.vals[[held.rows[d] for d in doc_ids]], held.cols
