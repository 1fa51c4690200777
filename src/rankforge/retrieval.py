"""Tokenization, inverted index, and BM25 first-stage retrieval.

BM25 uses the Lucene-style non-negative idf
``ln(1 + (N - df + 0.5) / (df + 0.5))`` with defaults k1=0.9, b=0.4. No
stemming or stopword removal; ties broken by ascending doc id so retrieval
is deterministic everywhere.

The index (`InvertedIndex`, built once by `build_index`) is a handful of
flat arrays: documents are numbered in ascending id order, postings are
CSR arrays of doc numbers and term frequencies, and the corpus is kept as
one stream of term ids. Retrieval and feature extraction run numpy
operations over postings blocks, not per-document Python, and never
tokenize a document after indexing.

The query-independent half of BM25 lives in the index: each term's idf, and
each posting's `term_weight` once per `Bm25Params` (`InvertedIndex.impacts`).
Every BM25 score is a sum of impacts over the query tokens, in query order.
`InvertedIndex.match` reads, for a block of documents, which query terms
each holds and their impacts, with one search of each term's postings. The
index also holds each document's `math.log1p(length)` for the scorer's
length feature.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Ranking, Query

_TOKEN = re.compile(r"[^\W_]+")  # maximal runs of alphanumeric code points


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs, in order of appearance."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if not (self.k1 > 0 and math.isfinite(self.k1)):
            raise ValueError(f"k1 must be finite and > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


def _idf(size: int, df: int) -> float:
    return math.log(1.0 + (size - df + 0.5) / (df + 0.5))


def term_weight(idf, tf, norm, k1: float):
    """BM25 weight of one query-token occurrence, idf*tf*(k1+1)/(tf+norm) in
    that order; elementwise over float64 arrays idf and norm, which it
    overwrites (the result is idf) rather than make whole-array temporaries."""
    idf *= tf
    idf *= k1 + 1.0
    norm += tf
    idf /= norm
    return idf


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    """Immutable array-backed index with the stats BM25 needs.

    doc_ids         the documents in ascending id order; a document's
                    position here is its number, so number order is id order
    numbers         doc id -> number
    lengths         token count per document (int32)
    terms           term -> term id, ids in order of first appearance
    indptr, docs,   CSR postings: term t occurs in the documents
    tfs             docs[indptr[t]:indptr[t+1]] (ascending, int32) with
                    frequencies tfs[indptr[t]:indptr[t+1]] (int32)
    tokens, starts  the corpus as one int32 stream of term ids: document i
                    is tokens[starts[i]:starts[i+1]]
    idfs            float64 idf per term id
    log1p_lengths   float64 math.log1p of each length (libm's, bit for
                    bit, which np.log1p need not be)
    _impacts        Bm25Params -> impacts(params), filled on first use
    """

    doc_ids: tuple[str, ...]
    numbers: Mapping[str, int]
    lengths: np.ndarray
    terms: Mapping[str, int]
    indptr: np.ndarray
    docs: np.ndarray
    tfs: np.ndarray
    tokens: np.ndarray
    starts: np.ndarray
    idfs: np.ndarray
    log1p_lengths: np.ndarray
    avg_doc_length: float
    _impacts: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        """Lucene-style smoothed idf from `idfs`; an unseen term has df 0."""
        t = self.terms.get(term)
        return _idf(self.size, 0) if t is None else float(self.idfs[t])

    def doc_numbers(self, doc_ids: Iterable[str]) -> np.ndarray:
        """int32 numbers of `doc_ids`; ValueError names one not in the index."""
        try:
            return np.fromiter(map(self.numbers.__getitem__, doc_ids), np.int32)
        except KeyError as missing:
            raise ValueError(f"doc id {missing.args[0]!r} not in index") from None

    def impacts(self, params: Bm25Params) -> np.ndarray:
        """Read-only `term_weight` of every posting under `params`, parallel
        to docs and tfs, with its document's length norm k1*(1-b+b*len/avglen)
        (tf >= 1, so never 0/0); built on first use per params, then held."""
        if params not in self._impacts:
            avg = self.avg_doc_length or 1.0  # 0 only when there are no postings
            norm = params.k1 * (1.0 - params.b + params.b * self.lengths / avg)
            w = np.repeat(self.idfs, np.diff(self.indptr))  # each posting's idf
            w = term_weight(w, self.tfs, norm[self.docs], params.k1)
            w.flags.writeable = False
            self._impacts[params] = w
        return self._impacts[params]

    def match(
        self, params: Bm25Params, query_tokens: Sequence[str], nums: np.ndarray
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(terms, hit, bm25) for the documents numbered `nums`: the distinct
        query tokens, sorted so no order depends on the hash seed; hit[i, j],
        whether terms[i] occurs in nums[j] (one search of its postings); and
        each document's BM25, which each query token in order adds its impact to."""
        terms = sorted(set(query_tokens))
        hit = np.zeros((len(terms), len(nums)), dtype=bool)
        weight = np.empty((len(terms), len(nums)))
        impacts = self.impacts(params)
        for row, t in enumerate(map(self.terms.get, terms)):
            if t is not None:
                lo, hi = self.indptr[t : t + 2].tolist()
                # the posting at or after each document, clamped to the last
                at = self.docs[lo:hi].searchsorted(nums)
                np.minimum(at, hi - lo - 1, out=at)
                at += lo
                np.equal(self.docs[at], nums, out=hit[row])
                weight[row] = impacts[at]
        bm25 = np.zeros(len(nums))
        for j in map(terms.index, query_tokens):
            np.add(bm25, weight[j], out=bm25, where=hit[j])
        return terms, hit, bm25


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo[0]..hi[0]-1, lo[1]..hi[1]-1, ... as one array (each hi >= lo)."""
    counts = hi - lo
    return np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def build_index(corpus: Mapping[str, str]) -> InvertedIndex:
    """Index a {doc_id: text} corpus. Deterministic: documents are numbered
    in ascending id order, whatever the corpus order."""
    doc_ids = tuple(sorted(corpus))
    terms: dict[str, int] = {}
    stream = array("i")
    lengths = np.zeros(len(doc_ids), dtype=np.int32)
    for i, doc_id in enumerate(doc_ids):
        tokens = tokenize(corpus[doc_id])
        stream.extend([terms.setdefault(t, len(terms)) for t in tokens])
        lengths[i] = len(tokens)
    tokens = np.frombuffer(stream, dtype=np.intc).astype(np.int32, copy=False)
    starts = np.zeros(len(doc_ids) + 1, dtype=np.intp)
    np.cumsum(lengths, out=starts[1:])

    # group token positions by term; the stable sort keeps each term's
    # positions in stream order, which is doc-number order (intermediates
    # are dropped as soon as they are used: they set the build's peak memory)
    order = np.argsort(tokens, kind="stable")
    doc_of = np.repeat(np.arange(len(doc_ids), dtype=np.int32), lengths)[order]
    term_of = tokens[order]
    del order
    first = np.ones(len(tokens), dtype=bool)
    first[1:] = (term_of[1:] != term_of[:-1]) | (doc_of[1:] != doc_of[:-1])
    first = np.flatnonzero(first)
    docs, term_of = doc_of[first], term_of[first]
    del doc_of
    tfs = np.diff(first, append=len(tokens)).astype(np.int32)
    indptr = np.zeros(len(terms) + 1, dtype=np.intp)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=indptr[1:])

    idfs = np.array([_idf(len(doc_ids), df) for df in np.diff(indptr).tolist()], dtype=np.float64)
    log1p_lengths = np.array([math.log1p(n) for n in lengths.tolist()], dtype=np.float64)
    avg = int(starts[-1]) / len(doc_ids) if doc_ids else 0.0
    return InvertedIndex(
        doc_ids, {d: i for i, d in enumerate(doc_ids)}, lengths, terms,
        indptr, docs, tfs, tokens, starts, idfs, log1p_lengths, avg,
    )


def bm25_score(
    index: InvertedIndex,
    params: Bm25Params,
    query_tokens: Iterable[str],
    doc_id: str,
) -> float:
    """BM25 score of one document against query tokens.

    Each query token occurrence contributes its term's impact; repeating
    a term in the query therefore scales its contribution.
    """
    return float(index.match(params, list(query_tokens), index.doc_numbers([doc_id]))[2][0])


def retrieve_topk(
    index: InvertedIndex, params: Bm25Params, query: Query, k: int
) -> Ranking:
    """Top-k BM25 retrieval; candidates are docs sharing >= 1 query term.

    Ties broken by ascending doc id. Depth is min(k, candidate count).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.zeros(index.size)
    impacts = index.impacts(params)
    for t in map(index.terms.get, tokenize(query.text)):
        if t is not None:
            lo, hi = index.indptr[t], index.indptr[t + 1]
            scores[index.docs[lo:hi]] += impacts[lo:hi]
    # every impact is > 0 (idf > 0, tf >= 1, k1 > 0), so the candidates are the
    # positive scores; the stable sort keeps ties in number order, which is id order
    cand = np.flatnonzero(scores > 0.0)
    top = cand[np.argsort(-scores[cand], kind="stable")[:k]]
    ids = tuple(map(index.doc_ids.__getitem__, top.tolist()))
    return Ranking._sorted(query.id, ids, scores[top])
