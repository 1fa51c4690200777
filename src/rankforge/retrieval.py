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

Every BM25 score is a sum of `term_weight` over the query tokens, in query
order, with the length norm from `InvertedIndex.length_norm`.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Corpus, Ranking, Query

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
    """BM25 weight of one query-token occurrence, idf*tf*(k1+1)/(tf+norm);
    elementwise when tf and norm are arrays."""
    return idf * tf * (k1 + 1.0) / (tf + norm)


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
    avg_doc_length: float

    @property
    def size(self) -> int:
        return len(self.doc_ids)

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc numbers, term frequencies) of `term`, ascending by number;
        both empty for a term not in the index."""
        t = self.terms.get(term)
        if t is None:
            return self.docs[:0], self.tfs[:0]
        lo, hi = self.indptr[t], self.indptr[t + 1]
        return self.docs[lo:hi], self.tfs[lo:hi]

    def df(self, term: str) -> int:
        return len(self.postings(term)[0])

    def idf(self, term: str) -> float:
        """Lucene-style smoothed idf; 0 for unseen terms in an empty index."""
        return _idf(self.size, self.df(term))

    def doc_numbers(self, doc_ids: Iterable[str]) -> np.ndarray:
        """int32 numbers of `doc_ids`; ValueError names one not in the index."""
        try:
            return np.array([self.numbers[d] for d in doc_ids], dtype=np.int32)
        except KeyError as missing:
            raise ValueError(f"doc id {missing.args[0]!r} not in index") from None

    def tf_matrix(self, terms: Sequence[str], nums: np.ndarray) -> np.ndarray:
        """(len(terms), len(nums)) int32 frequency of each of the distinct
        `terms` in each of the documents numbered `nums`."""
        out = np.zeros((len(terms), len(nums)), dtype=np.int32)
        known = [(j, self.terms[t]) for j, t in enumerate(terms) if t in self.terms]
        if not known:
            return out
        rows, ids = (np.array(a) for a in zip(*known))
        lo, hi = self.indptr[ids], self.indptr[ids + 1]
        pos = concat_ranges(lo, hi)
        # (row, doc) keys of the terms' postings: ascending, as rows ascend
        keys = np.repeat(rows, hi - lo) * self.size + self.docs[pos]
        wanted = (rows[:, None] * self.size + nums).ravel()
        k = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        found = keys[k] == wanted
        out[rows] = np.where(found, self.tfs[pos[k]], 0).reshape(len(rows), len(nums))
        return out

    def length_norm(self, params: Bm25Params, lengths: np.ndarray) -> np.ndarray:
        """k1*(1 - b + b*len/avglen) for each of the document `lengths`."""
        if self.avg_doc_length <= 0:
            return np.full(len(lengths), params.k1)
        return params.k1 * (1.0 - params.b + params.b * lengths / self.avg_doc_length)


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo[0]..hi[0]-1, lo[1]..hi[1]-1, ... as one array (each hi >= lo)."""
    counts = hi - lo
    return np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def build_index(corpus: Corpus) -> InvertedIndex:
    """Index a corpus. Deterministic: documents are numbered in ascending id
    order, whatever the corpus order."""
    doc_ids = tuple(sorted(corpus.documents))
    terms: dict[str, int] = {}
    stream = array("i")
    lengths = np.zeros(len(doc_ids), dtype=np.int32)
    for i, doc_id in enumerate(doc_ids):
        tokens = tokenize(corpus.get(doc_id).text)
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

    avg = int(starts[-1]) / len(doc_ids) if doc_ids else 0.0
    return InvertedIndex(
        doc_ids, {d: i for i, d in enumerate(doc_ids)}, lengths, terms,
        indptr, docs, tfs, tokens, starts, avg,
    )


def bm25_block(
    index: InvertedIndex,
    params: Bm25Params,
    query_tokens: Sequence[str],
    terms: Sequence[str],
    tf: np.ndarray,
    nums: np.ndarray,
) -> np.ndarray:
    """BM25 scores of the documents numbered `nums`, given their term
    frequencies `tf` (one row per entry of `terms`, which holds every query
    token): each query token in order adds its term weight where it occurs.
    """
    idf = np.array([index.idf(t) for t in terms])
    norm = index.length_norm(params, index.lengths[nums])
    # where tf is 0 the weight is unused, and 0/0 when b = 1 and a document
    # is empty
    with np.errstate(invalid="ignore"):
        weight = term_weight(idf[:, None], tf, norm, params.k1)
    row = {t: j for j, t in enumerate(terms)}
    score = np.zeros(len(nums))
    for t in query_tokens:
        np.add(score, weight[row[t]], out=score, where=tf[row[t]] > 0)
    return score


def bm25_score(
    index: InvertedIndex,
    params: Bm25Params,
    query_tokens: Iterable[str],
    doc_id: str,
) -> float:
    """BM25 score of one document against query tokens.

    Each query token occurrence contributes `term_weight`; repeating a
    term in the query therefore scales its contribution.
    """
    nums = index.doc_numbers([doc_id])
    tokens = list(query_tokens)
    terms = sorted(set(tokens))
    return float(bm25_block(index, params, tokens, terms, index.tf_matrix(terms, nums), nums)[0])


def retrieve_topk(
    index: InvertedIndex, params: Bm25Params, query: Query, k: int
) -> Ranking:
    """Top-k BM25 retrieval; candidates are docs sharing >= 1 query term.

    Ties broken by ascending doc id. Depth is min(k, candidate count).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.zeros(index.size)
    norm = index.length_norm(params, index.lengths)
    for t in tokenize(query.text):
        docs, tfs = index.postings(t)
        scores[docs] += term_weight(_idf(index.size, len(docs)), tfs, norm[docs], params.k1)
    # every term weight is > 0, so the candidates are the nonzero scores;
    # the stable sort keeps equal scores in number order, which is id order
    cand = np.flatnonzero(scores)
    top = cand[np.argsort(-scores[cand], kind="stable")[:k]]
    return Ranking.from_scores(query.id, [index.doc_ids[i] for i in top.tolist()], scores[top])
