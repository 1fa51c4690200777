"""Domain types and the external data formats.

Formats handled here:
  corpus / queries  TSV          ``id<TAB>text``
  qrels             TREC         ``qid 0 docid rel`` (whitespace separated)
  run               TREC         ``qid Q0 docid rank score tag`` (scores
                                 serialized with 6 decimals, bit-exact)
  teacher rankings  JSONL        ``{"qid": ..., "ranked": [...]}`` (other keys
                                 are ignored)

All parsers are total: any byte stream either yields validated values or a
ParseError; nothing partially parsed escapes. Parsed values are immutable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import DataError, ParseError

_T = TypeVar("_T")

__all__ = [
    "Query",
    "Document",
    "Corpus",
    "RunEntry",
    "Ranking",
    "Qrels",
    "TeacherRanking",
    "ContrastiveInstance",
    "parse_corpus",
    "parse_queries",
    "parse_qrels",
    "parse_run",
    "write_run",
    "parse_teacher",
    "parse_path",
]


@dataclass(frozen=True)
class Query:
    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("query id must be non-empty")


@dataclass(frozen=True)
class Document:
    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")


@dataclass(frozen=True)
class Corpus:
    """Id-indexed document collection."""

    documents: Mapping[str, Document]

    @property
    def size(self) -> int:
        return len(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents.values())

    def get(self, doc_id: str) -> Document:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise KeyError(f"unknown document id {doc_id!r}") from None


@dataclass(frozen=True)
class RunEntry:
    doc_id: str
    rank: int
    score: float


@dataclass(frozen=True)
class Ranking:
    """Ordered scored documents for one query.

    Invariants: ranks are exactly 1..depth, entries sorted by rank, scores
    non-increasing with rank (ties allowed).
    """

    query_id: str
    entries: tuple[RunEntry, ...]

    def __post_init__(self):
        seen = set()
        prev_score = None
        for i, e in enumerate(self.entries):
            if e.rank != i + 1:
                raise ValueError(
                    f"query {self.query_id}: rank sequence broken at position {i} "
                    f"(expected {i + 1}, got {e.rank})"
                )
            if e.doc_id in seen:
                raise ValueError(f"query {self.query_id}: duplicate doc {e.doc_id!r}")
            seen.add(e.doc_id)
            if not math.isfinite(e.score):
                raise ValueError(f"query {self.query_id}: non-finite score at rank {e.rank}")
            if prev_score is not None and e.score > prev_score:
                raise ValueError(
                    f"query {self.query_id}: score increases at rank {e.rank} "
                    f"({e.score} > {prev_score})"
                )
            prev_score = e.score

    @property
    def depth(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    @staticmethod
    def from_scores(query_id: str, scored: Iterable[tuple[str, float]]) -> "Ranking":
        """Build a valid Ranking from (doc_id, score) pairs already in final order."""
        entries = tuple(
            RunEntry(doc_id, i + 1, float(score)) for i, (doc_id, score) in enumerate(scored)
        )
        return Ranking(query_id, entries)


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id)."""

    judgments: Mapping[tuple[str, str], int]
    # {query_id: {doc_id: grade}} in judgment order, built once
    _by_query: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_query: dict[str, dict[str, int]] = {}
        for (q, d), r in self.judgments.items():
            by_query.setdefault(q, {})[d] = r
        object.__setattr__(self, "_by_query", by_query)

    def grade(self, query_id: str, doc_id: str, default: int = 0) -> int:
        return self.judgments.get((query_id, doc_id), default)

    def query_ids(self) -> set[str]:
        return {qid for qid, _ in self.judgments}

    def docs_for(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))


@dataclass(frozen=True)
class TeacherRanking:
    """A teacher's preference order over documents, best first."""

    query_id: str
    doc_ids: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError(f"query {self.query_id}: duplicate doc in teacher ranking")
        if len(self.doc_ids) < 2:
            raise ValueError(f"query {self.query_id}: teacher ranking needs >= 2 docs")


@dataclass(frozen=True)
class ContrastiveInstance:
    """One positive and h hard negatives for a query."""

    query_id: str
    positive_id: str
    negatives: tuple[str, ...]

    def __post_init__(self):
        if self.positive_id in self.negatives:
            raise ValueError(f"query {self.query_id}: positive appears among negatives")
        if len(set(self.negatives)) != len(self.negatives):
            raise ValueError(f"query {self.query_id}: duplicate negatives")


def _lines(stream: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line), skipping blank lines."""
    it = stream.splitlines() if isinstance(stream, str) else stream
    for no, raw in enumerate(it, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.strip():
            yield no, line


def _parse_tsv(stream, kind: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for no, line in _lines(stream):
        if "\t" not in line:
            raise ParseError(f"expected '{kind}_id<TAB>text'", line=no)
        ident, text = line.split("\t", 1)
        if not ident:
            raise ParseError(f"empty {kind} id", line=no)
        if ident in out:
            raise ParseError(f"duplicate {kind} id {ident!r}", line=no)
        out[ident] = text
    return out


def parse_corpus(stream: str | Iterable[str]) -> Corpus:
    """Parse a ``doc_id<TAB>text`` TSV stream into a Corpus."""
    docs = _parse_tsv(stream, "doc")
    return Corpus({i: Document(i, t) for i, t in docs.items()})


def parse_queries(stream: str | Iterable[str]) -> list[Query]:
    """Parse a ``query_id<TAB>text`` TSV stream."""
    return [Query(i, t) for i, t in _parse_tsv(stream, "query").items()]


def parse_qrels(stream: str | Iterable[str]) -> Qrels:
    """Parse TREC qrels ``qid iter docid rel``; duplicates are hard errors."""
    judgments: dict[tuple[str, str], int] = {}
    for no, line in _lines(stream):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=no)
        qid, _, docid, rel_s = fields
        try:
            rel = int(rel_s)
        except ValueError:
            raise ParseError(f"relevance {rel_s!r} is not an integer", line=no) from None
        if rel < 0:
            raise ParseError(f"negative relevance grade {rel}", line=no)
        key = (qid, docid)
        if key in judgments:
            raise ParseError(f"duplicate judgment for ({qid}, {docid})", line=no)
        judgments[key] = rel
    return Qrels(judgments)


def parse_run(stream: str | Iterable[str]) -> list[Ranking]:
    """Parse a TREC run into one validated Ranking per query.

    Lines for a query need not be contiguous; entries are regrouped and
    re-sorted by rank. Rank gaps, duplicate docs, and scores that increase
    with rank are rejected.
    """
    per_query: dict[str, list[RunEntry]] = {}
    seen: set[tuple[str, str]] = set()
    for no, line in _lines(stream):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", line=no)
        qid, _, docid, rank_s, score_s, _ = fields
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise ParseError(f"bad rank/score pair ({rank_s!r}, {score_s!r})", line=no) from None
        if (qid, docid) in seen:
            raise ParseError(f"duplicate entry for ({qid}, {docid})", line=no)
        seen.add((qid, docid))
        per_query.setdefault(qid, []).append(RunEntry(docid, rank, score))

    rankings = []
    for qid, entries in per_query.items():
        entries.sort(key=lambda e: e.rank)
        try:
            rankings.append(Ranking(qid, tuple(entries)))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return rankings


def write_run(rankings: Iterable[Ranking], tag: str) -> str:
    """Serialize rankings to TREC run format, scores at 6 decimals, input order."""
    out = []
    for ranking in rankings:
        for e in ranking.entries:
            out.append(f"{ranking.query_id} Q0 {e.doc_id} {e.rank} {e.score:.6f} {tag}\n")
    return "".join(out)


def parse_teacher(stream: str | Iterable[str]) -> list[TeacherRanking]:
    """Parse JSONL teacher rankings, preserving line order."""
    teachers = []
    seen: set[str] = set()
    for no, line in _lines(stream):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=no) from None
        if not isinstance(obj, dict) or "qid" not in obj or "ranked" not in obj:
            raise ParseError("object must have 'qid' and 'ranked' fields", line=no)
        qid = str(obj["qid"])
        if qid in seen:
            raise ParseError(f"duplicate teacher ranking for query {qid}", line=no)
        seen.add(qid)
        ranked = obj["ranked"]
        if not isinstance(ranked, list) or not all(isinstance(d, str) for d in ranked):
            raise ParseError(f"query {qid}: 'ranked' must be a list of doc id strings", line=no)
        try:
            teachers.append(TeacherRanking(qid, tuple(ranked)))
        except ValueError as exc:
            raise ParseError(str(exc), line=no) from None
    return teachers


def parse_path(path: str | Path, parser: Callable[[str], _T]) -> _T:
    """Apply a parser to a file's text, prefixing errors with the file name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return parser(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
