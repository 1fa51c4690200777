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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

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


def _check_ranking(query_id: str, ids: tuple[str, ...], scores: np.ndarray) -> None:
    """Raise ValueError at the first position, in rank order, that holds a
    duplicate id, a non-finite score, or a score above the previous one."""
    if scores.shape != (len(ids),):
        raise ValueError(f"query {query_id}: {len(ids)} doc ids but {scores.size} scores")
    found = []  # (position, message) of each kind's first violation
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        i = next(i for i, d in enumerate(ids) if d in seen or seen.add(d))
        found.append((i, f"duplicate doc {ids[i]!r}"))
    nonfinite = np.flatnonzero(~np.isfinite(scores))
    if nonfinite.size:
        found.append((int(nonfinite[0]), f"non-finite score at rank {nonfinite[0] + 1}"))
    rises = np.flatnonzero(scores[1:] > scores[:-1])
    if rises.size:
        i = int(rises[0]) + 1
        prev, score = scores[i - 1].item(), scores[i].item()
        found.append((i, f"score increases at rank {i + 1} ({score} > {prev})"))
    if found:
        raise ValueError(f"query {query_id}: {min(found, key=lambda f: f[0])[1]}")


class Ranking:
    """Ordered scored documents for one query: `ids`, best first, and their
    float64 `scores` (read-only). The document at position i has rank i + 1.

    Invariants: no duplicate id, every score finite, scores non-increasing
    with rank (ties allowed). `Ranking(query_id, entries)` builds one from
    RunEntry objects, whose ranks must be exactly 1..depth, and `entries`
    gives them back; `from_scores` builds one from ids and scores.
    """

    __slots__ = ("query_id", "ids", "scores")

    def __init__(self, query_id: str, entries: Iterable[RunEntry]):
        entries = tuple(entries)
        ids = tuple(e.doc_id for e in entries)
        scores = np.array([e.score for e in entries], dtype=np.float64)
        broken = next((i for i, e in enumerate(entries) if e.rank != i + 1), None)
        if broken is not None:
            # entries are checked in rank order: a violation ahead of the break wins
            _check_ranking(query_id, ids[:broken], scores[:broken])
            raise ValueError(
                f"query {query_id}: rank sequence broken at position {broken} "
                f"(expected {broken + 1}, got {entries[broken].rank})"
            )
        self._hold(query_id, ids, scores)

    @classmethod
    def from_scores(
        cls, query_id: str, doc_ids: Iterable, scores: Sequence[float] | np.ndarray | None = None
    ) -> "Ranking":
        """A Ranking of doc_ids with their scores, already in final order.

        With scores None, doc_ids holds (doc_id, score) pairs instead.
        """
        if scores is None:
            pairs = tuple(doc_ids)
            doc_ids, scores = [d for d, _ in pairs], [s for _, s in pairs]
        ranking = cls.__new__(cls)
        ranking._hold(query_id, tuple(doc_ids), np.array(scores, dtype=np.float64))
        return ranking

    def _hold(self, query_id: str, ids: tuple[str, ...], scores: np.ndarray) -> None:
        _check_ranking(query_id, ids, scores)
        scores.flags.writeable = False
        object.__setattr__(self, "query_id", query_id)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "scores", scores)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Ranking")

    def __eq__(self, other):
        if not isinstance(other, Ranking):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.ids == other.ids
            and np.array_equal(self.scores, other.scores)
        )

    def __repr__(self):
        return f"Ranking(query_id={self.query_id!r}, ids={self.ids!r}, scores={self.scores!r})"

    @property
    def depth(self) -> int:
        return len(self.ids)

    @property
    def entries(self) -> tuple[RunEntry, ...]:
        """The ranking as RunEntry objects, rank 1 first."""
        return tuple(
            RunEntry(d, i + 1, s) for i, (d, s) in enumerate(zip(self.ids, self.scores.tolist()))
        )

    def doc_ids(self) -> list[str]:
        return list(self.ids)


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
        if ident.split() != [ident]:  # run and qrels lines split on whitespace
            raise ParseError(f"{kind} id {ident!r} is empty or holds whitespace", line=no)
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
        qid = ranking.query_id
        for rank, (d, s) in enumerate(zip(ranking.ids, ranking.scores.tolist()), start=1):
            out.append(f"{qid} Q0 {d} {rank} {s:.6f} {tag}\n")
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
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return parser(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
