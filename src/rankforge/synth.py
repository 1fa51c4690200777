"""Synthetic retrieval datasets with known graded relevance.

The vocabulary is split into disjoint per-topic slices with Zipf-shaped
in-slice token distributions. Each document draws its tokens from a mixture:
a primary topic with weight alpha plus several side topics, each kept below
weight 0.25. Relevance of a document to a query is the quantized share of
the query's topic in the document's mixture (>= 0.75 -> 3, >= 0.5 -> 2,
>= 0.25 -> 1, else 0), so grades are exact by construction and side-topic
memberships never cross the lowest band. Teacher rankings sort the judged
documents by true grade plus Gaussian noise.

Everything is derived from counter-based substreams of one seed, so the
rendered files are byte-identical across runs. Every draw is made for all
documents or all queries at once over an array of their generator states
(see `rng`), with the same bits as one generator per document or query
drawing in turn: a document's header (alpha, then its side topics and its
length by rejection), then every token's source and word; a query's
length, then its words; the teacher's noise. So the token choices, query
words and teacher orders are computed over whole arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import box_muller, state_below, state_sample, state_uniforms, substreams

__all__ = ["SynthSpec", "SynthDataset", "generate", "write_dataset"]

_DOC_TAG = 0x444F4300
_QRY_TAG = 0x51525900
_TCH_TAG = 0x54434800

# queries draw from the frequent end of their topic slice, so every query
# matches a healthy share of in-topic documents and queries about one topic
# share most of their vocabulary; the overlap is what lets a model trained
# on one split of queries transfer to held-out queries of the same topic
_QUERY_VOCAB_CAP = 25

# (grade, alpha low, alpha high, share of docs); alphas sit 0.03 inside the
# quantization bands so a drawn mixture can never land on a band boundary
_STRATA = (
    (3, 0.78, 0.97, 0.05),
    (2, 0.53, 0.72, 0.08),
    (1, 0.28, 0.47, 0.12),
    (0, 0.03, 0.22, 0.75),
)

TEACHER_DEPTH = 20


@dataclass(frozen=True)
class SynthSpec:
    """Size and noise knobs for one generated dataset."""

    vocab_size: int = 5000
    topics: int = 20
    docs_per_topic: int = 100
    queries: int = 250
    noise: float = 0.5  # teacher noise sigma
    seed: int = 42

    def __post_init__(self):
        for name in ("vocab_size", "topics", "docs_per_topic", "queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size < self.topics:
            raise ValueError("need at least one vocabulary word per topic")
        if not (self.noise >= 0.0 and math.isfinite(self.noise)):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")


@dataclass(frozen=True)
class SynthDataset:
    """Rendered artifact file contents, ready to write."""

    corpus_tsv: str
    queries_tsv: str
    qrels_txt: str
    teacher_jsonl: str


def _zipf_cdf(m: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, m + 1)
    return np.cumsum(weights / weights.sum())


def _word_ids(cdf: np.ndarray, u: np.ndarray, slice_start) -> np.ndarray:
    """The vocabulary index each uniform in u picks from the Zipf slice with
    this CDF starting at slice_start[i]."""
    idx = np.searchsorted(cdf, u, side="right")
    return slice_start + np.minimum(idx, len(cdf) - 1)


def _tsv(ids: list[str], words: list[str], counts: list[int]) -> str:
    """One `id<TAB>words` line per id, holding the next counts[i] words."""
    lines = []
    end = 0
    for name, n in zip(ids, counts):
        lines.append(f"{name}\t{' '.join(words[end:end + n])}\n")
        end += n
    return "".join(lines)


def _grade_counts(n: int) -> list[tuple[int, float, float, int]]:
    """Per-stratum (grade, alpha lo, alpha hi, count); grade-3 never empty."""
    counts = []
    left = n
    for grade, lo, hi, share in _STRATA[:-1]:
        want = max(1, round(share * n)) if grade == 3 else round(share * n)
        take = min(want, left)
        counts.append((grade, lo, hi, take))
        left -= take
    grade, lo, hi, _ = _STRATA[-1]
    counts.append((grade, lo, hi, left))
    return counts


def generate(spec: SynthSpec) -> SynthDataset:
    """Build corpus, queries, qrels, and teacher files for the spec."""
    slice_len = spec.vocab_size // spec.topics
    cdf = _zipf_cdf(slice_len)
    query_cdf = _zipf_cdf(min(slice_len, _QUERY_VOCAB_CAP))
    t_count = spec.topics
    per_topic = spec.docs_per_topic
    n_docs = t_count * per_topic
    vocab = [f"w{i:05d}" for i in range(t_count * slice_len)]

    # document headers, topic-major with strata in decreasing grade inside a
    # topic, one generator state per document: the mixture weight alpha,
    # then the side topics, then the length, each drawn for every document
    # at once; a pick p of the other t_count - 1 topics is topic p, skipping
    # the document's own
    grade, lo, hi, count = (np.array(col) for col in zip(*_grade_counts(per_topic)))
    stratum = np.tile(np.repeat(np.arange(grade.size), count), t_count)
    doc_grade = grade[stratum]
    doc_topic = np.repeat(np.arange(t_count), per_topic)
    state = substreams(spec.seed, _DOC_TAG, np.arange(n_docs))
    alphas = np.ones(n_docs)
    n_sides = np.zeros(n_docs, dtype=np.int64)
    sides = n_sides[:0]  # every document's side topics, end to end
    if t_count > 1:
        lo, hi = lo[stratum], hi[stratum]
        alphas = lo + state_uniforms(state, np.ones(n_docs)) * (hi - lo)
        n_sides = np.minimum(t_count - 1,
                             np.maximum(3, np.ceil((1.0 - alphas) / 0.20).astype(np.int64)))
        picks = state_sample(state, t_count - 1, n_sides)
        picks = picks[np.arange(picks.shape[1]) < n_sides[:, None]]
        sides = picks + (picks >= np.repeat(doc_topic, n_sides))
    lengths = 20 + state_below(state, 41)

    # then each document's tokens, one (source, word) pair of uniforms per
    # token, all in one block; a token comes from the primary topic when its
    # source uniform is below alpha (always for a lone topic, alpha = 1),
    # else from side topic int((u - alpha) / per) of the document, with
    # per = (1 - alpha) / n_side: the float operations of a per-token loop,
    # and the cast truncates like int() since u >= alpha
    u = state_uniforms(state, 2 * lengths)
    src_u, word_u = u[0::2], u[1::2]
    doc_of = np.repeat(np.arange(n_docs), lengths)
    src = doc_topic[doc_of]
    tok_alpha = alphas[doc_of]
    on_side = ~(src_u < tok_alpha)
    side_doc = doc_of[on_side]
    side_alpha = tok_alpha[on_side]
    side_n = n_sides[side_doc]
    per = (1.0 - side_alpha) / side_n
    pick = np.minimum(side_n - 1, ((src_u[on_side] - side_alpha) / per).astype(np.int64))
    first_side = (np.cumsum(n_sides) - n_sides)[side_doc]
    src[on_side] = sides[first_side + pick]
    tokens = [vocab[i] for i in _word_ids(cdf, word_u, src * slice_len).tolist()]
    doc_names = [f"d{d:05d}" for d in range(n_docs)]

    # each query's length below(4), then its words, both for every query at
    # once
    q_topic = np.arange(spec.queries) % t_count
    q_state = substreams(spec.seed, _QRY_TAG, np.arange(spec.queries))
    n_tok = 3 + state_below(q_state, 4)
    words = _word_ids(query_cdf, state_uniforms(q_state, n_tok),
                      np.repeat(q_topic * slice_len, n_tok))
    qids = [f"q{q:04d}" for q in range(spec.queries)]

    # every document of the query's topic is judged, in doc-id order: the
    # same lines for every query of a topic but for the leading query id
    lines = [f" 0 {name} {g}\n" for name, g in zip(doc_names, doc_grade.tolist())]
    judged = [lines[t * per_topic:(t + 1) * per_topic] for t in range(t_count)]
    qrels_txt = "".join(qid + qid.join(judged[t]) for qid, t in zip(qids, q_topic.tolist()))

    # the teacher ranks a query's judged documents by grade plus noise,
    # ties by doc id, from one Box-Muller deviate per document made of two
    # uniforms; at noise 0 each would be scaled to 0, so none is drawn
    teacher_lines = []
    if per_topic >= 2:
        noise = np.zeros((spec.queries, per_topic))
        if spec.noise:
            t_state = substreams(spec.seed, _TCH_TAG, np.arange(spec.queries))
            u = state_uniforms(t_state, np.full(spec.queries, 2 * per_topic)).tolist()
            noise = spec.noise * np.reshape(
                [box_muller(u1, u2) for u1, u2 in zip(u[0::2], u[1::2])], noise.shape)
        # doc ids compare as strings, which is not numeric order past d99999
        name_rank = np.empty(n_docs, dtype=np.int64)
        name_rank[np.argsort(np.array(doc_names), kind="stable")] = np.arange(n_docs)
        docs = q_topic[:, None] * per_topic + np.arange(per_topic)
        order = np.lexsort((name_rank[docs], -(doc_grade[docs] + noise)))
        for qid, row in zip(qids, np.take_along_axis(docs, order[:, :TEACHER_DEPTH], 1).tolist()):
            ranked = [doc_names[d] for d in row]
            teacher_lines.append(json.dumps({"qid": qid, "ranked": ranked}) + "\n")

    return SynthDataset(
        _tsv(doc_names, tokens, lengths.tolist()),
        _tsv(qids, [vocab[i] for i in words.tolist()], n_tok.tolist()),
        qrels_txt,
        "".join(teacher_lines),
    )


def write_dataset(dataset: SynthDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write the four artifact files; returns their paths by artifact name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out / "corpus.tsv",
        "queries": out / "queries.tsv",
        "qrels": out / "qrels.txt",
        "teacher": out / "teacher.jsonl",
    }
    paths["corpus"].write_text(dataset.corpus_tsv, encoding="utf-8")
    paths["queries"].write_text(dataset.queries_tsv, encoding="utf-8")
    paths["qrels"].write_text(dataset.qrels_txt, encoding="utf-8")
    paths["teacher"].write_text(dataset.teacher_jsonl, encoding="utf-8")
    return paths
