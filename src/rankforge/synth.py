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
rendered files are byte-identical across runs. A document's header (alpha,
side topics, length) uses rejection draws and is drawn one value at a time;
the draws whose count is then known (every token's source and word, a
query's words, the teacher's noise) are taken as blocks of uniforms, which
splitmix64's counter form makes equal to the same draws made one at a time
(see `rng`), so the token choices are computed over whole arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64, block_uniforms, box_muller, substream

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
    this CDF starting at slice_start (a scalar or one start per uniform)."""
    idx = np.searchsorted(cdf, u, side="right")
    return slice_start + np.minimum(idx, len(cdf) - 1)


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
    vocab = [f"w{i:05d}" for i in range(t_count * slice_len)]

    # document headers, topic-major with strata in decreasing grade inside a
    # topic: the mixture weight alpha, the side topics and the length use
    # rejection draws, so they are drawn one document at a time
    rngs: list[SplitMix64] = []
    doc_grade: list[int] = []  # grade w.r.t. the primary topic
    doc_topic: list[int] = []
    alphas: list[float] = []
    lengths: list[int] = []
    n_sides: list[int] = []
    sides: list[int] = []  # every document's side topics, end to end
    for topic in range(t_count):
        others = [t for t in range(t_count) if t != topic]
        for grade, lo, hi, count in _grade_counts(spec.docs_per_topic):
            for _ in range(count):
                rng = SplitMix64(substream(spec.seed, _DOC_TAG, len(rngs)))
                alpha, n_side = 1.0, 0
                if t_count > 1:
                    alpha = lo + rng.uniform() * (hi - lo)
                    n_side = min(t_count - 1, max(3, math.ceil((1.0 - alpha) / 0.20)))
                    sides.extend(rng.sample(others, n_side))
                lengths.append(20 + rng.below(41))
                rngs.append(rng)
                doc_grade.append(grade)
                doc_topic.append(topic)
                alphas.append(alpha)
                n_sides.append(n_side)

    # then each document's tokens, one (source, word) pair of uniforms per
    # token, all in one block; a token comes from the primary topic when its
    # source uniform is below alpha (always for a lone topic, alpha = 1),
    # else from side topic int((u - alpha) / per) of the document, with
    # per = (1 - alpha) / n_side: the float operations of a per-token loop,
    # and the cast truncates like int() since u >= alpha
    u = block_uniforms(rngs, [2 * n for n in lengths])
    src_u, word_u = u[0::2], u[1::2]
    doc_of = np.repeat(np.arange(len(rngs)), lengths)
    src = np.array(doc_topic)[doc_of]
    tok_alpha = np.array(alphas)[doc_of]
    on_side = ~(src_u < tok_alpha)
    side_doc = doc_of[on_side]
    side_alpha = tok_alpha[on_side]
    side_n = np.array(n_sides)[side_doc]
    per = (1.0 - side_alpha) / side_n
    pick = np.minimum(side_n - 1, ((src_u[on_side] - side_alpha) / per).astype(np.int64))
    first_side = (np.cumsum(n_sides) - n_sides)[side_doc]
    src[on_side] = np.array(sides, dtype=np.int64)[first_side + pick]
    tokens = [vocab[i] for i in _word_ids(cdf, word_u, src * slice_len).tolist()]
    doc_names = [f"d{d:05d}" for d in range(len(rngs))]
    corpus_lines = []
    end = 0
    for name, n in zip(doc_names, lengths):
        corpus_lines.append(f"{name}\t{' '.join(tokens[end:end + n])}\n")
        end += n

    query_lines: list[str] = []
    qrels_lines: list[str] = []
    teacher_lines: list[str] = []
    for q in range(spec.queries):
        topic = q % t_count
        qid = f"q{q:04d}"
        rng = SplitMix64(substream(spec.seed, _QRY_TAG, q))
        n_tok = 3 + rng.below(4)
        words = _word_ids(query_cdf, rng.uniforms(n_tok), topic * slice_len)
        query_lines.append(f"{qid}\t{' '.join(vocab[i] for i in words.tolist())}\n")

        # every document of the topic is judged, in doc-id order
        judged = range(topic * spec.docs_per_topic, (topic + 1) * spec.docs_per_topic)
        for d in judged:
            qrels_lines.append(f"{qid} 0 {doc_names[d]} {doc_grade[d]}\n")

        if len(judged) >= 2:
            # one Box-Muller deviate per judged document from two uniforms;
            # at noise 0 each would be scaled to 0, so none is drawn
            noise = [0.0] * len(judged)
            if spec.noise:
                u = SplitMix64(substream(spec.seed, _TCH_TAG, q)).uniforms(2 * len(judged))
                noise = [spec.noise * box_muller(u1, u2)
                         for u1, u2 in zip(u[0::2].tolist(), u[1::2].tolist())]
            keyed = sorted((-(doc_grade[d] + z), doc_names[d]) for d, z in zip(judged, noise))
            ranked = [doc for _, doc in keyed[:TEACHER_DEPTH]]
            teacher_lines.append(json.dumps({"qid": qid, "ranked": ranked}) + "\n")

    return SynthDataset(
        "".join(corpus_lines),
        "".join(query_lines),
        "".join(qrels_lines),
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
