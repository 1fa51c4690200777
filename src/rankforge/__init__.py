"""rankforge: a desk-scale toolkit for fine-tuning point-wise re-rankers.

BM25 retrieval feeds a small differentiable scorer that is fine-tuned with
contrastive learning over sampled negatives, ranking distillation from
teacher orderings, or both in sequence. Evaluation covers AP, nDCG@10, and
MRR@10 with paired significance testing and marker-annotated comparison
tables. Everything is deterministic given explicit seeds.

The package root exports what the library quick start uses; every other
name is imported from its module (`rankforge.scorer`, `rankforge.training`,
`rankforge.experiment`, ...).
"""

from .data import Query, parse_corpus
from .retrieval import Bm25Params, build_index, retrieve_topk

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Bm25Params", "Query", "build_index", "parse_corpus", "retrieve_topk",
]
