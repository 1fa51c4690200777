"""Training objectives as pure functions from score vectors to (loss, grad).

All three losses use overflow-free forms: log-sum-exp with max subtraction
and softplus(x) = max(x, 0) + ln(1 + e^-|x|), stable for scores up to ~1e3
in magnitude.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["LossOutput", "lce", "ranknet", "bce", "softplus", "sigmoid"]


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad: np.ndarray


def softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _group(scores: np.ndarray, loss: str) -> np.ndarray:
    """scores as a float64 vector, checked to be 1-D, >= 2 long and finite."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError(f"{loss} needs >= 2 scores, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"{loss} scores must be finite")
    return s


def lce(scores: np.ndarray) -> LossOutput:
    """Contrastive loss of the positive (index 0) against hard negatives (1..h).

    value = -ln( e^{s_0} / sum_j e^{s_j} ), grad = softmax(s) - onehot(0).
    """
    s = _group(scores, "lce")
    shifted = s - s.max()
    exp = np.exp(shifted)
    total = exp.sum()
    value = float(np.log(total) - shifted[0])
    grad = exp / total
    grad[0] -= 1.0
    return LossOutput(value, grad)


def ranknet(scores: np.ndarray) -> LossOutput:
    """Pairwise distillation loss against a teacher order.

    Index i carries teacher rank i+1; every pair where the teacher prefers i
    over j contributes softplus(s_j - s_i), penalizing the student for
    scoring the preferred document lower.
    """
    s = _group(scores, "ranknet")
    # diff[i, j] = s_j - s_i; only pairs i < j (teacher rank r_i < r_j) count
    upper = _upper_pairs(s.size)
    diff = (s[None, :] - s[:, None])[upper]
    value = float(softplus(diff).sum())
    p = np.zeros((s.size, s.size))
    p[upper] = sigmoid(diff)
    grad = p.sum(axis=0) - p.sum(axis=1)
    return LossOutput(value, grad)


@functools.cache
def _upper_pairs(n: int) -> np.ndarray:
    """The (n, n) mask of the pairs i < j, shared between calls."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def bce(scores: np.ndarray) -> LossOutput:
    """Binary cross-entropy summed over a group: the positive (index 0) is
    labelled 1, the negatives 0, each through a sigmoid relevance probability.

    value = sum_j softplus(s_j) - s_0, grad = sigmoid(s) - onehot(0).
    """
    s = _group(scores, "bce")
    labels = np.zeros_like(s)
    labels[0] = 1.0
    value = float((softplus(s) - labels * s).sum())
    return LossOutput(value, sigmoid(s) - labels)
