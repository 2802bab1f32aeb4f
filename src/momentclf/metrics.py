"""Empirical accuracy and ranking quality of a trained linear model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinearModel

__all__ = ["EvalResult", "empirical_accuracy", "empirical_auc", "evaluate_model"]


@dataclass(frozen=True)
class EvalResult:
    """Test metrics of one model on one dataset."""

    accuracy: float
    auc: float
    n_pos: int
    n_neg: int


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    predicted = np.where(scores >= 0.0, 1, -1)
    return float(np.mean(predicted == labels))


def empirical_accuracy(model: LinearModel, dataset) -> float:
    """Fraction of samples whose score sign matches the label.

    A score of exactly zero predicts +1, so the value is 1 minus the
    empirical zero-one loss up to that tie rule.
    """
    return _accuracy(model.scores(dataset.features), dataset.labels)


def empirical_auc(model: LinearModel, dataset, ties: str = "strict") -> float:
    """Fraction of positive-negative pairs ranked correctly.

    Counting is exact and O(n log n): negative scores are sorted once and
    each positive's rank is found by binary search.  With ties="strict" a
    tied pair earns nothing; ties="midrank" credits half, matching the
    rank-sum convention.
    """
    return evaluate_model(model, dataset, ties=ties).auc


def evaluate_model(model: LinearModel, dataset, ties: str = "strict") -> EvalResult:
    """Accuracy and AUC (as empirical_auc counts it) of one model from one scoring pass."""
    if ties not in ("strict", "midrank"):
        raise ValueError(f"ties must be 'strict' or 'midrank', got {ties!r}")
    scores = model.scores(dataset.features)
    sp = scores[dataset.pos_index]
    sn = scores[dataset.neg_index]
    if sp.shape[0] == 0 or sn.shape[0] == 0:
        raise ValueError("AUC needs at least one sample of each class")
    sn_sorted = np.sort(sn)
    below = np.searchsorted(sn_sorted, sp, side="left")
    credit = float(below.sum())
    if ties == "midrank":
        below_or_equal = np.searchsorted(sn_sorted, sp, side="right")
        credit += 0.5 * float((below_or_equal - below).sum())
    return EvalResult(
        accuracy=_accuracy(scores, dataset.labels),
        auc=credit / (sp.shape[0] * sn.shape[0]),
        n_pos=sp.shape[0],
        n_neg=sn.shape[0],
    )
