"""Closed-form training objectives: expected error and expected ranking loss.

Both objectives see the data only through Gaussian moment models, so one
evaluation costs O(d^2) regardless of how many samples produced the
moments.  An evaluation computes the value and makes one matrix-vector
product Sw per Gaussian (two for the error objective, one for the ranking
objective); the gradient, a few d-vector operations on that product, is
built in the same call.  The public value and gradient functions are views
of that same evaluation.  Both objectives are 0-homogeneous in w: scaling
w leaves the value unchanged and the gradient is always orthogonal to w.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .moments import AucMoments, ClassMoments, _projection
from .normal import std_normal_cdf, std_normal_pdf

__all__ = [
    "RATIO_CLAMP",
    "ObjectiveEval",
    "Objective",
    "f_error",
    "grad_f_error",
    "f_auc",
    "grad_f_auc",
    "error_objective",
    "auc_objective",
]

# The ratio mu_w/sigma_w is clamped to this band before the CDF/density are
# applied; outside it both have saturated in double precision and the true
# gradient underflows to zero anyway.
RATIO_CLAMP = 40.0


class ObjectiveEval:
    """Value and gradient of an objective at one point.

    `gradient` is given either as an array or as a zero-argument function
    that builds it.  A function runs on the first read of `.gradient` and
    its result is kept, so a caller that only compares values (a rejected
    line-search trial) never pays for the gradient.  Such a function may
    read only what the evaluation itself built or what cannot change.

    `convex` says the objective is convex in w.  gd_backtracking then
    starts each line search at the previous accepted step, which finds the
    same step with fewer trials; an objective that is not convex, or not
    known to be, leaves it False and every search starts at alpha0.
    """

    __slots__ = ("value", "_gradient", "convex")

    def __init__(self, value: float, gradient: np.ndarray | Callable[[], np.ndarray],
                 convex: bool = False):
        self.value = value
        self._gradient = gradient
        self.convex = convex

    @property
    def gradient(self) -> np.ndarray:
        if callable(self._gradient):
            self._gradient = self._gradient()
        return self._gradient


# A training objective, as consumed by the optimizer.
Objective = Callable[[np.ndarray], ObjectiveEval]


def _ratio_stats(w, mu, sigma):
    """Clamped ratio w'mu / sqrt(w'Sw), the projected sd and the product Sw."""
    mu_w, sigma_w, sigma_times_w = _projection(w, mu, sigma)
    ratio = mu_w / sigma_w
    if ratio > RATIO_CLAMP:
        ratio = RATIO_CLAMP
    elif ratio < -RATIO_CLAMP:
        ratio = -RATIO_CLAMP
    return ratio, sigma_w, sigma_times_w


def _cdf_chain_gradient(mu, ratio, sigma_w, sigma_times_w):
    """Gradient of phi(w'mu / sqrt(w'Sw)) with respect to w, given Sw."""
    dens = std_normal_pdf(ratio)
    if dens == 0.0:
        return np.zeros_like(sigma_times_w)
    return dens * (sigma_w * mu - ratio * sigma_times_w) / (sigma_w * sigma_w)


def _error_eval(w, moments: ClassMoments) -> ObjectiveEval:
    w = np.asarray(w, dtype=float)
    r_pos, s_pos, sw_pos = _ratio_stats(w, moments.mu_pos, moments.sigma_pos)
    r_neg, s_neg, sw_neg = _ratio_stats(w, moments.mu_neg, moments.sigma_neg)
    value = moments.prior_pos * (1.0 - std_normal_cdf(r_pos)) + moments.prior_neg * std_normal_cdf(r_neg)
    g_pos = _cdf_chain_gradient(moments.mu_pos, r_pos, s_pos, sw_pos)
    g_neg = _cdf_chain_gradient(moments.mu_neg, r_neg, s_neg, sw_neg)
    return ObjectiveEval(value=value, gradient=moments.prior_neg * g_neg - moments.prior_pos * g_pos)


def _auc_eval(w, pair_moments: AucMoments) -> ObjectiveEval:
    w = np.asarray(w, dtype=float)
    ratio, sigma_w, sigma_times_w = _ratio_stats(w, pair_moments.mu_hat, pair_moments.sigma_hat)
    return ObjectiveEval(
        value=std_normal_cdf(ratio),
        gradient=_cdf_chain_gradient(pair_moments.mu_hat, ratio, sigma_w, sigma_times_w),
    )


def f_error(w: np.ndarray, moments: ClassMoments) -> float:
    """Expected misclassification rate of sign(w'x) under the moment model.

    Equals prior_pos * (1 - phi(r_pos)) + prior_neg * phi(r_neg) where
    r_c is the projected mean-to-sd ratio of class c.  Always in [0, 1].
    """
    return _error_eval(w, moments).value


def grad_f_error(w: np.ndarray, moments: ClassMoments) -> np.ndarray:
    """Analytic gradient of f_error.  Orthogonal to w by 0-homogeneity."""
    return _error_eval(w, moments).gradient


def f_auc(w: np.ndarray, pair_moments: AucMoments) -> float:
    """Expected ranking loss (one minus AUC) under the pair-difference model.

    With Z = w'(X- - X+) Gaussian, the probability that a negative outscores
    a positive is phi(mu_Z / sigma_Z).
    """
    return _auc_eval(w, pair_moments).value


def grad_f_auc(w: np.ndarray, pair_moments: AucMoments) -> np.ndarray:
    """Analytic gradient of f_auc.  Orthogonal to w by 0-homogeneity."""
    return _auc_eval(w, pair_moments).gradient


def error_objective(moments: ClassMoments) -> Objective:
    """Bind f_error and its gradient to a moment model for the optimizer."""

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        return _error_eval(w, moments)

    return evaluate


def auc_objective(pair_moments: AucMoments) -> Objective:
    """Bind f_auc and its gradient to a pair-difference model for the optimizer."""

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        return _auc_eval(w, pair_moments)

    return evaluate
