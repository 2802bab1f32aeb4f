"""Closed-form training objectives: expected error and expected ranking loss.

Both objectives see the data only through Gaussian moment models, so one
evaluation costs O(d^2) regardless of how many samples produced the
moments.  An evaluation computes the value and makes one matrix-vector
product Sw per Gaussian (two for the error objective, one for the ranking
objective); the gradient, a few d-vector operations on that product, is
built in the same call.  Each objective's factory binds its moment model
and returns the one function that evaluates it.  Both objectives are
0-homogeneous in w: scaling w leaves the value unchanged and the gradient
is always orthogonal to w.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .moments import AucMoments, ClassMoments, _projection
from .normal import std_normal_cdf, std_normal_pdf

__all__ = [
    "ObjectiveEval",
    "Objective",
    "error_objective",
    "auc_objective",
]

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
    """Ratio w'mu / sqrt(w'Sw), the projected sd and the product Sw.

    The ratio is not clamped: beyond |ratio| = normal.SATURATION the CDF
    is pinned to 0 or 1 and the density underflows to 0, so the value and
    gradient are already exact there.
    """
    mu_w, sigma_w, sigma_times_w = _projection(w, mu, sigma)
    return mu_w / sigma_w, sigma_w, sigma_times_w


def _cdf_chain_gradient(mu, ratio, sigma_w, sigma_times_w):
    """Gradient of phi(w'mu / sqrt(w'Sw)) with respect to w, given Sw."""
    dens = std_normal_pdf(ratio)
    if dens == 0.0:
        return np.zeros_like(sigma_times_w)
    return dens * (sigma_w * mu - ratio * sigma_times_w) / (sigma_w * sigma_w)


def error_objective(moments: ClassMoments) -> Objective:
    """Expected misclassification rate of sign(w'x) under the moment model.

    The value is prior_pos * (1 - phi(r_pos)) + prior_neg * phi(r_neg),
    where r_c is the projected mean-to-sd ratio of class c, and always lies
    in [0, 1].  Its analytic gradient is orthogonal to w by 0-homogeneity.
    """

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        w = np.asarray(w, dtype=float)
        r_pos, s_pos, sw_pos = _ratio_stats(w, moments.mu_pos, moments.sigma_pos)
        r_neg, s_neg, sw_neg = _ratio_stats(w, moments.mu_neg, moments.sigma_neg)
        value = (moments.prior_pos * (1.0 - std_normal_cdf(r_pos))
                 + moments.prior_neg * std_normal_cdf(r_neg))
        g_pos = _cdf_chain_gradient(moments.mu_pos, r_pos, s_pos, sw_pos)
        g_neg = _cdf_chain_gradient(moments.mu_neg, r_neg, s_neg, sw_neg)
        return ObjectiveEval(value=value,
                             gradient=moments.prior_neg * g_neg - moments.prior_pos * g_pos)

    return evaluate


def auc_objective(pair_moments: AucMoments) -> Objective:
    """Expected ranking loss (one minus AUC) under the pair-difference model.

    With Z = w'(X- - X+) Gaussian, the probability that a negative outscores
    a positive is phi(mu_Z / sigma_Z).  Its analytic gradient is orthogonal
    to w by 0-homogeneity.
    """

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        w = np.asarray(w, dtype=float)
        ratio, sigma_w, sigma_times_w = _ratio_stats(w, pair_moments.mu_hat, pair_moments.sigma_hat)
        return ObjectiveEval(
            value=std_normal_cdf(ratio),
            gradient=_cdf_chain_gradient(pair_moments.mu_hat, ratio, sigma_w, sigma_times_w),
        )

    return evaluate
