"""Closed-form training objectives: expected error and expected ranking loss.

Both objectives see the data only through Gaussian moment models, so one
evaluation costs O(d^2) regardless of how many samples produced the
moments.  An evaluation computes the value and makes one matrix-vector
product Sw per Gaussian (two for the error objective, one for the ranking
objective); the gradient, a few d-vector operations on that product, is
built in the same call.  Each objective's factory binds its moment model,
which was checked when it was built, and returns the one function that
evaluates it; that function checks only w.  Both objectives are
0-homogeneous in w: scaling w leaves the value unchanged and the gradient
is always orthogonal to w.  The standard normal CDF, the one
transcendental function both need, is defined here too.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DegenerateProjectionError
from .moments import SIGMA_EPS, AucMoments, ClassMoments

__all__ = [
    "ObjectiveEval",
    "Objective",
    "error_objective",
    "auc_objective",
    "std_normal_cdf",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """P(N(0,1) <= x).  Accurate to a few ulp over the whole real line.

    It goes through the complementary error function, which keeps full
    double precision in both tails and reaches exact 0 and 1 far out in
    them without a clamp.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"std_normal_cdf requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


class ObjectiveEval:
    """Value and gradient of an objective at one point.

    `gradient` is given either as an array or as a zero-argument function
    that builds it.  A function runs on the first read of `.gradient` and
    its result is kept, so a caller that only compares values (a failing
    line-search trial) never pays for the gradient.  Such a function may
    read only what the evaluation itself built or what cannot change.

    `convex` says the objective is convex in w.  gd_backtracking then
    starts each search at the last accepted step and bounds larger steps
    by the gradient at a trial that passes; an objective not known to be
    convex leaves it False, and every search starts at alpha0.
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


def _checked(w, d: int) -> np.ndarray:
    """w as a float vector; ValueError unless it has shape (d,) and is finite.

    w'w is finite exactly when every entry is finite and the sum of
    squares does not overflow, so a finite w'w passes w without the
    entrywise scan.  Only a w'w that is not finite (a non-finite entry,
    or finite entries above about 1e154) pays for np.isfinite, which
    decides.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"w must have shape ({d},), got {w.shape}")
    if not math.isfinite(w.dot(w)) and not np.isfinite(w).all():
        raise ValueError("w contains non-finite entries")
    return w


def _scalar(value) -> np.ndarray:
    """value as a read-only 0-d array, for a constant operand of array arithmetic.

    A ufunc takes a 0-d array as it is but converts a Python scalar on
    every call, which costs about as much as the arithmetic on a few
    hundred elements; the result is the same.
    """
    out = np.array(value)
    out.setflags(write=False)
    return out


def _projector(mu: np.ndarray, sigma: np.ndarray):
    """Bind one Gaussian's moments; returns project(w) -> (ratio, sd, Sw).

    mu and sigma come from a moment container, which has checked them;
    project takes a w that _checked has passed.  It makes the one pass
    over sigma for Sw, and sd = sqrt(w'Sw) with the quadratic form clamped
    at zero, where rounding can push it for PSD sigma.  An sd below
    SIGMA_EPS raises DegenerateProjectionError, because the ratio w'mu / sd
    would be meaningless.  The ratio is not clamped: beyond |ratio| ~ 38.5
    erfc already returns an exact CDF of 0 or 1 and the density underflows
    to 0, so the value and gradient are already exact there.
    """

    # ndarray.dot makes the same BLAS calls as @, without the ufunc dispatch
    def project(w: np.ndarray) -> tuple[float, float, np.ndarray]:
        mu_w = float(w.dot(mu))
        sigma_times_w = sigma.dot(w)
        q = float(w.dot(sigma_times_w))
        sigma_w = math.sqrt(q) if q > 0.0 else 0.0
        if sigma_w < SIGMA_EPS:
            raise DegenerateProjectionError(
                f"projected standard deviation {sigma_w:.3e} is below {SIGMA_EPS:.0e}"
            )
        return mu_w / sigma_w, sigma_w, sigma_times_w

    return project


def _cdf_chain_gradient(mu, ratio, sigma_w, sigma_times_w):
    """Gradient of phi(w'mu / sqrt(w'Sw)) with respect to w, given Sw.

    dens is the standard normal density at ratio; ratio is finite here,
    as std_normal_cdf has already been given it.
    """
    dens = _INV_SQRT_2PI * math.exp(-0.5 * ratio * ratio)
    if dens == 0.0:
        return np.zeros_like(sigma_times_w)
    # dens * (sigma_w * mu - ratio * Sw) / (sigma_w * sigma_w), in place;
    # Sw is the evaluation's own product, so it may be overwritten
    grad = sigma_w * mu
    sigma_times_w *= ratio
    grad -= sigma_times_w
    grad *= dens
    grad /= sigma_w * sigma_w
    return grad


def error_objective(moments: ClassMoments) -> Objective:
    """Expected misclassification rate of sign(w'x) under the moment model.

    The value is prior_pos * (1 - phi(r_pos)) + prior_neg * phi(r_neg),
    where r_c is the projected mean-to-sd ratio of class c, and always lies
    in [0, 1].  Its analytic gradient is orthogonal to w by 0-homogeneity.
    """
    mu_pos, mu_neg = moments.mu_pos, moments.mu_neg
    prior_pos, prior_neg = moments.prior_pos, moments.prior_neg
    project_pos = _projector(mu_pos, moments.sigma_pos)
    project_neg = _projector(mu_neg, moments.sigma_neg)
    d = moments.dim
    weight_pos, weight_neg = _scalar(prior_pos), _scalar(prior_neg)

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        w = _checked(w, d)
        r_pos, s_pos, sw_pos = project_pos(w)
        r_neg, s_neg, sw_neg = project_neg(w)
        value = prior_pos * (1.0 - std_normal_cdf(r_pos)) + prior_neg * std_normal_cdf(r_neg)
        g_pos = _cdf_chain_gradient(mu_pos, r_pos, s_pos, sw_pos)
        g_neg = _cdf_chain_gradient(mu_neg, r_neg, s_neg, sw_neg)
        # prior_neg * g_neg - prior_pos * g_pos, in place
        g_neg *= weight_neg
        g_pos *= weight_pos
        g_neg -= g_pos
        return ObjectiveEval(value, g_neg)

    return evaluate


def auc_objective(pair_moments: AucMoments) -> Objective:
    """Expected ranking loss (one minus AUC) under the pair-difference model.

    With Z = w'(X- - X+) Gaussian, the probability that a negative outscores
    a positive is phi(mu_Z / sigma_Z).  Its analytic gradient is orthogonal
    to w by 0-homogeneity.
    """
    mu_hat = pair_moments.mu_hat
    project = _projector(mu_hat, pair_moments.sigma_hat)
    d = pair_moments.dim

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        ratio, sigma_w, sigma_times_w = project(_checked(w, d))
        value = std_normal_cdf(ratio)
        return ObjectiveEval(value, _cdf_chain_gradient(mu_hat, ratio, sigma_w, sigma_times_w))

    return evaluate
