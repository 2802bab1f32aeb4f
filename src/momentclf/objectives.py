"""Closed-form training objectives: expected error and expected ranking loss.

Both are sums of Gaussian-CDF terms, phi(w'mu / sqrt(w'Sw)) or its upper
tail per Gaussian N(mu, S): one per class, weighted by its prior, for the
expected error, and one for the pair-difference Gaussian (the binormal
AUC) for the ranking loss.  Each factory binds its terms once, and the
function it returns checks only w.  One evaluation costs O(d^2) however
many samples produced the moments: one product Sw per Gaussian, and a few
d-vector operations on it for the gradient, built in the same call.  Both
objectives are 0-homogeneous in w: scaling w leaves the value unchanged
and the gradient is always orthogonal to w.  The standard normal CDF and
SIGMA_EPS, the floor on a projected standard deviation, live here too.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DegenerateProjectionError
from .moments import AucMoments, ClassMoments

__all__ = [
    "SIGMA_EPS",
    "ObjectiveEval",
    "Objective",
    "error_objective",
    "auc_objective",
    "std_normal_cdf",
]

# Floor on a projected standard deviation before the ratio mu_w/sigma_w
# is considered undefined.
SIGMA_EPS = 1e-12

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


def _gaussian_cdf_sum(terms, d: int) -> Objective:
    """Bind Gaussian terms (mu, sigma, weight, upper); returns their sum's evaluator.

    A term adds weight * phi(r), or weight * (1 - phi(r)) if upper, where
    r = w'mu / sd and sd = sqrt(w'Sw), the quadratic form clamped at zero
    against rounding.  Each term is projected and evaluated in one pass;
    an sd below SIGMA_EPS raises DegenerateProjectionError.  r is not
    clamped: beyond |r| ~ 38.5 erfc gives an exact 0 or 1 and the density
    underflows to 0, so value and gradient are exact there.  A term's
    gradient dens * (sd * mu - r * Sw) / sd^2 is built in place over Sw,
    the evaluation's own product, scaled by the signed weight (not at all
    for a unit lower-tail weight) and added; adding (-p) * g is
    subtracting p * g, bit for bit.
    """
    bound = []
    for mu, sigma, weight, upper in terms:
        scale = -weight if upper else weight
        bound.append((mu, sigma, weight, upper, None if scale == 1.0 else _scalar(scale)))

    # ndarray.dot makes the same BLAS calls as @, without the ufunc dispatch
    def evaluate(w: np.ndarray) -> ObjectiveEval:
        w = _checked(w, d)
        value = 0.0
        gradient = None
        for mu, sigma, weight, upper, scale in bound:
            sigma_times_w = sigma.dot(w)
            q = float(w.dot(sigma_times_w))
            sigma_w = math.sqrt(q) if q > 0.0 else 0.0
            if sigma_w < SIGMA_EPS:
                raise DegenerateProjectionError(
                    f"projected standard deviation {sigma_w:.3e} is below {SIGMA_EPS:.0e}"
                )
            ratio = float(w.dot(mu)) / sigma_w
            cdf = std_normal_cdf(ratio)
            value += weight * (1.0 - cdf if upper else cdf)
            # ratio is finite here, as std_normal_cdf has accepted it
            dens = _INV_SQRT_2PI * math.exp(-0.5 * ratio * ratio)
            if dens == 0.0:
                term = np.zeros_like(sigma_times_w)
            else:
                term = sigma_w * mu
                sigma_times_w *= ratio
                term -= sigma_times_w
                term *= dens
                term /= sigma_w * sigma_w
            if scale is not None:
                term *= scale
            if gradient is None:
                gradient = term
            else:
                gradient += term
        return ObjectiveEval(value, gradient)

    return evaluate


def error_objective(moments: ClassMoments) -> Objective:
    """Expected misclassification rate of sign(w'x) under the moment model.

    The value is prior_pos * (1 - phi(r_pos)) + prior_neg * phi(r_neg),
    where r_c is the projected mean-to-sd ratio of class c, and always lies
    in [0, 1].  Its analytic gradient is orthogonal to w by 0-homogeneity.
    """
    return _gaussian_cdf_sum(
        ((moments.mu_pos, moments.sigma_pos, moments.prior_pos, True),
         (moments.mu_neg, moments.sigma_neg, moments.prior_neg, False)),
        moments.dim,
    )


def auc_objective(pair_moments: AucMoments) -> Objective:
    """Expected ranking loss (one minus AUC) under the pair-difference model.

    With Z = w'(X- - X+) Gaussian, the probability that a negative outscores
    a positive is phi(mu_Z / sigma_Z), the binormal AUC's complement.  Its
    analytic gradient is orthogonal to w by 0-homogeneity.
    """
    return _gaussian_cdf_sum(
        ((pair_moments.mu_hat, pair_moments.sigma_hat, 1.0, False),), pair_moments.dim
    )
