"""Baseline training criteria: regularized logistic loss, bipartite pairwise
hinge loss, and the closed-form pooled-covariance discriminant."""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularModelError
from .model import LinearModel
from .moments import ClassMoments, _mean_difference
from .objectives import Objective, ObjectiveEval, _checked, _scalar

__all__ = [
    "logistic_objective",
    "hinge_objective",
    "lda_fit",
]

# rows per block of _cholesky_solve; 32 measured fastest at d=800
_SOLVE_BLOCK = 32

# constant operands of the ufuncs below (see objectives._scalar)
_ZERO, _ONE, _MINUS_ONE = _scalar(0.0), _scalar(1.0), _scalar(-1.0)


def _sigmoid_from_exp(e: np.ndarray, nonneg: np.ndarray) -> np.ndarray:
    """1/(1+exp(-t)) elementwise from e = exp(-|t|) and nonneg = t >= 0,
    written over e, which it returns.

    Without overflow in either tail: that is 1/(1+e) where t >= 0 and
    e/(1+e) elsewhere.
    """
    denom = e + _ONE
    np.putmask(e, nonneg, _ONE)
    e /= denom
    return e


def logistic_objective(dataset, lam: float) -> Objective:
    """Mean logistic loss of scores w'x plus lam * ||w||^2, with gradient.

    With margins t_i = -y_i w'x_i and e_i = exp(-|t_i|), the per-sample
    term log(1 + exp(t_i)) is max(t_i, 0) + log1p(e_i), which neither
    overflows for strongly misclassified samples nor loses the small terms
    of well-classified ones; it lies within a few ulp of logaddexp(0, t_i).
    The one exp pass also serves the gradient (a sigmoid per sample and
    X'c), which is built on first read, in e's own storage.  With lam >= 0
    the criterion is convex, and each evaluation says so.
    """
    lam = float(lam)
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    X = dataset.features
    XT = X.T
    neg_y = -dataset.labels.astype(float)
    n, d = X.shape
    n_float, two_lam = _scalar(float(n)), _scalar(2.0 * lam)

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        w = _checked(w, d)
        # ndarray.dot makes the same BLAS calls as @, without the ufunc dispatch
        t = X.dot(w)
        t *= neg_y
        nonneg = t >= _ZERO
        # -|t| is copysign(t, -1); e is kept for the gradient, so the terms
        # take one fresh array, and max(t, 0) is written over t
        e = np.copysign(t, _MINUS_ONE)
        np.exp(e, out=e)
        terms = np.log1p(e)
        terms += np.maximum(t, _ZERO, out=t)
        # the sum and division ndarray.mean performs, without its wrapper
        value = float(np.add.reduce(terms)) / n + lam * float(w.dot(w))
        # taken now, so a caller that later writes to w cannot move the gradient
        ridge = two_lam * w

        def gradient() -> np.ndarray:
            coef = _sigmoid_from_exp(e, nonneg)
            coef *= neg_y
            coef /= n_float
            grad = XT.dot(coef)
            grad += ridge
            return grad

        return ObjectiveEval(value, gradient, True)

    return evaluate


def _hinge_score_eval(sp: np.ndarray, sn: np.ndarray):
    """Value of the bipartite hinge and the active-pair counts of its gradient.

    For positive scores sp and negative scores sn, computes the mean over
    all pairs of max(0, 1 - (sp_i - sn_j)) in O(n log n) via sorting and
    prefix sums.  Returns (value, active_pos), where active_pos[k] counts
    the positives in an active pair with the k-th smallest negative.  Only
    sorted values are needed here; the gradient redoes the sort as argsort,
    which orders the values the same way.  The ndarray methods stand in
    for np.sort, np.searchsorted, np.cumsum and ndarray.sum, which reach
    the same code through a Python wrapper.
    """
    n_pos = sp.shape[0]
    prefix = np.empty(n_pos + 1)
    prefix[0] = 0.0
    sp_sorted = prefix[1:]
    sp_sorted[...] = sp
    sp_sorted.sort()
    thresholds = sn.copy()
    thresholds.sort()
    thresholds += _ONE
    # pair (i, j) is active iff sp_i < sn_j + 1; both count directions
    # compare against the one shifted array, and the queries are sorted so
    # successive binary searches stay cache-local (random-order queries
    # are what pushes the large-n wall time off the n log n curve)
    active_pos = sp_sorted.searchsorted(thresholds)
    # prefix[k] is the sum of the k smallest positive scores; the sorted
    # scores are not needed again, so they are summed where they lie
    sp_sorted.cumsum(out=sp_sorted)
    value = (float(np.einsum("i,i->", active_pos, thresholds))
             - float(np.add.reduce(prefix[active_pos]))) / (n_pos * sn.shape[0])
    return value, active_pos


def hinge_objective(dataset) -> Objective:
    """Pairwise ranking hinge: mean over positive-negative pairs of
    max(0, 1 - (w'x_pos - w'x_neg)), with its (sub)gradient.

    This orientation penalizes a positive that fails to outscore a negative
    by the unit margin, so minimizing it pushes AUC up.  The gradient (the
    pair counts and X'g) is built on first read.  A mean of maxima of
    affine functions of w is convex, and each evaluation says so.

    The hinge is piecewise linear, so its subgradient does not shrink near
    a minimizer and gd_backtracking's relative-gradient stop cannot fire.
    Unless every pair clears the margin (zero loss, zero subgradient), a
    hinge fit ends on max-iterations, or on no-decrease once its steps are
    too small to lower the value.
    """
    X = dataset.features
    XT = X.T
    pos = dataset.pos_index
    neg = dataset.neg_index
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("pairwise hinge needs at least one sample of each class")
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    n_pairs, n_neg_int = _scalar(float(n_pos * n_neg)), _scalar(n_neg)
    d = X.shape[1]

    def evaluate(w: np.ndarray) -> ObjectiveEval:
        # score the whole matrix once and split the score vector; copying the
        # class submatrices would move 8*n*d bytes per call
        scores = X.dot(_checked(w, d))
        sp = scores[pos]
        sn = scores[neg]
        value, active_pos = _hinge_score_eval(sp, sn)

        def gradient() -> np.ndarray:
            # the positives' signed counts are the staircase inverse of
            # active_pos: t_k <= sp at sorted rank r exactly when
            # active_pos[k] <= r, so a cumulative histogram of active_pos
            # gives them without a second search
            signed_pos = np.bincount(active_pos, minlength=n_pos + 1).cumsum()[:n_pos]
            signed_pos -= n_neg_int
            # scatter the sorted-rank counts straight to their dataset rows
            # through the composed permutations (tied scores share a count,
            # so any sorting permutation gives the same result), then
            # normalize on the d-vector rather than per sample
            g_scores = np.empty_like(scores)
            g_scores[pos[sp.argsort()]] = signed_pos
            g_scores[neg[sn.argsort()]] = active_pos
            grad = XT.dot(g_scores)
            grad /= n_pairs
            return grad

        return ObjectiveEval(value, gradient, True)

    return evaluate


def _cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with factor @ factor.T @ x = b, for a lower-triangular factor.

    Forward then back substitution in blocks of _SOLVE_BLOCK rows (numpy
    has no triangular solve): one matrix-vector product folds everything
    already solved into a block (a zero for the first), and np.linalg.solve
    on the block's diagonal sub-block of the factor finishes it.  Each costs
    O(B^3) in one LAPACK call for B <= _SOLVE_BLOCK rows, small next to the
    O(d^3) factorization, which an LU solve of the whole matrix would repeat.
    """
    d = factor.shape[0]
    x = np.array(b, dtype=float)
    for i0 in range(0, d, _SOLVE_BLOCK):
        i1 = min(i0 + _SOLVE_BLOCK, d)
        x[i0:i1] -= factor[i0:i1, :i0] @ x[:i0]
        x[i0:i1] = np.linalg.solve(factor[i0:i1, i0:i1], x[i0:i1])
    for i1 in range(d, 0, -_SOLVE_BLOCK):
        i0 = max(i1 - _SOLVE_BLOCK, 0)
        x[i0:i1] -= factor[i1:, i0:i1].T @ x[i1:]
        x[i0:i1] = np.linalg.solve(factor[i0:i1, i0:i1].T, x[i0:i1])
    return x


def lda_fit(moments: ClassMoments) -> LinearModel:
    """Closed-form linear discriminant from a moment model.

    Pools the class covariances with prior weights, solves
    pooled * w = mu_pos - mu_neg with its Cholesky factor, and sets the
    intercept so the decision boundary sits between the class means with a
    prior-odds shift.  If the pooled matrix is not factorizable, a diagonal
    jitter of 1e-8 * trace/d is tried once before giving up.  Moments
    estimated from n samples pool two class covariances of rank at most
    their class counts minus one, so when n - 2 < d the pooled matrix is
    singular and the jitter is applied without trying it first.
    """
    diff = _mean_difference(moments)
    pooled = moments.prior_pos * moments.sigma_pos
    pooled += moments.prior_neg * moments.sigma_neg
    d = moments.dim
    factor = None
    # pooled is exactly symmetric, so its transpose is the same matrix in
    # Fortran order, which LAPACK's input copy reads with unit stride
    if moments.n_samples is None or moments.n_samples - 2 >= d:
        try:
            factor = np.linalg.cholesky(pooled.T)
        except np.linalg.LinAlgError:
            pass
    if factor is None:
        jitter = 1e-8 * float(np.trace(pooled)) / d
        pooled.flat[:: d + 1] += jitter
        try:
            factor = np.linalg.cholesky(pooled.T)
        except np.linalg.LinAlgError:
            raise SingularModelError(
                "pooled covariance is singular even after diagonal jitter"
            ) from None
    w = _cholesky_solve(factor, diff)
    intercept = float(-0.5 * (w @ (moments.mu_pos + moments.mu_neg))
                      + math.log(moments.prior_pos / moments.prior_neg))
    return LinearModel(w=w, intercept=intercept)
