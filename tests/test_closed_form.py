"""Direct fits held against the optima their objectives are known to have.

The AUC objective Phi(mu_hat'w / sqrt(w' S w)), with mu_hat = mu_neg - mu_pos
and S = sigma_neg + sigma_pos, is minimized by w* proportional to
S^-1 (mu_pos - mu_neg) whenever S is nonsingular (Cauchy-Schwarz; the best
linear combination for AUC under normality, Su & Liu, JASA 88, 1993), and
its minimum is 1 - Phi(sqrt(dmu' S^-1 dmu)).  The error objective has no
closed form, but at d=2 it is a function of one angle, so a fine grid over
the unit circle finds its global minimum.  On scarce moments S is singular,
the AUC objective has no minimizer, and the iteration cap picks the answer.
"""

import math

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    GaussianSpec,
    LineSearchConfig,
    auc_moments,
    auc_objective,
    error_objective,
    estimate_class_moments,
    gd_backtracking,
    gen_gaussian,
    init_w0_error,
    inject_outliers,
    kfold_split,
    lda_fit,
)
from momentclf.optimizer import REASON_GRADIENT, REASON_MAX_ITERS

import oracles

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _phi(x):
    """Standard normal CDF through math.erfc, elementwise on arrays."""
    return 0.5 * np.asarray(_ERFC(-np.asarray(x) / math.sqrt(2.0)), dtype=float)


def _degrees(a, b):
    cos = float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def _auc_optimum(moments):
    """w* = S^-1 (mu_pos - mu_neg) and the floor 1 - Phi(sqrt(dmu' w*)) of the AUC objective."""
    diff = moments.mu_pos - moments.mu_neg
    w_star = np.linalg.solve(moments.sigma_pos + moments.sigma_neg, diff)
    return w_star, 1.0 - float(_phi(math.sqrt(float(diff @ w_star))))


class TestAucClosedForm:
    # the probe measured 1.1e-5 to 1.4e-5 degrees on these splits
    ANGLE_DEGREES = 1e-4
    # the rounding of Phi and of the solve; the probe saw at most 8e-17
    ROUNDING = 1e-15

    @pytest.fixture(scope="class")
    def estimated(self):
        """Contaminated estimated moments of the criterion 05-06 splits (d=50, n=2500)."""
        spec = GaussianSpec(d=50, n=5000, prior_pos=0.5, seed=2, mean_scale=0.55)
        dataset, _ = gen_gaussian(spec)
        out = []
        for s in range(4):
            train_idx, _ = kfold_split(dataset.n, 2, seed=s)[0]
            train = inject_outliers(dataset.subset(train_idx), 10.0, seed=50_000 + s)
            out.append(estimate_class_moments(train))
        return out

    def test_fit_to_tolerance_reaches_the_closed_form(self, estimated):
        for moments in estimated:
            w_star, floor = _auc_optimum(moments)
            objective = auc_objective(auc_moments(moments))
            model, trace = gd_backtracking(objective, init_w0_error(moments),
                                           LineSearchConfig(max_iters=5000))
            assert trace.reason == REASON_GRADIENT
            assert _degrees(model.w, w_star) <= self.ANGLE_DEGREES
            # no iterate, and not w* itself, goes below the floor
            values = [trace.initial_value, *(r.value for r in trace.records),
                      objective(w_star).value]
            assert min(values) >= floor - self.ROUNDING
            assert trace.final_value - floor <= 1e-13

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_moments_reach_the_ceiling(self, seed):
        # seed 3 has the ceiling 0.8194799
        _, exact = gen_gaussian(GaussianSpec(d=10, n=100, prior_pos=0.5, seed=seed,
                                             mean_scale=0.3))
        _, floor = _auc_optimum(exact)
        _, trace = gd_backtracking(auc_objective(auc_moments(exact)), init_w0_error(exact))
        # 1 - value, the model AUC, equals the ceiling 1 - floor
        assert abs(trace.final_value - floor) <= 1e-14


class TestErrorGlobalMinimumAtD2:
    """error-direct from init_w0_error ends at the best angle a fine grid finds."""

    GRID = 100_000

    @classmethod
    def _grid_minimum(cls, moments):
        theta = np.linspace(0.0, 2.0 * math.pi, cls.GRID, endpoint=False)
        W = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        r_pos = W @ moments.mu_pos / np.sqrt(np.einsum("ij,jk,ik->i", W, moments.sigma_pos, W))
        r_neg = W @ moments.mu_neg / np.sqrt(np.einsum("ij,jk,ik->i", W, moments.sigma_neg, W))
        values = moments.prior_pos * (1.0 - _phi(r_pos)) + moments.prior_neg * _phi(r_neg)
        return float(values.min())

    @pytest.mark.parametrize("seed", [
        *range(40),
        pytest.param(59, marks=pytest.mark.xfail(
            strict=True, reason="init_w0_error starts in the basin of a local minimum "
                                "0.036 above the global one")),
    ])
    def test_reaches_the_grid_minimum(self, seed):
        moments = ClassMoments(**oracles.random_class_moments(np.random.default_rng(seed), 2))
        _, trace = gd_backtracking(error_objective(moments), init_w0_error(moments),
                                   LineSearchConfig(max_iters=5000))
        # the grid's minimum is at or above the global one, by at most
        # about 1e-9 at this spacing
        assert trace.final_value <= self._grid_minimum(moments) + 1e-12


def test_scarce_moments_leave_the_answer_to_the_iteration_cap():
    """On one criterion-07 split (d=800, about 250 rows per class) S has rank
    at most n - 2 < d, so the AUC objective has no minimizer.  The direct
    fits stop on max-iterations far from the jittered closed forms, and twice
    the cap lowers their values and turns their weights: the default cap and
    start are part of what they compute."""
    spec = GaussianSpec(d=800, n=1000, prior_pos=0.5, seed=7, mean_scale=0.5)
    dataset, _ = gen_gaussian(spec)
    train_idx, _ = kfold_split(dataset.n, 2, seed=0)[0]
    train = inject_outliers(dataset.subset(train_idx), 10.0, seed=50_000)
    moments = estimate_class_moments(train)
    d = moments.dim
    assert moments.n_samples - 2 < d
    pair = moments.sigma_pos + moments.sigma_neg
    pair.flat[:: d + 1] += 1e-8 * float(np.trace(pair)) / d
    closed_forms = {
        "error-direct": lda_fit(moments).w,
        "auc-direct": np.linalg.solve(pair, moments.mu_pos - moments.mu_neg),
    }
    objectives = {
        "error-direct": error_objective(moments),
        "auc-direct": auc_objective(auc_moments(moments)),
    }
    w0 = init_w0_error(moments)
    doubled = LineSearchConfig(max_iters=2 * LineSearchConfig().max_iters)
    for method, objective in objectives.items():
        model, trace = gd_backtracking(objective, w0)
        assert trace.reason == REASON_MAX_ITERS, method
        # the probe measured 36.4 degrees from lda and 52.7 from the AUC closed form
        assert _degrees(model.w, closed_forms[method]) > 30.0, method
        # and 1.9 and 2.2 degrees between the two caps
        longer, longer_trace = gd_backtracking(objective, w0, doubled)
        assert longer_trace.reason == REASON_MAX_ITERS, method
        assert longer_trace.final_value < trace.final_value, method
        assert _degrees(longer.w, model.w) > 1.0, method
