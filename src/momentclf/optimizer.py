"""Gradient descent with Armijo backtracking, plus starting-point rules.

The loop is deliberately plain: steepest descent, Armijo steps from a
geometric ladder, relative gradient-norm stopping.  Every accepted step is
recorded so a run can be audited after the fact (the sufficient-decrease
inequality is replayable from the trace alone).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import _check_ints, _check_min, _check_reals
from .model import LinearModel
from .moments import ClassMoments, _mean_difference
from .objectives import Objective, _scalar

__all__ = [
    "LineSearchConfig",
    "TraceRecord",
    "OptimizationTrace",
    "gd_backtracking",
    "init_w0_error",
    "init_random",
]

REASON_GRADIENT = "gradient-tolerance"
REASON_MAX_ITERS = "max-iterations"
REASON_LINE_SEARCH = "line-search-failure"
REASON_NO_DECREASE = "no-decrease"


@dataclass(frozen=True)
class LineSearchConfig:
    """Armijo backtracking parameters.

    Defaults: sufficient-decrease constant c=1e-4, shrink factor beta=0.5,
    unit initial step, 250 iterations, stopping when the gradient norm
    falls below 1e-7 times its starting value, and at most 60 shrinks per
    line search (0.5^60 ~ 1e-18, below any useful step).
    """

    c: float = 1e-4
    beta: float = 0.5
    alpha0: float = 1.0
    max_iters: int = 250
    grad_tol_rel: float = 1e-7
    max_backtracks: int = 60

    def __post_init__(self):
        _check_ints(self, max_iters=1, max_backtracks=1)
        _check_reals(self, "c", "beta", "alpha0", "grad_tol_rel")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie in (0, 1), got {self.c!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not self.alpha0 > 0.0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0!r}")
        if not self.grad_tol_rel > 0.0:
            raise ValueError(f"grad_tol_rel must be positive, got {self.grad_tol_rel!r}")


class TraceRecord(NamedTuple):
    """State after one accepted step, a tuple in field order, the order of
    emit_trace's columns.

    iteration is 1-based; value and grad_norm describe the new iterate;
    step is the accepted alpha; backtracks counts, cumulatively, the trial
    steps that were evaluated but not taken (for an objective that is not
    convex, exactly the steps rejected on the way down from alpha0; for a
    convex one, fewer, as steps the search rules out are never evaluated);
    seconds is wall-clock time since the run started.
    """

    iteration: int
    value: float
    grad_norm: float
    step: float
    backtracks: int
    seconds: float


@dataclass
class OptimizationTrace:
    """Full audit record of one gd_backtracking run.

    The starting objective value and gradient norm are kept alongside the
    per-step records so the Armijo inequality
    F_k+1 <= F_k - c * alpha_k+1 * ||grad_k||^2 can be re-verified for
    every accepted step without re-running the objective.  evaluations
    counts objective calls: the one at the start, every trial step, and
    the trials of a line search that failed.
    """

    initial_value: float
    initial_grad_norm: float
    records: list[TraceRecord] = field(default_factory=list)
    reason: str = ""
    evaluations: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_value(self) -> float:
        return self.records[-1].value if self.records else self.initial_value


# A test failed by less than this fraction of |F(w)| may have failed through
# rounding alone, so it is not taken as evidence that every larger step
# fails too.  It is 256 to 512 units in the last place of F(w); the hinge
# and logistic values carry a few, and on stalled hinge fits a slack of 4
# to 8 units let a rounding failure change the accepted step.
_ROUNDING = 2.0**-44


def _first_passing_rung(margin_at, first, last, slack, rules_out_next):
    """The smallest k in 0..last with margin_at(k) <= 0, or None.

    margin_at(k) evaluates the Armijo test at rung k (step alpha0*beta^k)
    and returns how far the trial value lies above the line (<= 0 for a
    pass).  The rungs from first up to larger steps are tried until one
    fails by more than slack, then the rungs below first in order.  For a
    convex objective the margin is a convex function of the step that is 0
    at step 0, so once positive it grows at least in proportion to the
    step: a failure by more than slack rules out every larger step, while a
    failure within slack may be rounding and rules out nothing.  After a
    pass at k > 0 the climb also stops, without evaluating rung k-1, when
    rules_out_next(k, margin_at(k)) says so.  From first=0 this is the
    plain search from alpha0 down, which never consults rules_out_next.
    Rungs ruled out are tried last, so a search that finds nothing has
    tried every rung once.
    """
    found = None
    ruled_out = 0
    for k in range(first, -1, -1):
        margin = margin_at(k)
        if margin <= 0.0:
            found = k
            if k and rules_out_next(k, margin):
                break
        elif margin > slack:
            ruled_out = k
            break
    if found is not None:
        return found
    for k in chain(range(first + 1, last + 1), range(ruled_out)):
        if margin_at(k) <= 0.0:
            return k
    return None


def gd_backtracking(
    objective: Objective,
    w0: np.ndarray,
    config: LineSearchConfig = LineSearchConfig(),
) -> tuple[LinearModel, OptimizationTrace]:
    """Minimize an objective by steepest descent with Armijo backtracking.

    From the current iterate w the accepted step is the first alpha of the
    ladder alpha0, alpha0*beta, ..., alpha0*beta^max_backtracks with
        F(w - alpha * g) <= F(w) - c * alpha * ||g||^2,
    so alpha0 is the largest step ever tried.  A search that starts at
    alpha0 and shrinks finds it.  When the evaluation says the objective is
    convex (ObjectiveEval.convex), the steps that pass form an interval
    [0, alpha*], so the same step is found from any rung: the search then
    starts at the previous iteration's accepted rung and climbs while the
    test holds, or descends until it does (see _first_passing_rung for the
    failures near rounding level that it does not trust).  While it climbs,
    the tangent at a trial that passed bounds the next-larger step's test,
    and a bound failing by over twice the rounding slack ends the climb
    without evaluating that step.  A failed search costs max_backtracks + 1
    evaluations either way.  The gradient is read only at the start, at
    accepted points and at trials that pass during a climb, so a failing
    trial costs one objective value and, for an objective whose gradient is
    built lazily (see ObjectiveEval), nothing more.
    Termination: gradient norm below grad_tol_rel times its starting value
    ("gradient-tolerance"), max_iters accepted steps ("max-iterations"), an
    accepted step whose value is not below the incumbent's and whose
    gradient is above the tolerance ("no-decrease", which returns that
    step), or an exhausted line search ("line-search-failure", which returns
    the incumbent iterate rather than raising).  An exception the objective
    raises mid-run propagates unchanged.
    """
    w = np.array(w0, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ValueError(f"w0 must be a 1-d vector, got shape {w.shape}")
    c, max_iters, max_backtracks = config.c, config.max_iters, config.max_backtracks
    # the rungs by repeated multiplication, as a shrinking alpha visits them
    alphas = [config.alpha0]
    for _ in range(max_backtracks):
        alphas.append(alphas[-1] * config.beta)
    steps = [_scalar(alpha) for alpha in alphas]
    clock = time.perf_counter
    start = clock()
    current = objective(w)
    value = float(current.value)
    grad = np.asarray(current.gradient, dtype=float)
    # what np.linalg.norm computes for a 1-d float vector, without its wrapper
    grad_norm = math.sqrt(float(grad.dot(grad)))
    trace = OptimizationTrace(initial_value=value, initial_grad_norm=grad_norm)
    records = trace.records
    threshold = config.grad_tol_rel * grad_norm
    evaluations = 1
    rung = 0
    passed = {}

    def margin_at(k):
        # how far the value at rung k lies above the Armijo line; a rung
        # that passes keeps its trial point and evaluation
        nonlocal evaluations
        evaluations += 1
        trial_w = steps[k] * grad
        np.subtract(w, trial_w, trial_w)
        trial = objective(trial_w)
        trial_value = float(trial.value)
        bound = f_current - alphas[k] * decrease_slope
        if trial_value <= bound:
            passed[k] = (trial_w, trial)
        return trial_value - bound

    def rules_out_next(k, margin):
        # a convex F lies above its tangent at w_k, so rung k-1's margin is at
        # least margin + (step increase) * slope; past 2*slack it truly fails
        slope = decrease_slope - float(grad.dot(passed[k][1].gradient))
        return margin + (alphas[k - 1] - alphas[k]) * slope > 2.0 * slack

    while True:
        if grad_norm <= threshold:
            trace.reason = REASON_GRADIENT
            break
        if len(records) >= max_iters:
            trace.reason = REASON_MAX_ITERS
            break
        f_current = value
        decrease_slope = c * grad_norm * grad_norm
        slack = _ROUNDING * abs(f_current)
        passed.clear()
        rung = _first_passing_rung(margin_at, rung if current.convex else 0,
                                   max_backtracks, slack, rules_out_next)
        if rung is None:
            trace.reason = REASON_LINE_SEARCH
            break
        w, current = passed[rung]
        value = float(current.value)
        grad = np.asarray(current.gradient, dtype=float)
        grad_norm = math.sqrt(float(grad.dot(grad)))
        iteration = len(records) + 1
        # every evaluation so far is the start, an accepted step or a backtrack
        records.append(TraceRecord(iteration, value, grad_norm, alphas[rung],
                                   evaluations - 1 - iteration, clock() - start))
        if value >= f_current and grad_norm > threshold:
            # the step passed Armijo only because F - c*alpha*||g||^2
            # rounds to F; a step onto a converged point stops on the gradient
            trace.reason = REASON_NO_DECREASE
            break
    trace.evaluations = evaluations
    return LinearModel(w=w, intercept=0.0), trace


def init_w0_error(moments: ClassMoments) -> np.ndarray:
    """Unit-norm start for the direct objectives.

    Takes the positive mean with its projection onto the negative mean
    removed, which already separates the projected class means when the
    means are not collinear.  Falls back to the positive mean when that
    difference is numerically zero, and to the mean difference mu_pos -
    mu_neg when the positive mean vanishes too.  Coincident class means
    raise DegenerateModelError, as in lda_fit: no direction separates them,
    and the direct objectives are flat in w there.
    """
    diff = _mean_difference(moments)
    mu_pos = moments.mu_pos
    mu_neg = moments.mu_neg
    neg_sq = float(mu_neg @ mu_neg)
    rejected = mu_pos - (float(mu_neg @ mu_pos) / neg_sq) * mu_neg if neg_sq > 0.0 else mu_pos
    for w in (rejected, mu_pos):
        norm = float(np.linalg.norm(w))
        if norm >= 1e-12:
            return w / norm
    # _mean_difference has shown this norm is at least 1e-12
    return diff / float(np.linalg.norm(diff))


def init_random(d: int, seed: int) -> np.ndarray:
    """Seeded unit-norm standard normal direction in R^d."""
    _check_min("d", d, 1)
    _check_min("seed", seed, 0)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    norm = float(np.linalg.norm(w))
    while norm == 0.0:
        w = rng.standard_normal(d)
        norm = float(np.linalg.norm(w))
    return w / norm
