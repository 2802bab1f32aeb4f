"""Tests for gradient descent with Armijo backtracking and the initializers."""

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    Dataset,
    GaussianSpec,
    DegenerateModelError,
    LineSearchConfig,
    ObjectiveEval,
    auc_moments,
    auc_objective,
    error_objective,
    estimate_class_moments,
    gd_backtracking,
    gen_gaussian,
    hinge_objective,
    init_random,
    init_w0_error,
    inject_outliers,
    kfold_split,
    logistic_objective,
)
from momentclf import optimizer
from momentclf.optimizer import (
    REASON_GRADIENT,
    REASON_LINE_SEARCH,
    REASON_MAX_ITERS,
    REASON_NO_DECREASE,
    _first_passing_rung,
)

import oracles


def quadratic(w):
    w = np.asarray(w, dtype=float)
    return ObjectiveEval(value=0.5 * float(w @ w), gradient=w.copy())


def scalar_parabola(w):
    # F(w) = (w - 1)^2 in one dimension
    x = float(w[0])
    return ObjectiveEval(value=(x - 1.0) ** 2, gradient=np.array([2.0 * (x - 1.0)]))


def quartic(w):
    x = float(w[0])
    return ObjectiveEval(value=x**4, gradient=np.array([4.0 * x**3]))


class TestLineSearchConfig:
    def test_defaults(self):
        cfg = LineSearchConfig()
        assert cfg.c == 1e-4
        assert cfg.beta == 0.5
        assert cfg.alpha0 == 1.0
        assert cfg.max_iters == 250
        assert cfg.grad_tol_rel == 1e-7
        assert cfg.max_backtracks == 60

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LineSearchConfig(c=0.0)
        with pytest.raises(ValueError):
            LineSearchConfig(c=1.0)
        with pytest.raises(ValueError):
            LineSearchConfig(beta=1.0)
        with pytest.raises(ValueError):
            LineSearchConfig(alpha0=0.0)
        with pytest.raises(ValueError):
            LineSearchConfig(max_iters=0)
        with pytest.raises(ValueError):
            LineSearchConfig(grad_tol_rel=0.0)
        with pytest.raises(ValueError):
            LineSearchConfig(max_backtracks=0)


class TestGdBacktracking:
    def test_quadratic_converges_in_one_step(self):
        model, trace = gd_backtracking(quadratic, np.array([3.0, 4.0]))
        assert trace.iterations == 1
        assert trace.reason == REASON_GRADIENT
        assert np.all(model.w == 0.0)
        rec = trace.records[0]
        assert rec.step == 1.0
        assert rec.backtracks == 0
        assert rec.value == 0.0
        assert trace.evaluations == 2
        # Armijo at the accepted step: 0 <= 12.5 - 1e-4 * 1 * 25
        assert rec.value <= trace.initial_value - rec.step * (1e-4 * trace.initial_grad_norm**2)

    def test_scalar_parabola_converges_monotonically(self):
        model, trace = gd_backtracking(scalar_parabola, np.array([0.0]))
        assert trace.iterations <= 50
        assert abs(model.w[0] - 1.0) <= 1e-6
        values = [trace.initial_value] + [r.value for r in trace.records]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_quartic_trace_replays_armijo(self):
        # start off the lattice of exact minimizer hits so the run is long
        cfg = LineSearchConfig()
        model, trace = gd_backtracking(quartic, np.array([1.5]), cfg)
        assert trace.iterations > 10
        prev_value = trace.initial_value
        prev_gnorm = trace.initial_grad_norm
        for rec in trace.records:
            assert rec.value <= prev_value - rec.step * (cfg.c * prev_gnorm * prev_gnorm)
            prev_value = rec.value
            prev_gnorm = rec.grad_norm

    def test_steps_within_alpha0(self):
        cfg = LineSearchConfig(alpha0=0.7)
        _, trace = gd_backtracking(quartic, np.array([1.5]), cfg)
        for rec in trace.records:
            assert 0.0 < rec.step <= 0.7

    def test_max_iterations_reason(self):
        cfg = LineSearchConfig(max_iters=3, grad_tol_rel=1e-300)
        _, trace = gd_backtracking(quartic, np.array([1.5]), cfg)
        assert trace.iterations == 3
        assert trace.reason == REASON_MAX_ITERS

    def test_zero_gradient_at_start_stops_immediately(self):
        model, trace = gd_backtracking(quadratic, np.zeros(2))
        assert trace.iterations == 0
        assert trace.reason == REASON_GRADIENT
        assert np.all(model.w == 0.0)

    def test_line_search_failure_returns_incumbent(self):
        def stubborn(w):
            # constant value with a fake nonzero gradient: no step can
            # achieve sufficient decrease
            return ObjectiveEval(value=1.0, gradient=np.ones_like(w))

        w0 = np.array([0.25, -0.5])
        # Cap the halvings so alpha * c * ||g||^2 stays above one ulp of the
        # objective value; with very deep backtracking the required decrease
        # underflows and the comparison degenerates to 1.0 <= 1.0.
        config = LineSearchConfig(max_backtracks=10)
        model, trace = gd_backtracking(stubborn, w0, config)
        assert trace.reason == REASON_LINE_SEARCH
        assert trace.iterations == 0
        assert trace.evaluations == 1 + config.max_backtracks + 1
        assert np.array_equal(model.w, w0)

    def test_step_that_does_not_lower_the_value_stops_the_fit(self):
        def flat(w):
            return ObjectiveEval(value=1.0, gradient=np.ones_like(w))

        # deep in the ladder c * alpha * ||g||^2 is below half an ulp of 1.0,
        # so a trial that leaves the value at 1.0 passes the Armijo test
        w0 = np.array([0.25, -0.5])
        model, trace = gd_backtracking(flat, w0)
        assert trace.reason == REASON_NO_DECREASE
        assert trace.iterations == 1
        step = trace.records[0].step
        assert 1.0 - LineSearchConfig().c * step * 2.0 == 1.0
        assert model.w.tobytes() == (w0 - step * np.ones(2)).tobytes()

    def test_step_onto_a_converged_point_stops_on_the_gradient(self):
        w0 = np.array([0.25, -0.5])

        def flat_then_stationary(w):
            return ObjectiveEval(value=1.0, gradient=np.ones(2) if np.array_equal(w, w0)
                                 else np.zeros(2))

        _, trace = gd_backtracking(flat_then_stationary, w0)
        assert trace.reason == REASON_GRADIENT
        assert trace.iterations == 1

    @pytest.mark.parametrize("case", ["hinge", "logistic-lam"])
    def test_points_are_never_written_once_evaluated(self, convex_cases, case):
        objective, d = convex_cases[case]
        seen = []

        def keeping(w):
            # the array itself, not a copy, with its bytes at evaluation
            seen.append((w, w.tobytes()))
            return objective(w)

        w0 = init_random(d, 1)
        start = w0.tobytes()
        model, trace = gd_backtracking(keeping, w0, LineSearchConfig(alpha0=8.0, max_iters=60))
        assert trace.records[-1].backtracks > 0
        assert w0.tobytes() == start
        assert all(w.tobytes() == at for w, at in seen)
        assert any(model.w.tobytes() == at for _, at in seen)

    def test_midrun_exception_propagates(self):
        calls = {"n": 0}

        def flaky(w):
            calls["n"] += 1
            if calls["n"] > 8:
                raise RuntimeError("objective blew up")
            return quartic(w)

        with pytest.raises(RuntimeError, match="objective blew up"):
            gd_backtracking(flaky, np.array([1.5]), LineSearchConfig(grad_tol_rel=1e-300))
        # the run stopped at the call that raised
        assert calls["n"] == 9

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(21)
        d = 6
        A = rng.normal(size=(d, d))
        H = A @ A.T / d + np.eye(d)
        b = rng.normal(size=d)

        def obj(w):
            return ObjectiveEval(
                value=0.5 * float(w @ H @ w) - float(b @ w),
                gradient=H @ w - b,
            )

        w0 = rng.normal(size=d)
        m1, t1 = gd_backtracking(obj, w0)
        m2, t2 = gd_backtracking(obj, w0)
        assert m1.w.tobytes() == m2.w.tobytes()
        assert [r.value for r in t1.records] == [r.value for r in t2.records]
        assert [r.step for r in t1.records] == [r.step for r in t2.records]
        assert [r.grad_norm for r in t1.records] == [r.grad_norm for r in t2.records]

    def test_iterations_are_one_based_and_consecutive(self):
        _, trace = gd_backtracking(quartic, np.array([1.5]))
        assert trace.iterations > 5
        assert [r.iteration for r in trace.records] == list(range(1, trace.iterations + 1))

    def test_seconds_cumulative_nondecreasing(self):
        _, trace = gd_backtracking(quartic, np.array([1.5]))
        secs = [r.seconds for r in trace.records]
        assert len(secs) > 5
        assert all(a <= b for a, b in zip(secs, secs[1:]))
        assert all(s >= 0.0 for s in secs)


class TestLazyGradient:
    def test_function_runs_once_on_first_read(self):
        calls = []

        def build():
            calls.append(1)
            return np.array([1.0, 2.0])

        ev = ObjectiveEval(value=0.5, gradient=build)
        assert calls == []
        first = ev.gradient
        second = ev.gradient
        assert second is first
        assert np.array_equal(first, [1.0, 2.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("w0", [[1.5], [3.0], [-2.0]])
    def test_gradient_built_only_at_start_and_accepted_points(self, w0):
        evals = []
        built = []

        def counting(w):
            # a lazy quartic that records which evaluation built a gradient
            x = float(w[0])
            index = len(evals)
            evals.append(x)

            def gradient():
                built.append(index)
                return np.array([4.0 * x**3])

            return ObjectiveEval(value=x**4, gradient=gradient)

        _, trace = gd_backtracking(counting, np.array(w0), LineSearchConfig(max_iters=40))
        assert trace.records[-1].backtracks > 0
        assert len(built) == trace.iterations + 1
        # the k-th accepted point is evaluation k + (backtracks so far)
        accepted = [0] + [r.iteration + r.backtracks for r in trace.records]
        assert built == accepted
        assert len(evals) == accepted[-1] + 1 == trace.evaluations

    @pytest.mark.parametrize("start", [1, 2, 3])
    @pytest.mark.parametrize("case", ["hinge", "hinge-ties", "logistic-lam"])
    def test_convex_gradient_built_only_at_points_that_pass(self, convex_cases, case, start):
        objective, d = convex_cases[case]
        points, values, built = [], [], []

        def counting(w):
            index = len(points)
            points.append(np.array(w))
            ev = objective(w)
            values.append(float(ev.value))

            def gradient():
                built.append(index)
                return ev.gradient

            return ObjectiveEval(value=ev.value, gradient=gradient, convex=ev.convex)

        config = LineSearchConfig(alpha0=8.0, max_iters=60)
        _, trace = gd_backtracking(counting, init_random(d, start), config)
        assert trace.reason != REASON_LINE_SEARCH
        alphas = config.alpha0 * config.beta ** np.arange(config.max_backtracks + 1)
        # the evaluations up to the end of each search; a climb may end on a
        # failing trial, so the accepted point need not be the last of them
        ends = [0] + [r.iteration + r.backtracks for r in trace.records]
        grad_norms = [trace.initial_grad_norm] + [r.grad_norm for r in trace.records]
        accepted, passing, passed_over = [0], [], []
        for i, record in enumerate(trace.records):
            # replay each trial of the search from the last accepted point:
            # its rung from its bytes, then its Armijo test
            at = accepted[-1]
            grad = objective(points[at]).gradient
            slope = config.c * grad_norms[i] * grad_norms[i]
            rung_of = {(points[at] - a * grad).tobytes(): k for k, a in enumerate(alphas)}
            trials = {t: rung_of[points[t].tobytes()] for t in range(ends[i] + 1, ends[i + 1] + 1)}
            accepted.append(next(t for t, k in trials.items() if alphas[k] == record.step))
            for t, k in trials.items():
                if values[t] <= values[at] - alphas[k] * slope:
                    passing.append(t)
                    if t != accepted[-1]:
                        # a larger step than the one accepted: the climb went past it
                        assert k > trials[accepted[-1]]
                        passed_over.append(t)
        # the start, every passing trial and so every accepted point; never
        # a failing trial
        assert built == [0] + passing
        assert set(accepted) <= set(built)
        assert len(built) == trace.iterations + 1 + len(passed_over)
        assert passed_over, "no climb went past a passing trial"
        assert len(points) == trace.evaluations

    def test_failed_line_search_builds_only_the_start_gradient(self):
        built = []

        def stubborn(w):
            def gradient():
                built.append(1)
                return np.ones_like(w)

            return ObjectiveEval(value=1.0, gradient=gradient)

        _, trace = gd_backtracking(stubborn, np.array([0.25, -0.5]),
                                   LineSearchConfig(max_backtracks=10))
        assert trace.reason == REASON_LINE_SEARCH
        assert len(built) == 1


class TestFirstPassingRung:
    """The rung search on scripted margins: > 0 fails, <= 0 passes."""

    @staticmethod
    def _search(margins, first, rules_out_next=lambda k, margin: False):
        calls = []

        def margin_at(k):
            calls.append(k)
            return margins[k]

        return _first_passing_rung(margin_at, first, len(margins) - 1, 1e-12,
                                   rules_out_next), calls

    def test_from_zero_is_the_search_from_alpha0(self):
        k, calls = self._search([8.0, 4.0, 2.0, -1.0, -0.5], 0)
        assert k == 3
        assert calls == [0, 1, 2, 3]

    def test_convex_margins_from_every_start(self):
        margins = [8.0, 4.0, 2.0, 1.0, -0.5, -0.25, -0.125, -0.0625]
        for first in range(len(margins)):
            k, calls = self._search(margins, first)
            assert k == 4
            if first >= 4:
                # climb to rung 4, stopped by the failure at rung 3
                assert calls == list(range(first, 2, -1))
            else:
                # the failure at the start rules out the larger steps
                assert calls == list(range(first, 5))

    def test_failures_within_slack_rule_out_nothing(self):
        # passes at rungs 2 and 5 among failures of rounding size, as a
        # stalled fit gives them
        margins = [1.0, 1e-3, 0.0, 1e-15, 1e-15, 0.0, 1e-15]
        for first in range(len(margins)):
            k, calls = self._search(margins, first)
            assert k == 2
            assert len(calls) == len(set(calls))

    def test_failed_search_tries_every_rung_once(self):
        margins = [4.0, 2.0, 1e-15, 1.0, 1e-15, float("nan")]
        for first in range(len(margins)):
            k, calls = self._search(margins, first)
            assert k is None
            assert sorted(calls) == list(range(len(margins)))

    @staticmethod
    def _recording(answer):
        consulted = []

        def rules_out_next(k, margin):
            consulted.append((k, margin))
            return answer(k)

        return rules_out_next, consulted

    def test_hook_is_consulted_only_after_a_pass_above_rung_0(self):
        # climb from 5: pass, fail within slack, pass, pass, fail beyond slack
        margins = [8.0, 4.0, -1.0, -0.5, 1e-15, -0.125]
        hook, consulted = self._recording(lambda k: False)
        k, calls = self._search(margins, 5, hook)
        assert (k, calls) == (2, [5, 4, 3, 2, 1])
        assert consulted == [(5, -0.125), (3, -0.5), (2, -1.0)]
        # a climb that reaches alpha0 passes there without consulting
        hook, consulted = self._recording(lambda k: False)
        k, calls = self._search([-2.0, -1.0, -0.5], 2, hook)
        assert (k, calls) == (0, [2, 1, 0])
        assert consulted == [(2, -0.5), (1, -1.0)]
        # a pass found on the way down after a failure ends the search
        hook, consulted = self._recording(lambda k: False)
        k, calls = self._search([8.0, 4.0, 2.0, 1.0, -0.5, -0.25], 2, hook)
        assert (k, calls) == (4, [2, 3, 4])
        assert consulted == []

    def test_true_hook_ends_the_climb_at_its_pass(self):
        margins = [8.0, 4.0, -1.0, -0.5, -0.25, -0.125]
        hook, consulted = self._recording(lambda k: k == 4)
        k, calls = self._search(margins, 5, hook)
        assert k == 4
        # rung 3 passes, but the hook ruled it out and it is never evaluated
        assert calls == [5, 4]
        assert consulted == [(5, -0.125), (4, -0.25)]

    def test_false_hook_leaves_the_calls_unchanged(self):
        margins = [8.0, 4.0, 2.0, 1.0, -0.5, -0.25, -0.125, -0.0625]
        for first in range(len(margins)):
            hook, consulted = self._recording(lambda k: False)
            k, calls = self._search(margins, first, hook)
            assert k == 4
            if first >= 4:
                # every pass of the climb is consulted, each with its margin
                assert calls == list(range(first, 2, -1))
                assert consulted == [(j, margins[j]) for j in range(first, 3, -1)]
            else:
                assert calls == list(range(first, 5))
                assert consulted == []

    def test_search_from_alpha0_never_consults_the_hook(self):
        # gd_backtracking starts every search of a non-convex objective at
        # rung 0, so these scripts cover it
        for margins in ([8.0, 4.0, -1.0, -0.5], [-1.0, -0.5], [1e-15, -1.0, 1e-15, -0.5],
                        [4.0, 2.0, 1e-15, 1.0, float("nan")]):
            hook, consulted = self._recording(lambda k: True)
            k, calls = self._search(margins, 0, hook)
            assert consulted == []
            assert k == next((j for j, m in enumerate(margins) if m <= 0.0), None)
            assert calls == list(range(len(margins) if k is None else k + 1))


def _tied_hinge_data():
    # the rows sit on a small integer grid and each appears once per class
    # (bar the flipped labels), so scores tie within and across the classes
    # whatever w is
    rng = np.random.default_rng(3)
    base = rng.integers(-2, 3, size=(20, 3)).astype(float)
    labels = np.r_[np.ones(20), -np.ones(20)]
    labels[::7] *= -1
    return Dataset(features=np.vstack([base, base]), labels=labels)


@pytest.fixture(scope="module")
def convex_cases():
    """Convex objectives by name, each with its dimension."""
    gauss, _ = gen_gaussian(GaussianSpec(d=5, n=200, prior_pos=0.5, outlier_pct=10.0, seed=4))
    ties = _tied_hinge_data()
    return {
        "hinge-ties": (hinge_objective(ties), ties.dim),
        "hinge": (hinge_objective(gauss), gauss.dim),
        "logistic-lam0": (logistic_objective(gauss, 0.0), gauss.dim),
        "logistic-lam": (logistic_objective(gauss, 0.1), gauss.dim),
    }


def _record_bytes(values):
    return np.array(values, dtype=float).tobytes()


def _against_cold_search(objective, d, config, start=1):
    """Run the optimizer and the cold-search oracle from one start and
    require the same weights and the same value, grad_norm and step bytes
    on every record."""
    w0 = init_random(d, start)
    model, trace = gd_backtracking(objective, w0, config)
    w, records, reason, evaluations = oracles.cold_backtracking(objective, w0, config)
    assert trace.reason == reason
    assert model.w.tobytes() == w.tobytes()
    assert _record_bytes([(r.value, r.grad_norm, r.step) for r in trace.records]) == (
        _record_bytes([rec[:3] for rec in records])
    )
    return trace, evaluations


class TestWarmStartedSearch:
    """On a convex objective each Armijo search starts at the last accepted
    step, and must find exactly the step a search from alpha0 finds."""

    @pytest.mark.parametrize("alpha0", [1.0, 8.0])
    @pytest.mark.parametrize("beta", [0.5, 0.3, 0.7])
    @pytest.mark.parametrize("case", ["hinge-ties", "hinge", "logistic-lam0", "logistic-lam"])
    def test_convex_fit_matches_cold_search(self, convex_cases, case, beta, alpha0):
        objective, d = convex_cases[case]
        config = LineSearchConfig(alpha0=alpha0, beta=beta, max_iters=60)
        # the tied scores make the hinge's kinks, where rounding and the
        # convexity bound are most delicate, so it runs from many starts
        for start in range(1, 9) if case == "hinge-ties" else [1]:
            trace, cold_evaluations = _against_cold_search(objective, d, config, start)
            assert trace.iterations > 0
            assert trace.reason != REASON_LINE_SEARCH
            assert trace.evaluations == 1 + trace.iterations + trace.records[-1].backtracks
            if case.startswith("hinge"):
                # a search from alpha0 rejects most of its trials on the hinge
                assert trace.evaluations < cold_evaluations
            elif alpha0 == 8.0:
                # the searches start below alpha0; climbing back up can cost a
                # trial more than searching down from alpha0 would
                assert trace.evaluations != cold_evaluations

    @staticmethod
    def _with_hook(monkeypatch, replace):
        """Route every rung search's rules_out_next through replace(hook)."""
        search = optimizer._first_passing_rung

        def routed(margin_at, first, last, slack, rules_out_next):
            return search(margin_at, first, last, slack, replace(rules_out_next))

        monkeypatch.setattr(optimizer, "_first_passing_rung", routed)

    @pytest.mark.parametrize("case", ["hinge-ties", "hinge", "logistic-lam"])
    def test_convexity_bound_removes_only_evaluations(self, convex_cases, monkeypatch, case):
        objective, d = convex_cases[case]
        config = LineSearchConfig(alpha0=8.0, max_iters=60)
        w0 = init_random(d, 1)
        model, trace = gd_backtracking(objective, w0, config)
        self._with_hook(monkeypatch, lambda hook: lambda k, margin: False)
        unbounded_model, unbounded = gd_backtracking(objective, w0, config)
        assert model.w.tobytes() == unbounded_model.w.tobytes()
        assert trace.reason == unbounded.reason
        assert _record_bytes([(r.value, r.grad_norm, r.step) for r in trace.records]) == (
            _record_bytes([(r.value, r.grad_norm, r.step) for r in unbounded.records]))
        assert all(a.backtracks <= b.backtracks
                   for a, b in zip(trace.records, unbounded.records))
        assert trace.evaluations < unbounded.evaluations

    def test_only_convex_objectives_consult_the_bound(self, convex_cases, monkeypatch):
        consulted = []

        def counted(hook):
            def rules_out_next(k, margin):
                consulted.append(k)
                return hook(k, margin)
            return rules_out_next

        self._with_hook(monkeypatch, counted)
        dataset, _ = gen_gaussian(GaussianSpec(d=5, n=200, prior_pos=0.5, seed=4))
        moments = estimate_class_moments(dataset)
        # a large first step makes the ranking objective backtrack
        config = LineSearchConfig(alpha0=1000.0, max_iters=60)
        _, trace = gd_backtracking(auc_objective(auc_moments(moments)), init_w0_error(moments),
                                   config)
        assert trace.records[-1].backtracks > 0
        assert consulted == []
        objective, d = convex_cases["hinge"]
        gd_backtracking(objective, init_random(d, 1), config)
        assert consulted and all(k > 0 for k in consulted)

    @pytest.mark.parametrize("case, alpha0, beta, max_backtracks", [
        ("hinge", 1.0, 0.5, 3),
        ("hinge-ties", 8.0, 0.3, 3),
        ("logistic-lam", 8.0, 0.7, 4),
    ])
    def test_failed_warm_search_tries_every_step(self, convex_cases, case, alpha0, beta,
                                                 max_backtracks):
        objective, d = convex_cases[case]
        config = LineSearchConfig(alpha0=alpha0, beta=beta, max_iters=60,
                                  max_backtracks=max_backtracks)
        trace, _ = _against_cold_search(objective, d, config)
        assert trace.reason == REASON_LINE_SEARCH
        # the failed search started below alpha0, at the last accepted step
        assert trace.records[-1].step < alpha0
        last_search = trace.evaluations - (1 + trace.iterations + trace.records[-1].backtracks)
        assert last_search == max_backtracks + 1

    def test_nonconvex_objective_evaluates_as_cold_search(self):
        dataset, _ = gen_gaussian(GaussianSpec(d=5, n=200, prior_pos=0.5, seed=4))
        moments = estimate_class_moments(dataset)
        objective = auc_objective(auc_moments(moments))

        def recording(points):
            def evaluate(w):
                points.append(np.array(w).tobytes())
                return objective(w)
            return evaluate

        # the ranking objective is 0-homogeneous and rarely backtracks; a
        # large first step makes it
        config = LineSearchConfig(alpha0=1000.0, max_iters=60)
        warm, cold = [], []
        w0 = init_w0_error(moments)
        _, trace = gd_backtracking(recording(warm), w0, config)
        _, records, _, evaluations = oracles.cold_backtracking(recording(cold), w0, config)
        assert not objective(w0).convex
        assert trace.records[-1].backtracks > 0
        assert warm == cold
        assert trace.evaluations == evaluations == len(warm)
        assert [r.backtracks for r in trace.records] == [rec[3] for rec in records]

    def test_hinge_fit_of_criterion_05_makes_few_evaluations(self):
        # the first contaminated split of criterion 05.  Over its first 150
        # iterations the steps stay above 1e-5 and the search reads 1.8
        # evaluations per iteration (2.0 without the convexity bound).  At
        # iteration 170 an accepted step leaves the value where it was, and
        # the fit stops there having read 2.1 per iteration (2.3); run on to
        # max_iters=250, its last 53 steps fall below 1e-10 and the whole
        # fit reads 8.5 (8.6)
        spec = GaussianSpec(d=50, n=5000, prior_pos=0.5, seed=2, mean_scale=0.55)
        dataset, _ = gen_gaussian(spec)
        train_idx, _ = kfold_split(dataset.n, 2, seed=0)[0]
        train = inject_outliers(dataset.subset(train_idx), 10.0, seed=50_000)
        objective, w0 = hinge_objective(train), init_random(train.dim, seed=2_000)
        model, trace = gd_backtracking(objective, w0)
        # fewer evaluations, the same fit: its stalled tail is where a bound
        # without rounding slack gives a different step
        w, records, _, _ = oracles.cold_backtracking(objective, w0, LineSearchConfig())
        assert model.w.tobytes() == w.tobytes()
        assert _record_bytes([(r.value, r.grad_norm, r.step) for r in trace.records]) == (
            _record_bytes([rec[:3] for rec in records]))
        assert trace.reason == REASON_NO_DECREASE
        assert trace.iterations < 250
        assert trace.records[-1].value >= trace.records[-2].value
        early = trace.records[149]
        assert early.step >= 1e-5
        assert 1 + early.iteration + early.backtracks <= 1.9 * early.iteration
        assert trace.evaluations <= 2.2 * trace.iterations


@pytest.mark.parametrize("method", ["error-direct", "auc-direct", "logistic", "hinge"])
def test_trace_grad_norms_are_linalg_norms(method):
    # the optimizer takes sqrt(g @ g) in place of np.linalg.norm; they must
    # agree bit for bit at the start and at the returned point
    spec = GaussianSpec(d=40, n=400, prior_pos=0.4, seed=8, mean_scale=0.5)
    train, _ = gen_gaussian(spec)
    moments = estimate_class_moments(train)
    if method == "error-direct":
        objective, w0 = error_objective(moments), init_w0_error(moments)
    elif method == "auc-direct":
        objective, w0 = auc_objective(auc_moments(moments)), init_w0_error(moments)
    elif method == "logistic":
        objective, w0 = logistic_objective(train, 1.0 / train.n), init_random(train.dim, 3)
    else:
        objective, w0 = hinge_objective(train), init_random(train.dim, 4)
    model, trace = gd_backtracking(objective, w0, LineSearchConfig(max_iters=40))
    assert trace.iterations > 0
    start = float(np.linalg.norm(objective(w0).gradient))
    end = float(np.linalg.norm(objective(model.w).gradient))
    assert _record_bytes([trace.initial_grad_norm, trace.records[-1].grad_norm]) == (
        _record_bytes([start, end])
    )


class TestInitW0Error:
    def _moments(self, mu_pos, mu_neg):
        d = len(mu_pos)
        return ClassMoments(
            np.asarray(mu_pos, dtype=float),
            np.asarray(mu_neg, dtype=float),
            np.eye(d),
            np.eye(d),
            0.5,
            0.5,
        )

    def test_orthogonal_means_pass_through(self):
        m = self._moments([1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(init_w0_error(m), np.array([1.0, 0.0]))

    def test_parallel_means_fall_back_to_mu_pos(self):
        m = self._moments([2.0, 0.0], [6.0, 0.0])
        assert np.allclose(init_w0_error(m), np.array([1.0, 0.0]), rtol=0.0, atol=1e-15)

    def test_hand_gram_schmidt_example(self):
        m = self._moments([1.0, 1.0], [1.0, 0.0])
        assert np.allclose(init_w0_error(m), np.array([0.0, 1.0]), rtol=0.0, atol=1e-15)

    def test_zero_mu_neg_uses_mu_pos(self):
        m = self._moments([3.0, 4.0], [0.0, 0.0])
        assert np.allclose(init_w0_error(m), np.array([0.6, 0.8]), rtol=0.0, atol=1e-15)

    def test_zero_mu_pos_falls_back_to_mean_difference(self):
        m = self._moments([0.0, 0.0, 0.0], [2.0, 0.0, 0.0])
        assert np.array_equal(init_w0_error(m), np.array([-1.0, 0.0, 0.0]))

    def test_both_means_zero_rejected(self):
        m = self._moments([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(DegenerateModelError):
            init_w0_error(m)

    def test_unit_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = self._moments(rng.normal(size=4), rng.normal(size=4))
            w0 = init_w0_error(m)
            assert abs(np.linalg.norm(w0) - 1.0) <= 1e-12


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(8, 123)
        b = init_random(8, 123)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_random(8, 1), init_random(8, 2))

    def test_unit_norm(self):
        for seed in range(10):
            assert abs(np.linalg.norm(init_random(5, seed)) - 1.0) <= 1e-12

    def test_coordinate_mean_near_zero(self):
        d = 10_000
        w = init_random(d, 77)
        # raw draws have mean within 4/sqrt(d); unit normalization divides
        # by a norm of ~sqrt(d), so the bound becomes 4/d
        assert abs(float(np.mean(w))) <= 4.0 / d
