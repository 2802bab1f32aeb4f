"""Tests for the closed-form expected-error and ranking-loss objectives."""

import math

import numpy as np
import pytest

from momentclf import (
    ClassMoments,
    DegenerateProjectionError,
    auc_moments,
    auc_objective,
    error_objective,
    std_normal_cdf,
)

import oracles

# a ratio far past the one where erfc returns an exact 0 or 1 (about 38.5)
SATURATION = 40.0


def _pair_moments(mu_hat, sigma_hat):
    """Pair moments with exactly this mu_hat and sigma_hat, built as the package builds them.

    mu_hat - 0 and sigma_hat / 2 + sigma_hat / 2 give back both inputs bit for bit.
    """
    half = 0.5 * sigma_hat
    a = auc_moments(ClassMoments(mu_pos=np.zeros_like(mu_hat), mu_neg=mu_hat,
                                 sigma_pos=half, sigma_neg=half, prior_pos=0.5, prior_neg=0.5))
    assert np.array_equal(a.mu_hat, mu_hat) and np.array_equal(a.sigma_hat, sigma_hat)
    return a


def _moments_e1(d=3, prior_pos=0.5):
    e1 = np.zeros(d)
    e1[0] = 1.0
    return ClassMoments(e1, -e1, np.eye(d), np.eye(d), prior_pos, 1.0 - prior_pos)


class TestErrorValue:
    def test_identical_classes_give_half(self):
        mu = np.array([0.4, -1.2])
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        m = ClassMoments(mu, mu, sigma, sigma, 0.5, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(size=2)
            assert abs(error_objective(m)(w).value - 0.5) <= 1e-15

    def test_unit_separation_example(self):
        m = _moments_e1()
        w = np.array([1.0, 0.0, 0.0])
        expect = 1.0 - std_normal_cdf(1.0)
        got = error_objective(m)(w).value
        assert abs(got - expect) <= 1e-15
        assert abs(got - 0.15865525393145705) <= 1e-11

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            kw = oracles.random_class_moments(rng, d=4)
            m = ClassMoments(**kw)
            w = rng.normal(size=4)
            assert 0.0 <= error_objective(m)(w).value <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        kw = oracles.random_class_moments(rng, d=5)
        m = ClassMoments(**kw)
        w = rng.normal(size=5)
        base = error_objective(m)(w).value
        for c in (0.5, 2.0, 10.0):
            assert abs(error_objective(m)(c * w).value - base) <= 1e-12 * abs(base)

    def test_degenerate_projection_raises(self):
        m = _moments_e1()
        with pytest.raises(DegenerateProjectionError):
            error_objective(m)(np.zeros(3))

    def test_monte_carlo_agreement_small(self):
        rng = np.random.default_rng(3)
        kw = oracles.random_class_moments(rng, d=5)
        m = ClassMoments(**kw)
        w = rng.normal(size=5)
        closed = error_objective(m)(w).value
        n = 200_000
        emp = oracles.mc_error_rate(w, m, n, np.random.default_rng(99))
        assert abs(emp - closed) <= 4.0 * math.sqrt(closed * (1.0 - closed) / n)


class TestErrorGradient:
    def test_zero_means_give_zero_gradient(self):
        d = 3
        rng = np.random.default_rng(4)
        A = rng.normal(size=(d, d))
        sigma = A @ A.T / d + np.eye(d)
        m = ClassMoments(np.zeros(d), np.zeros(d), sigma, 2.0 * sigma, 0.3, 0.7)
        g = error_objective(m)(rng.normal(size=d)).gradient
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            d = int(rng.integers(2, 11))
            prior = (0.05, 0.35, 0.5)[trial % 3]
            kw = oracles.random_class_moments(rng, d=d, prior_pos=prior)
            m = ClassMoments(**kw)
            w = rng.normal(size=d)
            g = error_objective(m)(w).gradient
            fd = oracles.fd_grad(lambda v: error_objective(m)(v).value, w)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1e-12)

    def test_orthogonal_to_w(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            kw = oracles.random_class_moments(rng, d=6)
            m = ClassMoments(**kw)
            w = rng.normal(size=6)
            g = error_objective(m)(w).gradient
            bound = 1e-10 * np.linalg.norm(w) * np.linalg.norm(g)
            assert abs(w @ g) <= max(bound, 1e-300)


class TestAucValue:
    def test_zero_mu_hat_gives_half(self):
        a = _pair_moments(np.zeros(3), np.eye(3))
        rng = np.random.default_rng(7)
        for _ in range(10):
            assert auc_objective(a)(rng.normal(size=3)).value == 0.5

    def test_unit_separation_example(self):
        a = auc_moments(_moments_e1())
        w = np.array([1.0, 0.0, 0.0])
        expect = std_normal_cdf(-math.sqrt(2.0))
        got = auc_objective(a)(w).value
        assert abs(got - expect) <= 1e-15
        assert abs(got - 0.0786496) <= 1e-7

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        kw = oracles.random_class_moments(rng, d=4)
        a = auc_moments(ClassMoments(**kw))
        w = rng.normal(size=4)
        base = auc_objective(a)(w).value
        for c in (0.5, 2.0, 10.0):
            assert abs(auc_objective(a)(c * w).value - base) <= 1e-12 * abs(base)

    def test_monte_carlo_wmw_agreement(self):
        rng = np.random.default_rng(9)
        kw = oracles.random_class_moments(rng, d=5)
        m = ClassMoments(**kw)
        a = auc_moments(m)
        w = rng.normal(size=5)
        closed = auc_objective(a)(w).value
        emp = oracles.mc_ranking_loss(w, m, 10_000, np.random.default_rng(123))
        assert abs(emp - closed) <= 0.01


class TestAucGradient:
    def test_gradient_at_mu_z_zero(self):
        mu_hat = np.array([0.0, 2.0])
        a = _pair_moments(mu_hat, np.eye(2))
        w = np.array([3.0, 0.0])
        # Sigma-hat term vanishes against the orthogonal complement of w
        # only in the ratio; at mu_Z = 0 the whole Sigma w term drops.
        sigma_w = np.linalg.norm(w)
        expect = mu_hat / (math.sqrt(2.0 * math.pi) * sigma_w)
        got = auc_objective(a)(w).gradient
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)

    def test_gradient_parallel_to_mu_hat_when_orthogonal(self):
        mu_hat = np.array([0.0, 1.5])
        a = _pair_moments(mu_hat, np.eye(2))
        g = auc_objective(a)(np.array([2.0, 0.0])).gradient
        assert g[0] == 0.0
        assert g[1] != 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            d = int(rng.integers(2, 11))
            kw = oracles.random_class_moments(rng, d=d)
            a = auc_moments(ClassMoments(**kw))
            w = rng.normal(size=d)
            g = auc_objective(a)(w).gradient
            fd = oracles.fd_grad(lambda v: auc_objective(a)(v).value, w)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1e-12)

    def test_orthogonal_to_w(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            kw = oracles.random_class_moments(rng, d=5)
            a = auc_moments(ClassMoments(**kw))
            w = rng.normal(size=5)
            g = auc_objective(a)(w).gradient
            bound = 1e-10 * np.linalg.norm(w) * np.linalg.norm(g)
            assert abs(w @ g) <= max(bound, 1e-300)


class TestSaturatedRegime:
    def test_extreme_separation_keeps_values_finite(self):
        d = 2
        m = ClassMoments(
            np.array([1e6, 0.0]),
            np.array([-1e6, 0.0]),
            np.eye(d),
            np.eye(d),
            0.5,
            0.5,
        )
        w = np.array([1.0, 0.0])
        v = error_objective(m)(w).value
        g = error_objective(m)(w).gradient
        assert v == 0.0
        assert np.all(np.isfinite(g))
        a = auc_moments(m)
        assert auc_objective(a)(w).value == 0.0
        assert np.all(np.isfinite(auc_objective(a)(w).gradient))


class TestObjectiveFactories:
    def test_saturated_closures_give_zero_gradient(self):
        d = 2
        m = ClassMoments(np.array([1e6, 0.0]), np.array([-1e6, 0.0]), np.eye(d), np.eye(d), 0.3, 0.7)
        a = auc_moments(m)
        w = np.array([1.0, 0.5])
        assert (w @ m.mu_pos) / np.sqrt(w @ m.sigma_pos @ w) > SATURATION
        for obj in (error_objective(m), auc_objective(a)):
            ev = obj(w)
            assert ev.value == 0.0
            assert np.array_equal(ev.gradient, np.zeros(d))

    def test_zero_weights_raise_through_closures(self):
        m = _moments_e1()
        for obj in (error_objective(m), auc_objective(auc_moments(m))):
            with pytest.raises(DegenerateProjectionError):
                obj(np.zeros(3))


class TestDegenerateSingleTerm:
    """One Gaussian term whose covariance maps w to zero refuses the
    evaluation, whatever the other term would give."""

    # w = e2 lies in the null space of diag(1, 0)
    W = np.array([0.0, 1.0])
    SINGULAR = np.diag([1.0, 0.0])
    MESSAGE = r"^projected standard deviation 0\.000e\+00 is below 1e-12$"

    @pytest.mark.parametrize("singular", ["sigma_neg", "sigma_pos"])
    def test_error_objective_refuses_one_singular_class(self, singular):
        covariances = {"sigma_pos": np.eye(2), "sigma_neg": np.eye(2), singular: self.SINGULAR}
        m = ClassMoments(mu_pos=np.array([1.0, 1.0]), mu_neg=np.array([-1.0, -1.0]),
                         prior_pos=0.4, prior_neg=0.6, **covariances)
        other = "sigma_pos" if singular == "sigma_neg" else "sigma_neg"
        assert float(self.W @ getattr(m, other) @ self.W) == 1.0
        with pytest.raises(DegenerateProjectionError, match=self.MESSAGE):
            error_objective(m)(self.W)

    def test_auc_objective_refuses_a_singular_pair_covariance(self):
        m = ClassMoments(np.array([1.0, 1.0]), np.array([-1.0, -1.0]), self.SINGULAR,
                         self.SINGULAR, 0.5, 0.5)
        pair = auc_moments(m)
        assert not (pair.sigma_hat @ self.W).any()
        with pytest.raises(DegenerateProjectionError, match=self.MESSAGE):
            auc_objective(pair)(self.W)
        # off the null space both objectives evaluate
        w = np.array([1.0, 1.0])
        assert 0.0 <= auc_objective(pair)(w).value <= 1.0
        assert 0.0 <= error_objective(m)(w).value <= 1.0


class TestInPlaceGradients:
    """The direct objectives sum their Gaussian-CDF terms, and build the
    gradients in place, in the operation order of the formulas as first
    written, so values and gradients match those bytes exactly."""

    @staticmethod
    def _case(d):
        rng = np.random.default_rng(d)
        m = ClassMoments(**oracles.random_class_moments(rng, d=d))
        points = [rng.normal(size=d) for _ in range(3)] + [m.mu_pos.copy(), m.mu_neg.copy()]
        return m, auc_moments(m), points

    @staticmethod
    def _assert_matches(ev, value, gradient):
        assert np.float64(ev.value).tobytes() == np.float64(value).tobytes()
        assert ev.gradient.tobytes() == gradient.tobytes()

    @pytest.mark.parametrize("d", [5, 50, 800])
    def test_gradients_match_the_formulas_as_first_written(self, d):
        m, pair, points = self._case(d)
        error, auc = error_objective(m), auc_objective(pair)
        for w in points:
            self._assert_matches(error(w), oracles.error_value_as_first_written(m, w),
                                 oracles.error_gradient_as_first_written(m, w))
            self._assert_matches(auc(w), oracles.auc_value_as_first_written(pair, w),
                                 oracles.auc_gradient_as_first_written(pair, w))

    def test_saturated_class_matches_the_formulas_as_first_written(self):
        # one class's density underflows to 0, the other's does not
        m = ClassMoments(np.array([1e6, 0.0]), np.array([0.5, 0.25]), np.eye(2), np.eye(2),
                         0.3, 0.7)
        w = np.array([1.0, 0.5])
        self._assert_matches(error_objective(m)(w), oracles.error_value_as_first_written(m, w),
                             oracles.error_gradient_as_first_written(m, w))

    def test_earlier_gradients_and_the_callers_w_are_not_written(self):
        m, pair, points = self._case(50)
        for objective in (error_objective(m), auc_objective(pair)):
            kept = []
            for w in points:
                before = w.tobytes()
                gradient = objective(w).gradient
                kept.append((gradient, gradient.tobytes()))
                assert w.tobytes() == before
            for w in reversed(points):
                objective(w).gradient
            assert all(gradient.tobytes() == first for gradient, first in kept)
