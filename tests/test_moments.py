"""Tests for moment containers and estimators."""

import math

import numpy as np
import pytest

from momentclf import (
    SIGMA_EPS,
    ClassMoments,
    Dataset,
    DegenerateProjectionError,
    GaussianSpec,
    InsufficientDataError,
    InvalidModelError,
    auc_moments,
    auc_objective,
    error_objective,
    estimate_class_moments,
    gen_gaussian,
    hinge_objective,
    load_moments,
    logistic_objective,
    normalize_zscore,
    save_moments,
    std_normal_cdf,
)
from momentclf.harness import _zscored
from momentclf.objectives import ObjectiveEval, _checked

import oracles


def _simple_moments(d=2):
    return ClassMoments(
        mu_pos=np.zeros(d) + 1.0,
        mu_neg=np.zeros(d) - 1.0,
        sigma_pos=np.eye(d),
        sigma_neg=np.eye(d),
        prior_pos=0.5,
        prior_neg=0.5,
    )


class TestClassMomentsValidation:
    def test_accepts_valid_model(self):
        m = _simple_moments()
        assert m.dim == 2
        assert m.prior_neg == 0.5

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidModelError):
            ClassMoments(np.ones(2), np.ones(3), np.eye(2), np.eye(2), 0.5, 0.5)

    def test_rejects_covariance_shape_mismatch(self):
        with pytest.raises(InvalidModelError):
            ClassMoments(np.ones(2), np.ones(2), np.eye(3), np.eye(2), 0.5, 0.5)

    def test_rejects_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(InvalidModelError):
            ClassMoments(np.ones(2), np.ones(2), bad, np.eye(2), 0.5, 0.5)

    def test_rejects_priors_not_summing_to_one(self):
        with pytest.raises(InvalidModelError):
            ClassMoments(np.ones(2), -np.ones(2), np.eye(2), np.eye(2), 0.6, 0.5)

    def test_rejects_boundary_priors(self):
        with pytest.raises(InvalidModelError):
            ClassMoments(np.ones(2), -np.ones(2), np.eye(2), np.eye(2), 1.0, 0.0)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InvalidModelError):
            ClassMoments(np.array([np.nan, 0.0]), np.ones(2), np.eye(2), np.eye(2), 0.5, 0.5)

    def test_arrays_are_read_only(self):
        m = _simple_moments()
        with pytest.raises(ValueError):
            m.mu_pos[0] = 9.0
        with pytest.raises(ValueError):
            m.sigma_pos[0, 0] = 9.0


class TestEstimateClassMoments:
    def test_hand_computed_one_dimensional_example(self):
        ds = Dataset(
            features=np.array([[0.0], [2.0], [-1.0], [-3.0]]),
            labels=np.array([1, 1, -1, -1]),
        )
        m = estimate_class_moments(ds)
        assert m.mu_pos[0] == 1.0
        assert m.mu_neg[0] == -2.0
        # (n-1) denominator: var({0,2}) = var({-1,-3}) = 2
        assert m.sigma_pos[0, 0] == 2.0
        assert m.sigma_neg[0, 0] == 2.0
        assert m.prior_pos == 0.5

    def test_identical_points_give_zero_covariance(self):
        ds = Dataset(
            features=np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [4.0, 4.0]]),
            labels=np.array([1, 1, -1, -1]),
        )
        m = estimate_class_moments(ds)
        assert np.all(m.sigma_pos == 0.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 3))
        y = np.where(rng.random(50) < 0.6, 1, -1)
        y[:2] = 1
        y[2:4] = -1
        ds = Dataset(features=X, labels=y)
        m = estimate_class_moments(ds)
        mu_p, sig_p = oracles.two_pass_moments(X[y == 1])
        mu_n, sig_n = oracles.two_pass_moments(X[y == -1])
        assert np.allclose(m.mu_pos, mu_p, rtol=1e-12, atol=0.0)
        assert np.allclose(m.sigma_pos, sig_p, rtol=1e-12, atol=1e-15)
        assert np.allclose(m.mu_neg, mu_n, rtol=1e-12, atol=0.0)
        assert np.allclose(m.sigma_neg, sig_n, rtol=1e-12, atol=1e-15)
        assert m.prior_pos == float(np.sum(y == 1)) / 50.0

    def test_single_sample_class_is_insufficient(self):
        ds = Dataset(
            features=np.array([[0.0], [1.0], [2.0]]),
            labels=np.array([1, -1, -1]),
        )
        with pytest.raises(InsufficientDataError):
            estimate_class_moments(ds)

    def test_recovers_known_gaussian_moments(self):
        rng = np.random.default_rng(5)
        n = 10**5
        d = 3
        mu_p = np.array([1.0, -2.0, 0.5])
        mu_n = np.array([-1.0, 0.0, 2.0])
        X = np.vstack([rng.normal(size=(n, d)) + mu_p, rng.normal(size=(n, d)) + mu_n])
        y = np.concatenate([np.ones(n, dtype=int), -np.ones(n, dtype=int)])
        m = estimate_class_moments(Dataset(features=X, labels=y))
        tol = 4.0 / np.sqrt(n)
        assert np.all(np.abs(m.mu_pos - mu_p) <= tol)
        assert np.all(np.abs(m.mu_neg - mu_n) <= tol)
        assert m.prior_pos == 0.5


class TestAucMoments:
    def test_direct_substitution_example(self):
        d = 3
        e1 = np.zeros(d)
        e1[0] = 1.0
        m = ClassMoments(e1, -e1, np.eye(d), np.eye(d), 0.5, 0.5)
        a = auc_moments(m)
        assert np.array_equal(a.mu_hat, -2.0 * e1)
        assert np.array_equal(a.sigma_hat, 2.0 * np.eye(d))

    def test_identical_classes_give_zero_mu_hat(self):
        mu = np.array([0.3, -0.7])
        m = ClassMoments(mu, mu, np.eye(2), np.eye(2), 0.4, 0.6)
        assert np.all(auc_moments(m).mu_hat == 0.0)

    def test_output_symmetric_for_random_spd_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            kw = oracles.random_class_moments(rng, d=4)
            a = auc_moments(ClassMoments(**kw))
            assert np.max(np.abs(a.sigma_hat - a.sigma_hat.T)) <= 1e-14

    def test_sigma_hat_nearly_psd_for_random_unit_directions(self):
        rng = np.random.default_rng(17)
        kw = oracles.random_class_moments(rng, d=5)
        a = auc_moments(ClassMoments(**kw))
        for _ in range(100):
            v = rng.normal(size=5)
            v /= np.linalg.norm(v)
            assert v @ a.sigma_hat @ v >= -1e-10


class TestBuiltMoments:
    """Moments the package builds itself skip re-validation but not its guarantees."""

    def _estimated(self, d=20, n=120):
        rng = np.random.default_rng(31)
        y = np.where(np.arange(n) % 3 == 0, 1, -1)
        return estimate_class_moments(Dataset(features=rng.normal(size=(n, d)) + y[:, None], labels=y))

    def test_estimated_moments_frozen_symmetric_and_as_constructed(self):
        m = self._estimated()
        ref = ClassMoments(m.mu_pos, m.mu_neg, m.sigma_pos, m.sigma_neg, m.prior_pos, m.prior_neg)
        for name in ("mu_pos", "mu_neg", "sigma_pos", "sigma_neg"):
            built = getattr(m, name)
            assert not built.flags.writeable
            assert np.array_equal(built, getattr(ref, name))
        assert np.array_equal(m.sigma_pos, m.sigma_pos.T)
        assert np.array_equal(m.sigma_neg, m.sigma_neg.T)
        assert (m.prior_pos, m.prior_neg) == (ref.prior_pos, ref.prior_neg)
        with pytest.raises(ValueError):
            m.sigma_pos[0, 1] = 9.0

    def test_only_estimated_moments_know_their_sample_count(self, tmp_path):
        ds, exact = gen_gaussian(GaussianSpec(d=3, n=90, prior_pos=0.4, seed=4))
        assert estimate_class_moments(ds).n_samples == ds.n == 90
        assert exact.n_samples is None
        save_moments(exact, tmp_path / "exact.moments")
        assert load_moments(tmp_path / "exact.moments").n_samples is None
        _, stats = normalize_zscore(ds)
        assert _zscored(exact, stats).n_samples is None
        assert _simple_moments().n_samples is None
        with pytest.raises(TypeError):
            ClassMoments(np.ones(2), -np.ones(2), np.eye(2), np.eye(2), 0.5, 0.5, n_samples=9)

    def test_auc_moments_frozen_symmetric_and_as_constructed(self):
        # AucMoments validates nothing; auc_moments is its only builder, and
        # these are the moments the package hands it: estimated, generated
        # and z-scored, besides moments from the checking constructor
        ds, exact = gen_gaussian(GaussianSpec(d=7, n=120, prior_pos=0.4, seed=8))
        _, stats = normalize_zscore(ds)
        for m in (self._estimated(), estimate_class_moments(ds), exact, _zscored(exact, stats),
                  _zscored(estimate_class_moments(ds), stats), _simple_moments(3)):
            a = auc_moments(m)
            assert np.array_equal(a.mu_hat, m.mu_neg - m.mu_pos)
            assert np.array_equal(a.sigma_hat, m.sigma_neg + m.sigma_pos)
            assert np.array_equal(a.sigma_hat, a.sigma_hat.T)
            assert np.all(np.isfinite(a.mu_hat)) and np.all(np.isfinite(a.sigma_hat))
            assert a.dim == m.dim
            for array in (a.mu_hat, a.sigma_hat):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 9.0

    def test_overflowing_estimate_rejected(self):
        ds = Dataset(
            features=np.array([[1e200], [-1e200], [0.0], [1.0]]),
            labels=np.array([1, 1, -1, -1]),
        )
        with np.errstate(over="ignore"), pytest.raises(
            InvalidModelError, match="sigma_pos contains non-finite entries"
        ):
            estimate_class_moments(ds)

    def test_asymmetric_auc_moments_rejected(self):
        # auc_moments is the only builder of pair moments; an asymmetric
        # covariance on either side is stopped before it can reach one
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        for name in ("sigma_pos", "sigma_neg"):
            fields = dict(mu_pos=np.ones(2), mu_neg=-np.ones(2), sigma_pos=np.eye(2),
                          sigma_neg=np.eye(2), prior_pos=0.5, prior_neg=0.5)
            fields[name] = bad
            with pytest.raises(InvalidModelError, match=f"{name} is not symmetric"):
                auc_moments(ClassMoments(**fields))

    def test_non_finite_auc_mean_rejected(self):
        # a non-finite class mean on either side is stopped before its
        # difference can become mu_hat
        for name in ("mu_pos", "mu_neg"):
            fields = dict(mu_pos=np.ones(2), mu_neg=-np.ones(2), sigma_pos=np.eye(2),
                          sigma_neg=np.eye(2), prior_pos=0.5, prior_neg=0.5)
            fields[name] = np.array([np.inf, 0.0])
            with pytest.raises(InvalidModelError, match="non-finite"):
                auc_moments(ClassMoments(**fields))

    def test_asymmetric_sidecar_rejected(self, tmp_path):
        path = tmp_path / "asym.moments"
        path.write_text(
            "d 2\nprior_pos 0.5\nprior_neg 0.5\nmu_pos 1.0 0.0\nmu_neg -1.0 0.0\n"
            "sigma_pos 1.0 0.5 0.1 1.0\nsigma_neg 1.0 0.0 0.0 1.0\n"
        )
        with pytest.raises(InvalidModelError, match="sigma_pos is not symmetric"):
            load_moments(path)


class TestProjectedStats:
    """The projection the direct objectives make, (w'mu / sd, sd, Sw) per
    Gaussian, seen through their public factories."""

    def test_coordinate_projection(self):
        # w = e1 reads each mean's first coordinate: ratios 3 and -3, sd 1, Sw = e1
        w = np.array([1.0, 0.0])
        dens = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
        pair = auc_moments(ClassMoments(np.zeros(2), np.array([3.0, 2.0]), 0.5 * np.eye(2),
                                        0.5 * np.eye(2), 0.5, 0.5))
        auc = auc_objective(pair)(w)
        assert auc.value == std_normal_cdf(3.0)
        # dens * (sd * mu - ratio * Sw) / sd^2 = dens * ([3, 2] - 3 e1)
        assert auc.gradient[0] == 0.0
        assert auc.gradient[1] == pytest.approx(2.0 * dens, rel=1e-15)
        m = ClassMoments(np.array([3.0, 2.0]), np.array([-3.0, 2.0]), np.eye(2), np.eye(2),
                         0.25, 0.75)
        error = error_objective(m)(w)
        assert error.value == 0.25 * (1.0 - std_normal_cdf(3.0)) + 0.75 * std_normal_cdf(-3.0)
        # both classes' chain gradients are dens * [0, 2]; 0.75 of one less 0.25 of the other
        assert error.gradient[0] == 0.0
        assert error.gradient[1] == pytest.approx(dens, rel=1e-15)

    def test_zero_vector_is_degenerate(self):
        m = _simple_moments()
        for objective in (error_objective(m), auc_objective(auc_moments(m))):
            with pytest.raises(DegenerateProjectionError):
                objective(np.zeros(2))

    def test_threshold_uses_sigma_eps(self):
        # unit class variances: sd is |w| per class and sqrt(2) |w| for the pair
        m = _simple_moments(1)
        for objective in (error_objective(m), auc_objective(auc_moments(m))):
            with pytest.raises(DegenerateProjectionError, match=r"e-13 is below 1e-12$"):
                objective(np.array([SIGMA_EPS / 10.0]))
            assert 0.0 <= objective(np.array([SIGMA_EPS * 10.0])).value <= 1.0

    def test_factories_check_w_on_every_call(self):
        data = Dataset(np.array([[1.0, 0.5], [-1.0, 0.0], [0.5, -1.0]]), np.array([1, -1, -1]))
        direct = (error_objective(_simple_moments(2)),
                  auc_objective(auc_moments(_simple_moments(2))))
        for objective in direct + (logistic_objective(data, 0.1), hinge_objective(data)):
            with pytest.raises(ValueError, match=r"w must have shape \(2,\), got \(3,\)"):
                objective(np.ones(3))
            with pytest.raises(ValueError, match=r"w must have shape \(2,\), got \(1, 2\)"):
                objective(np.ones((1, 2)))
            # a NaN w used to give the surrogates a NaN value and a RuntimeWarning
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="w contains non-finite entries"):
                    objective(np.array([1.0, bad]))
        for objective in direct:
            assert 0.0 <= objective([1, 0]).value <= 1.0

    def test_finite_w_whose_sums_overflow_passes_the_check(self):
        # every entry is finite, but sum(w) and w'w overflow, so the cheap
        # test fails and the entrywise one must let w through; the means and
        # features are small enough that each objective then evaluates
        moments = ClassMoments(np.full(2, 1e-10), np.full(2, -1e-10), np.eye(2), np.eye(2),
                               0.5, 0.5)
        data = Dataset(1e-10 * np.array([[1.0, 0.5], [-1.0, 0.0], [0.5, -1.0]]),
                       np.array([1, -1, -1]))
        w = np.array([1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(w.sum()) and not np.isfinite(w @ w)
            for objective in (error_objective(moments), auc_objective(auc_moments(moments)),
                              logistic_objective(data, 0.0), hinge_objective(data)):
                assert isinstance(objective(w), ObjectiveEval)
                assert _checked(w, 2) is w

    @pytest.mark.parametrize("w", [[np.inf, -np.inf], [-np.inf, np.inf, 1.0], [np.nan, 1.0, 2.0],
                                   [1.0, -np.nan, np.inf], [1e308, 1e308, np.inf]])
    def test_non_finite_w_is_refused_whatever_its_sum(self, w):
        # sums of these are NaN (inf - inf, NaN) or inf; so is w'w
        d = len(w)
        data = Dataset(np.eye(d), np.array([1] + [-1] * (d - 1)))
        objectives = (error_objective(_simple_moments(d)),
                      auc_objective(auc_moments(_simple_moments(d))),
                      logistic_objective(data, 0.1), hinge_objective(data))
        with np.errstate(over="ignore", invalid="ignore"):
            for objective in objectives:
                with pytest.raises(ValueError, match="^w contains non-finite entries$"):
                    objective(np.array(w))

    def test_matches_double_loop_quadratic_form(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = 4
            m = ClassMoments(**oracles.random_class_moments(rng, d=d))
            pair = auc_moments(m)
            w = rng.normal(size=d)
            terms = []
            for mu, sigma in ((m.mu_pos, m.sigma_pos), (m.mu_neg, m.sigma_neg),
                              (pair.mu_hat, pair.sigma_hat)):
                mu_ref = sum(w[i] * mu[i] for i in range(d))
                sw_ref = np.array([sum(sigma[i, j] * w[j] for j in range(d)) for i in range(d)])
                sd_ref = math.sqrt(sum(w[i] * sw_ref[i] for i in range(d)))
                ratio = mu_ref / sd_ref
                dens = math.exp(-0.5 * ratio * ratio) / math.sqrt(2.0 * math.pi)
                terms.append((std_normal_cdf(ratio),
                              dens * (sd_ref * mu - ratio * sw_ref) / (sd_ref * sd_ref)))
            (cdf_pos, g_pos), (cdf_neg, g_neg), (cdf_pair, g_pair) = terms
            for ev, value, gradient in (
                    (error_objective(m)(w), m.prior_pos * (1.0 - cdf_pos) + m.prior_neg * cdf_neg,
                     m.prior_neg * g_neg - m.prior_pos * g_pos),
                    (auc_objective(pair)(w), cdf_pair, g_pair)):
                assert abs(ev.value - value) <= 1e-12
                scale = float(np.linalg.norm(gradient))
                assert np.max(np.abs(ev.gradient - gradient)) <= 1e-12 * scale

    def test_homogeneity_in_w(self):
        # scaling w by c > 0 keeps the value and divides the gradient by c;
        # negating w flips every term's tail, phi(-r) = 1 - phi(r), so the
        # value becomes one minus itself and the gradient is unchanged
        rng = np.random.default_rng(29)
        for _ in range(25):
            m = ClassMoments(**oracles.random_class_moments(rng, d=4))
            w = rng.normal(size=4)
            for objective in (error_objective(m), auc_objective(auc_moments(m))):
                base = objective(w)
                scale = float(np.linalg.norm(base.gradient))
                for c in (-3.0, 0.5, 2.0):
                    scaled = objective(c * w)
                    expect = base.value if c > 0 else 1.0 - base.value
                    assert abs(scaled.value - expect) <= 1e-12
                    assert (np.max(np.abs(abs(c) * scaled.gradient - base.gradient))
                            <= 1e-12 * scale)
