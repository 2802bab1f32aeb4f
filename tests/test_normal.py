"""Tests for the standard normal CDF the direct objectives use."""

import math

import numpy as np
import pytest

from momentclf import std_normal_cdf

import oracles

# erfc returns an exact CDF of 0 or 1 from about |x| = 38.5 on
SATURATION = 40.0


def _pdf(x):
    """Standard normal density, written out here rather than taken from the package."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_cdf_at_zero_is_exactly_half():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_tail_saturation_near_one():
    assert abs(std_normal_cdf(10.0) - 1.0) <= 1e-15


def test_cdf_at_one_matches_quadrature_value():
    # Independently derived via composite Gauss-Legendre quadrature.
    assert abs(std_normal_cdf(1.0) - 0.8413447460685429) <= 1e-15


def test_cdf_matches_quadrature_oracle_on_grid():
    xs = np.linspace(-8.0, 8.0, 257)
    worst = max(abs(std_normal_cdf(float(x)) - oracles.quad_phi(float(x))) for x in xs)
    assert worst <= 1e-12


def test_cdf_symmetry_on_dense_grid():
    xs = np.linspace(-8.0, 8.0, 1001)
    for x in xs:
        assert abs(std_normal_cdf(float(x)) + std_normal_cdf(float(-x)) - 1.0) <= 1e-12


def test_cdf_monotone_nondecreasing():
    xs = np.linspace(-45.0, 45.0, 2001)
    vals = [std_normal_cdf(float(x)) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cdf_saturates_exactly_beyond_threshold():
    assert std_normal_cdf(SATURATION + 1.0) == 1.0
    assert std_normal_cdf(-(SATURATION + 1.0)) == 0.0
    # so the direct objectives need no clamp on their ratio: from the
    # threshold on, value and gradient are the same bits as at it
    assert std_normal_cdf(SATURATION) == 1.0
    assert std_normal_cdf(-SATURATION) == 0.0
    assert _pdf(SATURATION) == 0.0
    assert std_normal_cdf(1e308) == 1.0
    assert std_normal_cdf(-1e308) == 0.0


def test_cdf_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)


def test_finite_difference_of_cdf_matches_pdf():
    # Central difference of the CDF recovers the density to 1e-6 relative
    # for |x| <= 6.  The difference is formed at -|x|: the density is even,
    # and on the lower tail the CDF values are small enough that the
    # subtraction keeps its leading digits (near CDF ~ 1 rounding to double
    # would swamp a ~3e-11 difference).
    h = 1e-5
    for x in np.linspace(-6.0, 6.0, 121):
        lo = -abs(float(x))
        fd = (std_normal_cdf(lo + h) - std_normal_cdf(lo - h)) / (2.0 * h)
        ref = _pdf(lo)
        assert abs(fd - ref) <= 1e-6 * abs(ref)


def test_cdf_lives_in_objectives_and_is_exported_once():
    import momentclf
    from momentclf import objectives

    assert std_normal_cdf is objectives.std_normal_cdf
    assert momentclf.__all__.count("std_normal_cdf") == 1
    for name in momentclf.__all__:
        getattr(momentclf, name)


def test_retired_names_stay_gone():
    import importlib.util

    import momentclf

    for name in ("AucMoments", "NormalizationStats", "std_normal_pdf"):
        assert name not in momentclf.__all__ and not hasattr(momentclf, name), name
    assert importlib.util.find_spec("momentclf.normal") is None
    # both direct objectives evaluate through one Gaussian-CDF evaluator
    for module, name in ((momentclf.objectives, "_projector"),
                         (momentclf.objectives, "_cdf_chain_gradient"),
                         (momentclf.surrogates, "_stable_sigmoid")):
        assert not hasattr(module, name), name
    assert "SIGMA_EPS" in momentclf.objectives.__all__
    assert "SIGMA_EPS" not in momentclf.moments.__all__
    assert momentclf.SIGMA_EPS == 1e-12


def test_package_exports_each_module_list_once():
    import momentclf
    from momentclf import (data, errors, harness, metrics, model, moments, objectives,
                           optimizer, surrogates)

    modules = (errors, moments, model, objectives, surrogates, optimizer, metrics, data, harness)
    names = [name for module in modules for name in module.__all__] + ["__version__"]
    assert len(set(names)) == len(names)
    assert sorted(momentclf.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(momentclf, name) is getattr(module, name), name
    # harness helpers the CLI shares stay in their module
    for name in ("fit", "load_source", "REPORT_HEADER"):
        assert hasattr(harness, name) and not hasattr(momentclf, name), name
