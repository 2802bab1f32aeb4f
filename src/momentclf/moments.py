"""Gaussian moment models: estimated from labeled data or supplied exactly.

The training objectives never touch raw samples; they consume these
containers, which is what makes their evaluation cost independent of
sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateModelError,
    InsufficientDataError,
    InvalidModelError,
)

if TYPE_CHECKING:
    from .data import Dataset

__all__ = [
    "ClassMoments",
    "estimate_class_moments",
    "auc_moments",
]

_SYM_RTOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _symmetrized(s: np.ndarray) -> np.ndarray:
    """(s + s') / 2 as a fresh read-only matrix, built in one buffer."""
    out = s + s.T
    out *= 0.5
    out.setflags(write=False)
    return out


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise InvalidModelError(f"{name} contains non-finite entries")


def _check_vector(name: str, v: np.ndarray) -> None:
    if v.ndim != 1 or v.shape[0] < 1:
        raise InvalidModelError(f"{name} must be a 1-d vector, got shape {v.shape}")
    _check_finite(name, v)


def _check_covariance(name: str, s: np.ndarray, d: int) -> None:
    if s.shape != (d, d):
        raise InvalidModelError(f"{name} must have shape ({d}, {d}), got {s.shape}")
    _check_finite(name, s)
    scale = max(float(s.max()), -float(s.min())) or 1.0
    asymmetry = s - s.T
    np.abs(asymmetry, out=asymmetry)
    if asymmetry.max() > _SYM_RTOL * scale:
        raise InvalidModelError(f"{name} is not symmetric")


def _built(cls, **fields):
    """Construct a moment container from arrays this module just computed.

    They are fresh float64 arrays of the right shapes that no caller holds,
    and their covariances are exactly symmetric, so the public constructor's
    symmetry check, re-symmetrization and copy could not change them.  They
    are checked for finiteness and frozen in place instead.  Priors are
    not checked: estimate_class_moments and gen_gaussian derive them from
    inputs already checked (class counts of at least 2, a GaussianSpec's
    prior_pos in (0, 1)), so they lie in (0, 1) and sum to 1 within
    rounding.  The exact symmetry comes from how the covariances are
    built: numpy computes a product X' @ X of one buffer with a symmetric
    rank-k update (BLAS syrk), which fills both triangles from the same
    values, and sums and scalings of such matrices stay symmetric.
    """
    out = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            _check_finite(name, value)
            value.setflags(write=False)
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True)
class ClassMoments:
    """Per-class mean vectors and covariance matrices plus the class priors.

    Covariances are stored exactly symmetrized and all arrays are read-only,
    so a model cannot drift after construction.  The constructor validates
    its input and stores copies; estimate_class_moments and gen_gaussian
    skip the symmetrization and the copies for the arrays they have just
    built.  n_samples is the number of rows estimate_class_moments used;
    it is None for exact moments and cannot be passed to the constructor.
    """

    mu_pos: np.ndarray
    mu_neg: np.ndarray
    sigma_pos: np.ndarray
    sigma_neg: np.ndarray
    prior_pos: float
    prior_neg: float
    n_samples: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mu_pos = np.asarray(self.mu_pos, dtype=float)
        mu_neg = np.asarray(self.mu_neg, dtype=float)
        sigma_pos = np.asarray(self.sigma_pos, dtype=float)
        sigma_neg = np.asarray(self.sigma_neg, dtype=float)
        _check_vector("mu_pos", mu_pos)
        _check_vector("mu_neg", mu_neg)
        d = mu_pos.shape[0]
        if mu_neg.shape[0] != d:
            raise InvalidModelError(
                f"mean dimensions disagree: {d} vs {mu_neg.shape[0]}"
            )
        _check_covariance("sigma_pos", sigma_pos, d)
        _check_covariance("sigma_neg", sigma_neg, d)
        prior_pos = float(self.prior_pos)
        prior_neg = float(self.prior_neg)
        if not (0.0 < prior_pos < 1.0 and 0.0 < prior_neg < 1.0):
            raise InvalidModelError(
                f"priors must lie strictly inside (0, 1), got {prior_pos}, {prior_neg}"
            )
        if abs(prior_pos + prior_neg - 1.0) > 1e-12:
            raise InvalidModelError(
                f"priors must sum to 1 within 1e-12, got {prior_pos + prior_neg!r}"
            )
        object.__setattr__(self, "mu_pos", _readonly(mu_pos))
        object.__setattr__(self, "mu_neg", _readonly(mu_neg))
        object.__setattr__(self, "sigma_pos", _symmetrized(sigma_pos))
        object.__setattr__(self, "sigma_neg", _symmetrized(sigma_neg))
        object.__setattr__(self, "prior_pos", prior_pos)
        object.__setattr__(self, "prior_neg", prior_neg)

    @property
    def dim(self) -> int:
        return self.mu_pos.shape[0]


@dataclass(frozen=True)
class AucMoments:
    """Moments of the pair difference X- minus X+ used by the ranking objective.

    Only auc_moments builds one, from ClassMoments that are already
    checked; the constructor validates nothing.
    """

    mu_hat: np.ndarray
    sigma_hat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mu_hat.shape[0]


def estimate_class_moments(dataset: Dataset) -> ClassMoments:
    """Empirical per-class moments of a labeled dataset.

    Means are sample means, covariances use the (n_class - 1) denominator,
    priors are the empirical class fractions.  Each class must contribute
    at least two samples or the covariance is undefined.
    """
    X = dataset.features
    out = {}
    for label, tag, index in ((1, "pos", dataset.pos_index), (-1, "neg", dataset.neg_index)):
        Xc = X[index]
        if Xc.shape[0] < 2:
            raise InsufficientDataError(
                f"class {label:+d} has {Xc.shape[0]} samples; need at least 2"
            )
        mu = Xc.mean(axis=0)
        # Xc is a fresh copy of the class rows, so it is centered in place
        Xc -= mu
        sigma = Xc.T @ Xc
        del Xc
        sigma /= index.shape[0] - 1
        out[f"mu_{tag}"] = mu
        out[f"sigma_{tag}"] = sigma
        out[f"prior_{tag}"] = index.shape[0] / X.shape[0]
    return _built(ClassMoments, n_samples=X.shape[0], **out)


def auc_moments(moments: ClassMoments) -> AucMoments:
    """Moments of the pair difference Z = w'(X- - X+) building block.

    mu_hat = mu_neg - mu_pos and sigma_hat = sigma_neg + sigma_pos: the
    pair model draws the positive and the negative independently.
    """
    # A sum of two exactly symmetric matrices is exactly symmetric.
    return _built(
        AucMoments,
        mu_hat=moments.mu_neg - moments.mu_pos,
        sigma_hat=moments.sigma_neg + moments.sigma_pos,
    )


def _mean_difference(moments: ClassMoments) -> np.ndarray:
    """mu_pos - mu_neg; DegenerateModelError when the class means coincide."""
    diff = moments.mu_pos - moments.mu_neg
    if float(np.linalg.norm(diff)) < 1e-12:
        raise DegenerateModelError("class means coincide; no direction separates them")
    return diff
