"""Linear classifier container and its on-disk text format."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, _read_key_values, _write_key_values

__all__ = ["LinearModel", "save_model", "load_model"]


@dataclass(frozen=True)
class LinearModel:
    """Classifier scoring x -> w'x + intercept; the predicted label is its sign."""

    w: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError(f"w must be a 1-d vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("w contains non-finite entries")
        intercept = float(self.intercept)
        if not np.isfinite(intercept):
            raise ValueError(f"intercept must be finite, got {intercept!r}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "intercept", intercept)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Decision values for a (n, d) feature matrix."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.dim:
            raise ValueError(
                f"features must have shape (n, {self.dim}), got {features.shape}"
            )
        return features @ self.w + self.intercept


def save_model(model: LinearModel, path) -> None:
    """Write a model as plain text with full round-trip precision."""
    _write_key_values(path, d=model.dim, intercept=model.intercept, w=model.w)


def load_model(path) -> LinearModel:
    """Read a model written by save_model."""

    def parse(fields):
        return (int(fields["d"]), float(fields["intercept"]),
                np.array([float(tok) for tok in fields["w"].split()], dtype=float))

    d, intercept, w = _read_key_values(path, "model", parse)
    if w.shape[0] != d:
        raise ParseError(f"model file declares d={d} but has {w.shape[0]} weights")
    return LinearModel(w=w, intercept=intercept)
