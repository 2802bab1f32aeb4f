"""Standard normal CDF and density.

These two scalars are the only transcendental pieces the closed-form
objectives need.  The CDF goes through the complementary error function,
which keeps full double precision in both tails and reaches exact 0 and 1
far out in them without a clamp.
"""

from __future__ import annotations

import math

__all__ = ["std_normal_cdf", "std_normal_pdf"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """P(N(0,1) <= x).  Accurate to a few ulp over the whole real line."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"std_normal_cdf requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


def std_normal_pdf(x: float) -> float:
    """Density of N(0,1) at x."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"std_normal_pdf requires a finite argument, got {x!r}")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)
