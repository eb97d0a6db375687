"""Binary entropy in natural-log units, with the one-sided linear envelopes
used by the grid certifier.

Because H is concave, the secant over an interval lies below H on that
interval, and any tangent lies above H on all of [0, 1].  Both envelopes are
exposed twice: as :class:`LinearBound` objects for scalar use, and as
coefficient pairs (`chord_coefficients`, `tangent_coefficients`) that operate
elementwise on numpy arrays so grid scans stay vectorized.

Everything evaluated on a Python number needs only :mod:`math`.  The array
and mpmath functions live in :mod:`superconc._entropy_numeric`, which imports
numpy, scipy.special and mpmath; this module loads it on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "entropy",
    "entropy_slope",
    "entropy_mp",
    "LinearBound",
    "chord_lower",
    "tangent_upper",
    "chord_coefficients",
    "tangent_coefficients",
    "log_binomial",
    "stirling_gap",
]


def _xlogx(x: float) -> float:
    return x * math.log(x) if x else 0.0


def entropy(x):
    """-x*ln(x) - (1-x)*ln(1-x) for x in [0, 1]; zero at both endpoints.

    Accepts a scalar or a numpy array; scalar input returns a plain float.
    Values outside [0, 1] are rejected.  A Python int or float is evaluated
    with math.log, bit-equal to the array path (scipy's xlogy).
    """
    if not isinstance(x, (int, float)):
        from ._entropy_numeric import entropy_array

        return entropy_array(x)
    x = float(x)
    if x < 0.0 or x > 1.0:
        raise ValueError(f"entropy argument outside [0, 1]: {x!r}")
    return -_xlogx(x) - _xlogx(1.0 - x)


def entropy_slope(m: float) -> float:
    """Derivative ln((1-m)/m) of the entropy at m, defined on (0, 1)."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"entropy slope undefined at {m!r}")
    return math.log((1.0 - m) / m)


@dataclass(frozen=True)
class LinearBound:
    """Affine one-sided bound on the entropy.

    side="lower": intercept + slope*x <= H(x) for all x in [lo, hi].
    side="upper": intercept + slope*x >= H(x) for all x in [0, 1].
    """

    intercept: float
    slope: float
    lo: float
    hi: float
    side: str

    def __call__(self, x):
        return self.intercept + self.slope * x


def chord_lower(lo: float, hi: float) -> LinearBound:
    """Secant of H over [lo, hi]; below H on the interval by concavity.

    A degenerate interval gives the constant H(lo).
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"chord interval [{lo}, {hi}] not inside [0, 1]")
    h_lo = entropy(lo)
    if hi == lo:
        return LinearBound(h_lo, 0.0, lo, hi, "lower")
    slope = (entropy(hi) - h_lo) / (hi - lo)
    return LinearBound(h_lo - slope * lo, slope, lo, hi, "lower")


def tangent_upper(lo: float, hi: float) -> LinearBound:
    """Tangent of H at the midpoint of [lo, hi]; above H on all of [0, 1].

    Rejected when the midpoint is 0 or 1, where the tangent is undefined.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"tangent interval [{lo}, {hi}] not inside [0, 1]")
    m = 0.5 * (lo + hi)
    if not 0.0 < m < 1.0:
        raise ValueError(f"tangent undefined at midpoint {m}")
    slope = entropy_slope(m)
    return LinearBound(entropy(m) - slope * m, slope, lo, hi, "upper")


def log_binomial(n: int, k: int) -> float:
    """Natural log of C(n, k), stable up to n of a million and beyond.

    Out-of-range k follows the convention C(n, k) = 0 and returns -inf.
    """
    if n < 0:
        raise ValueError(f"negative n: {n}")
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def stirling_gap(n: int, k: int) -> float:
    """|log C(n, k)/n - H(k/n)|, the per-symbol error of the entropy estimate."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    return abs(log_binomial(n, k) / n - entropy(k / n))


_NUMERIC = ("entropy_mp", "chord_coefficients", "tangent_coefficients")


def __getattr__(name):
    # PEP 562: the numpy/mpmath functions load on first access
    if name in _NUMERIC:
        from . import _entropy_numeric

        return getattr(_entropy_numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
