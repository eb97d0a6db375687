"""Binary entropy in natural-log units, with the one-sided linear envelopes
used by the grid certifier.

Because H is concave, a line that passes below H at both ends of an interval
stays below H on it, and a line whose intercept is at least ln(1 + e^(-b))
for its slope b lies above H on all of [0, 1].  The envelopes are coefficient
pairs (`chord_coefficients`, `tangent_coefficients`) that operate elementwise
on numpy arrays, so grid scans stay vectorized, and each holds in float64
with its own rounding accounted for; `entropy_lower` gives H rounded down.

Everything evaluated on a Python number needs only :mod:`math`.  The array
functions live in :mod:`superconc._entropy_numeric`, which imports numpy and
scipy.special; this module loads it on first use.
"""

from __future__ import annotations

import math

__all__ = [
    "entropy",
    "entropy_lower",
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


_NUMERIC = ("entropy_lower", "chord_coefficients", "tangent_coefficients")


def __getattr__(name):
    # PEP 562: the numpy functions load on first access
    if name in _NUMERIC:
        from . import _entropy_numeric

        return getattr(_entropy_numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
