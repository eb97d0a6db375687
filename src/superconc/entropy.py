"""Binary entropy in natural-log units and the log-binomial utilities.

Everything here takes Python numbers and needs only :mod:`math`.  The
one-sided linear envelopes of H that the grid certifier builds on, and H
rounded down, operate on numpy arrays and live in :mod:`superconc.certifier`
with the rest of its rounding analysis.
"""

from __future__ import annotations

import math

__all__ = [
    "entropy",
    "log_binomial",
    "stirling_gap",
]


def entropy(x) -> float:
    """-x*ln(x) - (1-x)*ln(1-x) for x in [0, 1]; zero at both endpoints.

    ln(1-x) is taken as log1p(-x), so the result stays accurate relative to
    H for small x.  Values outside [0, 1], and NaN, are rejected.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument outside [0, 1]: {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log1p(-x)


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
