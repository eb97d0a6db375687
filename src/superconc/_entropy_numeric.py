"""The numpy and mpmath half of :mod:`superconc.entropy`.

These functions need numpy, scipy.special and mpmath, so they live apart from
the scalar entropy utilities; :mod:`superconc.entropy` re-exports them on
first access.  The certifier imports them from here directly, which loads the
three libraries when the certifier is imported rather than inside a scan.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.special import xlogy


def _h(arr):
    """Entropy without domain checks; assumes values already in [0, 1]."""
    return -xlogy(arr, arr) - xlogy(1.0 - arr, 1.0 - arr)


def entropy_array(x):
    """Entropy of a numpy array (or 0-d value) in [0, 1], elementwise."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.min(arr) < 0.0 or np.max(arr) > 1.0):
        raise ValueError(f"entropy argument outside [0, 1]: {x!r}")
    out = _h(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def entropy_mp(x):
    """Entropy evaluated with mpmath at the current working precision."""
    x = mpmath.mpf(x)
    if x == 0 or x == 1:
        return mpmath.mpf(0)
    return -x * mpmath.log(x) - (1 - x) * mpmath.log(1 - x)


def chord_coefficients(lo, hi):
    """(intercept, slope) arrays of the secant of H over [lo, hi], elementwise.

    Degenerate intervals yield the constant H(lo).  Inputs are assumed to lie
    in [0, 1]; callers clip first.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h_lo = _h(lo)
    width = hi - lo
    safe = np.where(width > 0.0, width, 1.0)
    slope = np.where(width > 0.0, (_h(hi) - h_lo) / safe, 0.0)
    return h_lo - slope * lo, slope


def tangent_coefficients(lo, hi):
    """(intercept, slope) arrays of the midpoint tangent of H, elementwise.

    When an interval is pinned to a single endpoint value 0 or 1, the zero
    function is returned; that is exact there since H(0) = H(1) = 0 and keeps
    the upper-bound role of the tangent.  Inputs are assumed to lie in [0, 1].
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = 0.5 * (lo + hi)
    interior = (m > 0.0) & (m < 1.0)
    msafe = np.where(interior, m, 0.5)
    slope = np.where(interior, np.log((1.0 - msafe) / msafe), 0.0)
    intercept = np.where(interior, _h(msafe) - slope * msafe, 0.0)
    return intercept, slope
