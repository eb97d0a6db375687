"""The numpy half of :mod:`superconc.entropy`: entropy on arrays and the two
one-sided linear envelopes, each sound in float64 on its own.

A chord lies below H only if it passes below H at both ends of its interval,
and a tangent lies above H only if its intercept is at least the conjugate
ln(1 + e^(-b)) of its slope b.  Both are computed here with their rounding
accounted for, under one assumption: numpy's exp, log and log1p, and the logs
inside scipy's xlogy and xlog1py, are within one ulp (relative error at most
2u, u = 2^-53).  Measured against mpmath they stay within 0.66 ulp.

These functions need numpy and scipy.special, so they live apart from the
scalar entropy utilities; :mod:`superconc.entropy` re-exports them on first
access.  The certifier imports them from here directly, which loads both
libraries when the certifier is imported rather than inside a scan.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlog1py, xlogy

U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1022


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


def entropy_lower(x):
    """A float at most H(x), elementwise, within 7u relative of it.

    ln(1-x) is taken as log1p(-x), so the argument of the log is exact and
    every step of the sum of two nonnegative terms errs relatively: at most
    5u in all, plus u for the final product, against a pad of 7u.  Inputs are
    assumed to lie in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    return (-xlogy(x, x) - xlog1py(1.0 - x, -x)) * (1.0 - 7 * U)


def chord_coefficients(lo, hi, h_lo=None, h_hi=None):
    """(intercept, slope) of a line below H on [lo, hi], elementwise.

    ``h_lo``/``h_hi`` are lower bounds on H at the ends, such as
    :func:`entropy_lower` values at nodes that neighbouring intervals share;
    they are evaluated when omitted.  The intercept is the smaller of the two
    end intercepts, stepped down by their rounding, so the line passes below
    both ends whatever the rounding of the slope; by concavity it stays below
    H in between.  Degenerate intervals yield a constant.  Inputs are assumed
    to lie in [0, 1] with lo <= hi; callers clip first.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h_lo = entropy_lower(lo) if h_lo is None else h_lo
    h_hi = entropy_lower(hi) if h_hi is None else h_hi
    width = hi - lo
    safe = np.where(width > 0.0, width, 1.0)
    slope = np.where(width > 0.0, (h_hi - h_lo) / safe, 0.0)
    intercept = np.minimum(h_lo - slope * lo, h_hi - slope * hi)
    # h - slope*x rounds twice, and the step down once more
    size = np.maximum(np.abs(h_lo), np.abs(h_hi)) + np.abs(slope) * hi
    return intercept - 4 * U * size, slope


def tangent_coefficients(lo, hi):
    """(intercept, slope) of a line above H on all of [0, 1], elementwise.

    The slope b is that of the tangent at the midpoint of [lo, hi], as
    rounded; the intercept is ln(1 + e^(-b)), the largest gap of H(x) - b*x,
    rounded up (two library calls err by at most 4u, and the pad is 6u).  The
    absolute term covers an exp that underflows.  When an interval is pinned
    to a single endpoint value 0 or 1, the zero function is returned; that is
    exact there since H(0) = H(1) = 0.  Inputs are assumed to lie in [0, 1].
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = 0.5 * (lo + hi)
    interior = (m > 0.0) & (m < 1.0)
    # any tangent point gives a line above H; the floor keeps (1-m)/m finite
    msafe = np.where(interior, np.maximum(m, _TINY), 0.5)
    slope = np.where(interior, np.log((1.0 - msafe) / msafe), 0.0)
    intercept = np.log1p(np.exp(-slope)) * (1.0 + 6 * U) + _TINY
    return np.where(interior, intercept, 0.0), slope
