"""Certification of the two entropy inequalities behind the fractional
degree d = 5.325.

The inequalities compare sums of weighted entropy terms H(V) where every V
is affine in the coordinates (x, y) or becomes affine after multiplying by
its weight.  On a rectangle of the domain the left-hand terms are replaced by
chords (below H on the enclosure of V) and the right-hand terms by tangents
(above H everywhere); the strengthened inequality is affine, so its minimum
over the rectangle, clipped to y <= x, sits at a corner.  The slack of a
rectangle is that corner minimum in float64, and it carries a bound on its
own rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):
the envelopes hold in float64 and chord ends computed in floats are widened.
A rectangle passes when its slack minus that bound clears the margin; a NaN
slack fails, and a minimum that is not finite passes nothing.  The one
assumption is that numpy's exp, log and log1p are within one ulp (relative
error at most 2u, u = 2^-53); measured against mpmath they stay within 0.66.

Each x-interval carries a grid_n x grid_n grid of cells, and the driver
refines rectangles of cells down to single cells only where the minimum can
lie or the margin is missed (Moore-Skelboe style; Hansen and Walster, Global
Optimization Using Interval Analysis, 2004); a round evaluates at most
_BLOCK_CELLS open rectangles in one float64 kernel call.  The leaves must
cover every grid cell exactly once; their summed cells are the report's
``cells_checked``.  Each inequality and the corner rule are written once
against a number backend, which holds only number operations: float64 over
arrays of rectangles, or mpmath interval arithmetic over one.  The spot check
(``confirm``) encloses the slack of the lowest leaf of every x-interval with
the interval backend at 113 bits; mpmath is imported only then.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from .profiles import (PiecewiseLinear, ProfileConstants, as_fraction, density253_constants,
                       expansion_profile)

__all__ = ["CertReport", "certify_pair_inequality", "certify_expansion_inequality"]

_FAIL_CAP = 10_000
_BLOCK_CELLS = 4096  # rectangles per kernel call; more save numpy overhead, cost memory
_SEEDS = 4  # open rectangles per round whose first grid cell seeds ``best``
_RECHECK_BITS = 113
U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1022


def entropy_lower(x):
    """A float at most H(x), elementwise, within 7u relative of it.

    ln(1-x) is taken as log1p(-x), so the argument of the log is exact and
    every step of the sum of two nonnegative terms errs relatively: at most
    5u in all, plus u for the final product, against a pad of 7u.  The
    endpoints are masked to arguments whose term is exactly 0.  Inputs are
    assumed to lie in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    a = np.where(x > 0.0, x, 1.0)  # x ln x -> 0 at x = 0
    b = np.where(x < 1.0, x, 0.0)  # (1-x) ln(1-x) -> 0 at x = 1
    return (-a * np.log(a) - np.log1p(-b) * (1.0 - b)) * (1.0 - 7 * U)


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
    proper = width > 0.0
    slope = np.where(proper, (h_hi - h_lo) / np.where(proper, width, 1.0), 0.0)
    intercept = np.minimum(h_lo - slope * lo, h_hi - slope * hi)
    # h - slope*x rounds twice, and the step down once more
    size = (np.abs(slope) * hi + np.maximum(np.abs(h_lo), np.abs(h_hi))) * (4 * U)
    return intercept - size, slope


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
    # any tangent point in (0, 1) gives a line above H, so a midpoint that
    # rounds onto 0 or 1 is moved inside; the floor keeps (1-m)/m finite
    m = np.clip((lo + hi) * 0.5, _TINY, 1.0 - U)
    slope = np.log((1.0 - m) / m)
    intercept = np.log1p(np.exp(-slope)) * (1.0 + 6 * U) + _TINY
    interior = (hi > 0.0) & (lo < 1.0)
    return np.where(interior, intercept, 0.0), np.where(interior, slope, 0.0)


# Forming a cell's slack rounds any product of inputs fewer than _ROUNDINGS
# times: at most three times for the product, once per term of a coefficient
# sum, and three times at a corner (B*x, then two additions).  gamma_n =
# n*u/(1 - n*u) bounds the relative effect on each product (Higham, Lemma
# 3.1); the factor 2 also covers rounding in the bound and in subtracting it.
_ROUNDINGS = 16
_GAMMA = 2 * _ROUNDINGS * U / (1 - _ROUNDINGS * U)


class CertReport(namedtuple(
    "CertReport", "lemma params grid margin min_slack argmin_cell corners_evaluated cells_checked "
    "failing_cells failing_count error_bound runtime_seconds recheck", defaults=(None,),
)):
    """Outcome of one certification run.

    ``argmin_cell`` is (interval index, x cell index, y cell index),
    ``failing_cells`` the [(interval, i, j, slack)] below the margin,
    ascending and capped, and ``error_bound`` the largest bound on the
    rounding of a leaf's slack.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        # a NaN or infinite minimum certifies nothing
        ok = self.failing_count == 0 and self.margin <= self.min_slack < math.inf
        if self.recheck is not None:
            ok = ok and self.recheck["all_clear"]
        return ok

    def to_json_dict(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "lemma", "params", "grid", "margin", "min_slack", "error_bound", "argmin_cell",
            "corners_evaluated", "cells_checked", "failing_count")}
        out |= {"argmin_cell": list(self.argmin_cell), "pass": self.passed,
                "failing_cells": [list(c) for c in self.failing_cells]}
        if self.recheck is not None:
            out["recheck"] = self.recheck
        return out


def _outward(lo, hi, spread):
    """Widen float ends lo <= hi of x/e(x), e = ea + eb*x, to enclose the
    exact range: forming e errs by 2u*spread relative, spread = (|ea| +
    |eb|x)/e, and the division by u more.  The widening is twice that."""
    w = (4 * spread + 4) * U
    return lo * (1 - w), np.minimum(hi * (1 + w), 1.0)


def _corner(a, b, c, x, y):
    """The affine function a + b*x + c*y at the point (x, y)."""
    return a + b * x + c * y


# float64 backend over arrays of rectangles (or any broadcast shapes).  chord
# and tangent look up the module-level names at each call, so a wrapper
# installed on them (as the benchmark tracer does) sees every call.
_F64 = SimpleNamespace(
    chord=lambda *ends: chord_coefficients(*ends),
    tangent=lambda lo, hi: tangent_coefficients(lo, hi),
    outward=_outward, clip=lambda v: np.clip(v, 0.0, 1.0), minimum=np.minimum, maximum=np.maximum,
    log=math.log,
)


def _iv_entropy(v):
    """Enclosure of H at the point v."""
    from mpmath import iv
    v = iv.mpf(v)
    if v == 0 or v == 1:
        return iv.mpf(0)
    return -v * iv.log(v) - (1 - v) * iv.log(1 - v)


def _iv_chord(lo, hi, h_lo=None, h_hi=None):
    """Exact chord of H from the lower end of lo to the upper end of hi.

    Inside (0, 1) the slope enclosure is cut down to H' over the interval
    (mean value theorem), which stays tight on intervals so narrow that the
    difference quotient of two enclosures does not."""
    from mpmath import iv
    lo, hi = iv.mpf(lo).a, iv.mpf(hi).b
    h_lo = _iv_entropy(lo) if h_lo is None else h_lo
    h_hi = _iv_entropy(hi) if h_hi is None else h_hi
    if lo == hi:
        return h_lo, iv.mpf(0)
    slope = (h_hi - h_lo) / (hi - lo)
    if 0 < lo and hi < 1:
        span = iv.mpf([lo, hi])
        mvt = iv.log((1 - span) / span)
        slope = iv.mpf([max(slope.a, mvt.a), min(slope.b, mvt.b)])
    return h_lo - slope * lo, slope


def _iv_tangent(lo, hi):
    """Exact tangent of H at a point near the middle of the enclosures."""
    from mpmath import iv
    m = ((iv.mpf(lo) + iv.mpf(hi)) / 2).mid
    if not 0 < m < 1:
        return iv.mpf(0), iv.mpf(0)
    slope = iv.log((1 - m) / m)
    return iv.log(1 + iv.exp(-slope)), slope


def _iv_pick(pick):
    """Min or max of two enclosures, taken end by end."""

    def f(a, b):
        from mpmath import iv
        a, b = iv.mpf(a), iv.mpf(b)
        return iv.mpf([pick(a.a, b.a), pick(a.b, b.b)])
    return f


_iv_min, _iv_max = _iv_pick(min), _iv_pick(max)


def _iv_log(v):
    from mpmath import iv
    return iv.log(v)


# mpmath interval backend: every quantity is an interval enclosing its exact
# value; cell coordinates are points, so comparing them is exact.
_IV = SimpleNamespace(
    chord=_iv_chord, tangent=_iv_tangent, outward=lambda lo, hi, spread: (lo, hi),
    clip=lambda v: _iv_min(_iv_max(v, 0), 1), minimum=_iv_min, maximum=_iv_max, log=_iv_log,
)


def _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max):
    """Minimum of a + b*x + c*y, with a, b, c the sums (left to right) of the
    product lists A, B, C, over the extreme points of each feasible cell
    (y_min <= x_max) clipped to y <= x: the four corners, and the point
    (max(x_min, y_v), y_v), y_v = min(max(x_min, y_min), y_hi), which is the
    vertex (x_min, x_min) where the diagonal crosses the left edge, or one of
    the corners where it misses the edge.  Returns that minimum, the mask of
    cells with the fifth vertex, and a bound on the rounding error of each
    minimum, gamma_n times the sum of the absolute products (coordinates are
    nonnegative)."""
    a, b, c = sum(A), sum(B), sum(C)
    err = (sum(map(abs, A)) + sum(map(abs, B)) * x_max + sum(map(abs, C)) * y_max) * _GAMMA
    y_hi = nb.minimum(y_max, x_max)
    y_v = nb.minimum(nb.maximum(x_min, y_min), y_hi)

    def level(y):  # the corners at height y, the left one clipped to the diagonal
        return nb.minimum(_corner(a, b, c, nb.maximum(x_min, y), y), _corner(a, b, c, x_max, y))

    sl = nb.minimum(nb.minimum(level(y_min), level(y_hi)),
                    _corner(a, b, c, nb.maximum(x_min, y_v), y_v))
    return sl, (y_min < x_min) & (x_min < y_hi), err


def _shared_terms(nb, x_min, x_max, y_min, y_max, h_y, delta):
    """The terms of A, B and C (constant, x and y coefficients) of the
    strengthened H(y) - delta*H(y/delta) - (1-delta)*H((x-y)/(1-delta)),
    which both inequalities hold; h_y holds lower bounds on H at y_min, y_max."""
    ya, yb = nb.chord(y_min, y_max, *h_y)                # H(y), lower
    ta, tb = nb.tangent(                                 # H(y/delta), upper
        nb.minimum(y_min / delta, 1), nb.minimum(y_max / delta, 1)
    )
    ua, ub = nb.tangent(                                 # H((x-y)/(1-delta)), upper
        nb.clip((x_min - y_max) / (1 - delta)), nb.clip((x_max - y_min) / (1 - delta))
    )
    return [ya, -delta * ta, -(1 - delta) * ua], [-ub], [yb, -tb, ub]


def _pair_slack(nb, x_min, x_max, y_min, y_max, h, delta, p):
    """Corner-minimum slack of the strengthened pair inequality (gamma = 1);
    h holds lower bounds on H at x_min, x_max, y_min, y_max."""
    c1a, c1b = nb.chord(x_min, x_max, h[0], h[1])        # H(x), lower
    a, b, c = _shared_terms(nb, x_min, x_max, y_min, y_max, h[2:], delta)
    t5a, t5b = nb.tangent(nb.clip(y_min / x_max), nb.clip(y_max / x_min))  # H(y/x), upper
    # strengthened LHS - RHS = A + B*x + C*y, each coefficient a sum of products
    A = [(1 - p) * c1a, *a]
    B = [(1 - p) * c1b, 2 * p * nb.log(2), *b, -t5a]
    C = [*c, -t5b]
    return _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max)


def _expansion_slack(nb, x_min, x_max, y_min, y_max, h, delta, boost, ea, eb):
    """Corner-minimum slack of the strengthened expansion inequality, with
    e(x) = ea + eb*x affine on the whole x-interval; h as for _pair_slack."""
    e_min = ea + eb * x_min
    e_max = ea + eb * x_max
    c1a, c1b = nb.chord(x_min, x_max, h[0], h[1])        # H(x), lower
    r0, r1 = x_min / e_min, x_max / e_max                # x/e(x) is monotone on the cell
    spread = (abs(ea) + abs(eb) * x_max) / e_min
    c2a, c2b = nb.chord(*nb.outward(nb.minimum(r0, r1), nb.maximum(r0, r1), spread))
    a, b, c = _shared_terms(nb, x_min, x_max, y_min, y_max, h[2:], delta)
    t6a, t6b = nb.tangent(nb.clip(y_min / e_max), nb.clip(y_max / e_min))  # H(y/e(x)), upper
    A = [(1 - boost) * c1a, boost * c2a * ea, *a, t6a * -ea]
    B = [(1 - boost) * c1b, boost * c2a * eb, boost * c2b, *b, t6a * -eb]
    C = [*c, -t6b]
    return _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max)


def _halves(R):
    """The rectangles (a, b, j0, j1) of R cut in four at the middle of each
    side; a side one cell wide leaves an empty half, which is dropped."""
    a, b, j0, j1 = R
    am, jm = (a + b) // 2, (j0 + j1) // 2
    kids = np.empty((4, 4, R.shape[1]), dtype=R.dtype)
    kids[0, 0::2], kids[0, 1::2], kids[1, 0::2], kids[1, 1::2] = a, am, am, b
    kids[2, :2], kids[2, 2:], kids[3, :2], kids[3, 2:] = j0, jm, jm, j1
    kids = kids.reshape(4, -1)
    keep = (kids[0] < kids[1]) & (kids[2] < kids[3])
    return kids if keep.all() else kids.compress(keep, axis=1)


def _refine(kernel, R, margin):
    """Refine the rectangles R round by round; yield each round's rectangles,
    slacks, bounds, which clear the margin and which are leaves.  A leaf
    clears the margin and has a slack above ``best``, the lowest grid-cell
    slack so far (NaN lowest of all), or is a grid cell; _halves cuts the
    rest.  Where a lower ``best`` could make a leaf, the first grid cell of
    the _SEEDS lowest rectangles lowers it.  After the roots, a round's
    kernel call takes the halves of at most _BLOCK_CELLS // 4 (at least one)
    of the rectangles waiting in ``pending``, the newest first."""
    best, step = math.inf, max(1, _BLOCK_CELLS // 4)
    pending, waiting = np.empty((4, 8 * _BLOCK_CELLS), dtype=R.dtype), 0
    while True:
        sl, err = kernel(R)
        a, b, j0, j1 = R
        cell = (b - a == 1) & (j1 - j0 == 1)
        clear = sl - err >= margin  # false on NaN, so that a NaN slack fails
        low = np.min(sl, where=cell, initial=math.inf)
        best = low if math.isnan(low) else min(best, low)  # NaN stays once there
        cut = ~cell
        if cut.any():
            if (clear & cut & ~(sl > best)).any():
                wide = np.flatnonzero(cut)
                v = np.where(np.isnan(sl[wide]), -np.inf, sl[wide])
                seeds = wide[np.argpartition(v, _SEEDS)[:_SEEDS]] if wide.size > _SEEDS else wide
                first = np.stack([a[seeds], a[seeds] + 1, j0[seeds], j0[seeds] + 1])
                low = kernel(first)[0].min()
                best = low if math.isnan(low) else min(best, low)
            cut &= ~(clear & (sl > best))
        yield R, sl, err, clear, ~cut
        k = waiting + int(np.count_nonzero(cut))  # the rectangles to cut wait in pending
        if k > pending.shape[1]:
            pending = np.concatenate([pending[:, :waiting], np.empty_like(pending[:, :k])], axis=1)
        R.compress(cut, axis=1, out=pending[:, waiting:k])
        if not k:
            return
        waiting = max(0, k - step)
        R = _halves(pending[:, waiting:k])


def _certify(lemma, params, weight, slack_fn, slack_args, intervals,
             grid_n, margin, confirm, slack_csv) -> CertReport:
    """Certify ``slack_fn`` on a grid_n x grid_n grid of cells of each x-interval
    times y in [0, min(x, delta)], by _refine from one rectangle per interval.
    The rectangle [i0, i1) x [j0, j1) is the union of its cells: x-nodes i0
    to i1, and y from row i0's node j0 to row i1-1's node j1.  It is held as
    (a, b, j0, j1), a and b the offsets of i0 and i1 in the intervals' nodes
    laid end to end.  ``params`` (the report's echo) holds ``delta`` and the
    chord weight named ``weight``; ``slack_args(lo, hi)`` gives slack_fn's
    trailing arguments."""
    t0 = time.perf_counter()
    delta = params["delta"]
    # a chord lies below H, so it strengthens the inequality only under a
    # nonnegative weight: 1 - w on H(x), and w*e(x) on the expansion H(x/e(x))
    if not 0.0 <= params[weight] <= 1.0:
        raise ValueError(f"{weight}={params[weight]} must lie in [0, 1]")
    if not math.isfinite(margin):
        raise ValueError(f"margin={margin} must be finite")
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    for lo, hi in intervals:
        if not 0.0 < float(lo) < float(hi) < 1.0:
            raise ValueError(f"x interval [{lo}, {hi}] must satisfy 0 < lo < hi < 1")
        if float(hi) + delta - 1.0 > 0.0:
            raise ValueError("the lower constraint y >= x + delta - 1 would become active")

    n, count = grid_n, len(intervals)
    xs = np.concatenate([np.linspace(float(lo), float(hi), n + 1) for lo, hi in intervals])
    # per node: x, its H bound, the top min(x_max, delta) of the row ending there, and top/n of
    # the rows starting and ending there (a row's y node j is j*(top/n), and the top at j = n)
    xh, tops = np.stack([xs, entropy_lower(xs)]), np.minimum(xs, delta)
    steps = np.minimum(np.append(xs[1:], 0.0), delta) / n, tops / n
    per_interval = [slack_args(lo, hi) for lo, hi in intervals]
    # an argument that differs between x-intervals is passed per rectangle
    cols = [np.array(c) if len(set(c)) > 1 else c[0] for c in zip(*per_interval)]

    def geometry(R):  # x-ends, their H bounds and y-ends of the rectangles R
        y = np.empty((2, R.shape[1]))
        np.multiply(R[2], steps[0].take(R[0]), out=y[0])
        np.multiply(R[3], steps[1].take(R[1]), out=y[1])
        top = np.flatnonzero(R[3] == n)
        y[1, top] = tops[R[1, top]]
        return (*xh.take(R[:2], axis=1), y)

    def kernel(R):
        nonlocal corners
        x, h, y = geometry(R)
        args = [c[R[0] // (n + 1)] if isinstance(c, np.ndarray) else c for c in cols]
        sl, extra, err = slack_fn(_F64, *x, *y, (*h, *entropy_lower(y)), *args)
        corners += 4 * sl.size + int(np.count_nonzero(extra))
        return sl, err

    corners, cells, fail_count, error_bound = 0, 0, 0, 0.0
    spots = [((2,),)] * count  # each interval's lowest leaf (rank, slack, cell); 2 ranks last
    # the earliest failing cells as (interval, i, j) keys, and their slacks
    room = _FAIL_CAP + max(4, count, _BLOCK_CELLS)
    fail_keys, fail_slacks, kept, cutoff = np.empty(room, np.int64), np.empty(room), 0, math.inf
    roots = np.array([[k * (n + 1), k * (n + 1) + n, 0, n] for k in range(count)], np.int64).T
    with open(slack_csv, "w", newline="") if slack_csv else contextlib.nullcontext() as fh:
        writer = csv.writer(fh) if fh else None
        for R, sl, err, clear, leaf in _refine(kernel, roots, margin):
            a, b, j0, j1 = R
            cells += int(np.sum((b - a) * (j1 - j0), where=leaf))
            failing = np.flatnonzero(leaf > clear)
            fail_count += failing.size
            if failing.size and int(a[failing].min()) * n < cutoff:
                keys = a[failing] * n + j0[failing]
                early = np.flatnonzero(keys < cutoff)
                if kept + early.size > room:
                    first = np.argpartition(fail_keys[:kept], _FAIL_CAP - 1)[:_FAIL_CAP]
                    fail_keys[:_FAIL_CAP] = fail_keys[first]
                    fail_slacks[:_FAIL_CAP] = fail_slacks[first]
                    kept, cutoff = _FAIL_CAP, int(fail_keys[:_FAIL_CAP].max())
                fail_keys[kept : kept + early.size] = keys[early]
                fail_slacks[kept : kept + early.size] = sl[failing[early]]
                kept += early.size
            error_bound = max(error_bound, float(np.max(err, where=leaf, initial=0.0)))
            for k in range(count):
                mine = leaf if count == 1 else leaf & (a // (n + 1) == k)
                low = float(np.min(sl, where=mine, initial=math.inf))  # NaN if any is
                rank = (not math.isnan(low), 0.0 if math.isnan(low) else low)
                # NaN ranks first, then lower slacks, then the earliest leaf
                if rank <= spots[k][0][:2]:
                    tied = np.flatnonzero(mine & (np.isnan(sl) if math.isnan(low) else sl == low))
                    if tied.size:
                        c = tied[np.lexsort((j0[tied], a[tied]))[0]]
                        if (rank := (*rank, int(a[c]), int(j0[c]))) < spots[k][0]:
                            x, _, y = geometry(R[:, c : c + 1])
                            spots[k] = (rank, float(sl[c]), [*x.flat, *y.flat])
            if writer:
                leaves = np.flatnonzero(leaf)
                i0 = a[leaves] % (n + 1)
                writer.writerows(zip(a[leaves] // (n + 1), i0, i0 + b[leaves] - a[leaves],
                                     j0[leaves], j1[leaves], map(repr, sl[leaves].tolist()),
                                     map(repr, err[leaves].tolist())))

    if cells != count * n * n:
        raise ArithmeticError(f"the leaves cover {cells} cells, not the grids' {count * n * n}")
    order = np.argsort(fail_keys[:kept])[:_FAIL_CAP]
    failing_cells = [(*divmod(key // n, n + 1), key % n, s)
                     for key, s in zip(fail_keys[order].tolist(), fail_slacks[order].tolist())]
    (*_, a0, j), low, _ = min(spots)  # the rank orders a by interval
    recheck = _recheck([(sl, cell, args) for (_, sl, cell), args in zip(spots, per_interval)],
                       slack_fn, margin) if confirm else None
    return CertReport(lemma, params, n, margin, low, (*divmod(a0, n + 1), j), corners,
                      cells, failing_cells, fail_count, error_bound,
                      time.perf_counter() - t0, recheck)


def _iv_slack(slack_fn, cell, args):
    """Interval enclosure, at _RECHECK_BITS bits, of ``slack_fn`` on one cell
    (x_min, x_max, y_min, y_max) with trailing arguments ``args``; the float64
    coordinates and arguments convert exactly."""
    from mpmath import iv
    prec, iv.prec = iv.prec, _RECHECK_BITS
    try:
        cell = [iv.mpf(v) for v in cell]
        h = tuple(_iv_entropy(v) for v in cell)
        return slack_fn(_IV, *cell, h, *(iv.mpf(a) for a in args))[0]
    finally:
        iv.prec = prec


def _recheck(spots, slack_fn, margin) -> dict:
    """Enclose in mpmath.iv the slack of each (float64 slack, cell, args); the
    lower ends must clear the margin.  A cell whose float64 slack is not finite
    has nothing to confirm, and leaves the check not clear."""
    lows = [_iv_slack(slack_fn, cell, args).a for sl, cell, args in spots if math.isfinite(sl)]
    worst = min(lows, default=math.nan)
    return {"cells": len(lows), "precision_bits": _RECHECK_BITS, "min_slack": float(worst),
            "all_clear": len(lows) == len(spots) and bool(worst >= margin)}


def certify_pair_inequality(delta=0.325, p=0.45, x_range=(0.3, 0.3322), grid_n: int = 1000,
                            margin: float = 1e-4, confirm: bool = False,
                            slack_csv: str | None = None) -> CertReport:
    """Certify, over x in x_range and y in [0, min(x, delta)], that

        H(x)(1-p) + 2*p*x*H(1/2) + H(y)
            > delta*H(y/delta) + (1-delta)*H((x-y)/(1-delta)) + x*H(y/x)

    by at least ``margin`` on every cell of a grid_n x grid_n grid, refined
    from the whole domain (see _certify).  This is the paper's pair
    inequality at gamma = 1, which the report's params echo; p must lie in
    [0, 1].
    """
    delta, p = float(delta), float(p)
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta={delta} outside (0, 0.5]")
    return _certify(
        "pair-expansion", {"delta": delta, "gamma": 1.0, "p": p, "x_range": [x_lo, x_hi]},
        "p", _pair_slack, lambda lo, hi: (delta, p), [(x_lo, x_hi)],
        grid_n, margin, confirm, slack_csv,
    )


def _segment_for(profile: PiecewiseLinear, lo, hi):
    """Affine coefficients (ea, eb) of the profile on [lo, hi], lo < hi; the
    interval must sit inside a single increasing, positive segment (the
    interval enclosures below rely on both)."""
    lo_f, hi_f = as_fraction(lo), as_fraction(hi)
    start, end = profile.domain
    if not start <= lo_f < hi_f <= end or any(lo_f < x < hi_f for x, _ in profile.breakpoints):
        raise ValueError(f"[{lo}, {hi}] does not lie inside one linear segment of the profile")
    eb, e_lo = profile.slope(lo_f), profile.eval(lo_f)
    if eb <= 0 or e_lo <= 0:
        raise ValueError(f"profile must be increasing and positive on [{lo}, {hi}]")
    return float(e_lo - eb * lo_f), float(eb)


def certify_expansion_inequality(delta=0.325, boost=0.18,
                                 constants: ProfileConstants | None = None, x_intervals=None,
                                 grid_n: int = 1000, margin: float = 1e-4, confirm: bool = False,
                                 slack_csv: str | None = None) -> CertReport:
    """Certify, over each given x-interval and y in [0, min(x, delta)], that

        H(x)(1-boost) + boost*e(x)*H(x/e(x)) + H(y)
            > delta*H(y/delta) + (1-delta)*H((x-y)/(1-delta)) + e(x)*H(y/e(x))

    by at least ``margin`` on a grid_n x grid_n grid of each, as for
    :func:`certify_pair_inequality`, where e is the piecewise-linear expansion
    profile of ``constants`` and boost lies in [0, 1].  Every x-interval must lie
    inside one linear segment of e; by default the range [0.21, 0.48] is
    split at the profile anchors.
    """
    delta, boost = float(delta), float(boost)
    constants = constants if constants is not None else density253_constants()
    profile = expansion_profile(constants)
    if x_intervals is None:
        c1, c3, c5 = float(constants.c1), float(constants.c3), float(constants.c5)
        x_intervals = [(0.21, c1), (c1, c3), (c3, c5), (c5, 0.48)]
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")
    return _certify(
        "expansion",
        {"delta": delta, "boost": boost,
         "x_intervals": [[float(lo), float(hi)] for lo, hi in x_intervals]},
        "boost", _expansion_slack, lambda lo, hi: (delta, boost) + _segment_for(profile, lo, hi),
        x_intervals, grid_n, margin, confirm, slack_csv,
    )
