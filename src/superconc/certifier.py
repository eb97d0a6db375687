"""Grid certification of the two entropy inequalities behind the fractional
degree d = 5.325.

The certified inequalities compare sums of weighted entropy terms H(V) where
every V is affine in the cell coordinates (x, y) or becomes affine after
multiplying by its weight.  On each grid cell the left-hand terms are replaced
by chords (below H on the enclosure of V) and the right-hand terms by
tangents (above H everywhere), which strengthens the inequality into an affine
one; an affine function attains its minimum over a convex cell polygon at an
extreme point, so checking the corner points certifies the whole cell.

Enclosures of the V expressions are interval images of the cell, truncated to
[0, 1].  The slack recorded for a cell is the minimum over its corners of
strengthened LHS minus strengthened RHS, as computed in float64.  The scan is
sound on its own: the envelopes below hold in float64, chord ends computed in
floats are widened by their rounding, and each cell carries a bound on the
rounding of its slack (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3).  A cell passes when its slack minus that bound clears the
margin; a NaN slack fails, and a scan whose minimum is not finite passes
nothing.  The one assumption is that numpy's exp, log and log1p are within one
ulp (relative error at most 2u, u = 2^-53); measured against mpmath they stay
within 0.66 ulp.

Each inequality and the corner rule are written once against a number
backend: float64 over a block of consecutive x-rows, or mpmath interval
arithmetic over one cell.  In a block the x quantities are columns and the y
quantities rows; when every x-cell of the block reaches y = delta, the block
shares one y-row, and the terms in y alone are computed once for it.  Of the
two corners at each y-level the float64 backend evaluates only the lower
one, which the sign of the x-coefficient picks (a corner rounds monotonically
in x); the interval backend evaluates both.  The optional spot check
(``confirm``) encloses the slack of the scan's minimum cell in every
x-interval with the interval backend, at 113 bits; mpmath is imported only
then.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .profiles import (
    PiecewiseLinear,
    ProfileConstants,
    as_fraction,
    density253_constants,
    expansion_profile,
)

__all__ = [
    "CertReport",
    "certify_pair_inequality",
    "certify_expansion_inequality",
]

_FAIL_CAP = 10_000
# cells per block of consecutive x-rows that the scan hands to numpy at once
# (at least one row).  Larger blocks pay numpy's per-call overhead less often,
# but the live arrays, at most about 22 block-sized ones, grow with them.
_BLOCK_CELLS = 16384
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
    a = _masked(x, x > 0.0, 1.0)  # x ln x -> 0 at x = 0
    b = _masked(x, x < 1.0, 0.0)  # (1-x) ln(1-x) -> 0 at x = 1
    h = -a
    h *= np.log(a)
    t = np.log1p(-b)
    t *= 1.0 - b
    h -= t
    h *= 1.0 - 7 * U
    return h


def _masked(v, keep, fill):
    """v where ``keep`` holds and ``fill`` elsewhere; v itself, not a copy,
    when ``keep`` holds everywhere, which is the case the scan meets."""
    return v if keep.all() else np.where(keep, v, fill)


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
    if proper.all():
        slope = (h_hi - h_lo) / width
    else:
        slope = np.where(proper, (h_hi - h_lo) / np.where(proper, width, 1.0), 0.0)
    intercept = np.minimum(h_lo - slope * lo, h_hi - slope * hi)
    # h - slope*x rounds twice, and the step down once more
    size = np.abs(slope) * hi
    size += np.maximum(np.abs(h_lo), np.abs(h_hi))
    size *= 4 * U
    intercept -= size
    return intercept, slope


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
    m = lo + hi
    m *= 0.5
    m = np.clip(m, _TINY, 1.0 - U)
    slope = 1.0 - m
    slope /= m
    slope = np.log(slope)
    intercept = np.log1p(np.exp(-slope))
    intercept *= 1.0 + 6 * U
    intercept += _TINY
    interior = (hi > 0.0) & (lo < 1.0)
    if not interior.all():
        intercept, slope = np.where(interior, intercept, 0.0), np.where(interior, slope, 0.0)
    return intercept, slope


# Forming a cell's slack rounds any product of inputs fewer than _ROUNDINGS
# times: at most three times for the product, once per term of a coefficient
# sum, and three times at a corner (B*x, then two additions).  gamma_n =
# n*u/(1 - n*u) bounds the relative effect on each product (Higham, Lemma
# 3.1); the factor 2 also covers rounding in the bound and in subtracting it.
_ROUNDINGS = 16
_GAMMA = 2 * _ROUNDINGS * U / (1 - _ROUNDINGS * U)


@dataclass
class CertReport:
    """Outcome of one certification run."""

    lemma: str
    params: dict
    grid: int
    margin: float
    min_slack: float
    argmin_cell: tuple  # (interval index, x cell index, y cell index)
    corners_evaluated: int
    cells_checked: int
    failing_cells: list  # [(interval, i, j, slack)], ascending, capped
    failing_count: int
    error_bound: float  # largest per-cell bound on the rounding of the slack
    runtime_seconds: float
    recheck: dict | None = None

    @property
    def passed(self) -> bool:
        # a NaN or infinite minimum certifies nothing
        ok = self.failing_count == 0 and self.margin <= self.min_slack < math.inf
        if self.recheck is not None:
            ok = ok and self.recheck["all_clear"]
        return ok

    def to_json_dict(self) -> dict:
        out = {
            "lemma": self.lemma,
            "params": self.params,
            "grid": self.grid,
            "margin": self.margin,
            "min_slack": self.min_slack,
            "error_bound": self.error_bound,
            "argmin_cell": list(self.argmin_cell),
            "corners_evaluated": self.corners_evaluated,
            "cells_checked": self.cells_checked,
            "failing_count": self.failing_count,
            "failing_cells": [list(c) for c in self.failing_cells],
            "pass": self.passed,
        }
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


def _f64_lower_corner(a, b, c, left, right, y):
    """The lower of the corners (left, y) and (right, y), left <= right.  In
    float64 a corner is still monotone in x, rising with it where b >= 0, so
    the sign of b picks the lower one, and only that one is evaluated."""
    return _corner(a, b, c, np.where(b < 0, right, left), y)


def _f64_vertex(sl, extra, a, b, c, x):
    """``sl`` lowered to the corner (x, x) on the cells where ``extra``
    holds, evaluating it on those cells only; writes into ``sl``."""
    sl = np.asarray(sl)
    extra, a, b, c, x, _ = np.broadcast_arrays(extra, a, b, c, x, sl)
    cells = np.flatnonzero(extra)
    if cells.size:
        at = x.flat[cells]
        sl.flat[cells] = np.minimum(
            sl.flat[cells], _corner(a.flat[cells], b.flat[cells], c.flat[cells], at, at)
        )
    return sl


# float64 backend over a block of x-rows: x quantities are (rows, 1) columns,
# y quantities a shared (1, n) row or a (rows, n) block, and numpy
# broadcasting forms the mixed terms.  chord and tangent look up the
# module-level names at each call, so a wrapper installed on them (as the
# benchmark tracer does) sees every call.
_F64 = SimpleNamespace(
    chord=lambda *ends: chord_coefficients(*ends),
    tangent=lambda lo, hi: tangent_coefficients(lo, hi),
    outward=_outward,
    clip=lambda v: np.clip(v, 0.0, 1.0),
    minimum=np.minimum,
    maximum=np.maximum,
    lower_corner=_f64_lower_corner,
    vertex=_f64_vertex,
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
    chord=_iv_chord,
    tangent=_iv_tangent,
    outward=lambda lo, hi, spread: (lo, hi),
    clip=lambda v: _iv_min(_iv_max(v, 0), 1),
    minimum=_iv_min,
    maximum=_iv_max,
    # the sign of an enclosure of b can be undecided, so both corners count
    lower_corner=lambda a, b, c, left, right, y: _iv_min(
        _corner(a, b, c, left, y), _corner(a, b, c, right, y)
    ),
    vertex=lambda sl, extra, a, b, c, x: _iv_min(sl, _corner(a, b, c, x, x)) if extra else sl,
    log=_iv_log,
)


def _total(terms, total=0):
    """``total`` plus the terms, added left to right as the builtin sum adds
    them; once the partial sum is an array of the final shape the remaining
    terms are added into it.  Only ``total`` is written to, so pass a fresh
    one or none."""
    terms = list(terms)
    shape = np.broadcast(total, *terms).shape
    for t in terms:
        if type(total) is np.ndarray and total.shape == shape:
            total += t
        else:
            total = total + t
    return total


def _sums(terms):
    """The sum of the products in ``terms`` and the sum of their absolute
    values.  Empties ``terms``: the slack functions build each list for this
    call alone, so its products are freed as soon as both sums hold them."""
    sums = _total(terms), _total(map(abs, terms))
    terms.clear()
    return sums


def _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max):
    """Minimum of a + b*x + c*y, with a, b, c the sums of the product lists
    A, B, C (which it empties), over the extreme points of each feasible cell
    (y_min <= x_max) clipped to y <= x: four corners, of which the lower one
    at each y-level is evaluated, and the vertex (x_min, x_min) where the
    diagonal crosses the left edge.  Returns that minimum, the mask of cells
    with the fifth vertex, and a bound on the rounding error of each minimum,
    gamma_n times the sum of the absolute products (coordinates are
    nonnegative)."""
    (a, abs_a), (b, abs_b), (c, abs_c) = _sums(A), _sums(B), _sums(C)
    err = _total([abs_b * x_max, abs_c * y_max], abs_a)
    err *= _GAMMA
    del abs_b, abs_c  # freed before the corners are formed
    y_hi = nb.minimum(y_max, x_max)
    sl = nb.minimum(
        nb.lower_corner(a, b, c, nb.maximum(x_min, y_min), x_max, y_min),
        nb.lower_corner(a, b, c, nb.maximum(x_min, y_hi), x_max, y_hi),
    )
    extra = (y_min < x_min) & (x_min < y_hi)
    return nb.vertex(sl, extra, a, b, c, x_min), extra, err


def _pair_slack(nb, x_min, x_max, y_min, y_max, h, delta, p):
    """Corner-minimum slack of the strengthened pair inequality (gamma = 1);
    h holds lower bounds on H at x_min, x_max, y_min, y_max."""
    c1a, c1b = nb.chord(x_min, x_max, h[0], h[1])        # H(x), lower
    c2a, c2b = nb.chord(y_min, y_max, h[2], h[3])        # H(y), lower
    t3a, t3b = nb.tangent(                               # H(y/delta), upper
        nb.minimum(y_min / delta, 1), nb.minimum(y_max / delta, 1)
    )
    t4a, t4b = nb.tangent(                               # H((x-y)/(1-delta)), upper
        nb.clip((x_min - y_max) / (1 - delta)), nb.clip((x_max - y_min) / (1 - delta))
    )
    t5a, t5b = nb.tangent(nb.clip(y_min / x_max), nb.clip(y_max / x_min))  # H(y/x), upper
    # strengthened LHS - RHS = A + B*x + C*y, each coefficient a sum of products
    A = [(1 - p) * c1a, c2a, -delta * t3a, -(1 - delta) * t4a]
    B = [(1 - p) * c1b, 2 * p * nb.log(2), -t4b, -t5a]
    C = [c2b, -t3b, t4b, -t5b]
    # the lists now hold the only references to the envelopes, so that
    # _corner_min frees them once it has summed the lists
    del c1a, c1b, c2a, c2b, t3a, t3b, t4a, t4b, t5a, t5b
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
    c3a, c3b = nb.chord(y_min, y_max, h[2], h[3])        # H(y), lower
    t4a, t4b = nb.tangent(                               # H(y/delta), upper
        nb.minimum(y_min / delta, 1), nb.minimum(y_max / delta, 1)
    )
    t5a, t5b = nb.tangent(                               # H((x-y)/(1-delta)), upper
        nb.clip((x_min - y_max) / (1 - delta)), nb.clip((x_max - y_min) / (1 - delta))
    )
    t6a, t6b = nb.tangent(nb.clip(y_min / e_max), nb.clip(y_max / e_min))  # H(y/e(x)), upper
    A = [(1 - boost) * c1a, boost * c2a * ea, c3a, -delta * t4a, -(1 - delta) * t5a, t6a * -ea]
    B = [(1 - boost) * c1b, boost * c2a * eb, boost * c2b, -t5b, t6a * -eb]
    C = [c3b, -t4b, t5b, -t6b]
    del c1a, c1b, c2a, c2b, c3a, c3b, t4a, t4b, t5a, t5b, t6a, t6b  # as in _pair_slack
    return _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max)


def _ranks_before(slack, best):
    """Whether a cell of this slack displaces the minimum so far: NaN ranks
    first, so that a scan reports it, then lower values; ties keep the
    earlier cell."""
    return slack < best or (math.isnan(slack) and not math.isnan(best))


def _certify(lemma, params, weight, slack_fn, slack_args, intervals,
             grid_n, margin, confirm, slack_csv) -> CertReport:
    """Scan ``slack_fn`` over a grid_n x grid_n subdivision of every x-interval
    times y in [0, min(x, delta)], a block of x-rows per call, folding the
    cell slacks in row-major order.
    ``params`` (the report's echo) holds ``delta`` and the chord weight named
    ``weight``; ``slack_args(lo, hi)`` gives slack_fn's trailing arguments."""
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
            raise ValueError(f"x interval [{lo}, {hi}] must be inside (0, 1)")
        if float(hi) + delta - 1.0 > 0.0:
            raise ValueError("the lower constraint y >= x + delta - 1 would become active")

    min_slack, argmin, corners, fail_count, error_bound = math.inf, None, 0, 0, 0.0
    failing, spots = [], []
    rows = max(1, _BLOCK_CELLS // grid_n)
    steps = np.arange(grid_n + 1, dtype=float)
    with open(slack_csv, "w", newline="") if slack_csv else contextlib.nullcontext() as fh:
        writer = csv.writer(fh) if fh else None
        for idx, (lo, hi) in enumerate(intervals):
            args = slack_args(lo, hi)
            xs = np.linspace(float(lo), float(hi), grid_n + 1)[:, None]
            hx = entropy_lower(xs)
            spot = (math.inf, None, None)  # (slack, (i, j), cell) of the interval's minimum
            for r0 in range(0, grid_n, rows):
                r1 = min(r0 + rows, grid_n)
                x_min, x_max = xs[r0:r1], xs[r0 + 1 : r1 + 1]
                y_top = np.minimum(x_max, delta)
                # rows that all reach y = delta share one y-row, and with it
                # every term that depends on y alone
                if np.all(y_top == delta):
                    y_top = y_top[:1]
                # np.linspace(0, y_top, grid_n + 1) bit for bit, but row-major
                ys = steps * (y_top / grid_n)
                ys[:, -1] = y_top[:, 0]
                hy = entropy_lower(ys)
                sl, extra, err = slack_fn(
                    _F64, x_min, x_max, ys[:, :-1], ys[:, 1:],
                    (hx[r0:r1], hx[r0 + 1 : r1 + 1], hy[:, :-1], hy[:, 1:]), *args,
                )
                corners += 4 * sl.size + int(np.count_nonzero(extra))
                error_bound = max(error_bound, float(np.max(err)))
                # argmin takes the first of equal minima in row-major order
                # (the first NaN, if any), and a later block must rank
                # strictly before it: the earliest cell wins
                i, j = divmod(int(np.argmin(sl)), grid_n)
                if spot[1] is None or _ranks_before(sl[i, j], spot[0]):
                    y_ends = ys[i if len(ys) > 1 else 0, j : j + 2].tolist()
                    cell = (float(x_min[i, 0]), float(x_max[i, 0]), *y_ends)
                    spot = (float(sl[i, j]), (r0 + i, j), cell)
                # negated, so that a NaN slack fails
                bad = np.flatnonzero(~(sl - err >= margin))
                fail_count += len(bad)
                for k in bad[: _FAIL_CAP - len(failing)].tolist():
                    ib, jb = divmod(k, grid_n)
                    failing.append((idx, r0 + ib, jb, float(sl[ib, jb])))
                if writer:
                    for row, (srow, erow) in enumerate(zip(sl.tolist(), err.tolist()), r0):
                        writer.writerows(
                            [idx, row, col, repr(s), repr(e)]
                            for col, (s, e) in enumerate(zip(srow, erow))
                        )
            if argmin is None or _ranks_before(spot[0], min_slack):
                min_slack, argmin = spot[0], (idx, *spot[1])
            spots.append((spot[0], spot[2], args))

    recheck = _recheck(spots, slack_fn, margin) if confirm else None
    return CertReport(
        lemma=lemma,
        params=params,
        grid=grid_n,
        margin=margin,
        min_slack=min_slack,
        argmin_cell=argmin,
        corners_evaluated=corners,
        cells_checked=len(intervals) * grid_n * grid_n,
        failing_cells=failing,
        failing_count=fail_count,
        error_bound=error_bound,
        runtime_seconds=time.perf_counter() - t0,
        recheck=recheck,
    )


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
    """Enclose in mpmath.iv the slack of each (scan slack, cell, args); the
    lower ends must clear the margin.  A cell whose scan slack is not finite
    has nothing to confirm, and leaves the check not clear."""
    lows = [_iv_slack(slack_fn, cell, args).a for sl, cell, args in spots if math.isfinite(sl)]
    worst = min(lows, default=math.nan)
    return {
        "cells": len(lows),
        "precision_bits": _RECHECK_BITS,
        "min_slack": float(worst),
        "all_clear": len(lows) == len(spots) and bool(worst >= margin),
    }


def certify_pair_inequality(
    delta=0.325,
    p=0.45,
    x_range=(0.3, 0.3322),
    grid_n: int = 1000,
    margin: float = 1e-4,
    confirm: bool = False,
    slack_csv: str | None = None,
) -> CertReport:
    """Certify, over x in x_range and y in [0, min(x, delta)], that

        H(x)(1-p) + 2*p*x*H(1/2) + H(y)
            > delta*H(y/delta) + (1-delta)*H((x-y)/(1-delta)) + x*H(y/x)

    by at least ``margin``, using a grid_n x grid_n subdivision with chord and
    tangent strengthening and corner evaluation.  This is the paper's pair
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
    """Affine coefficients (ea, eb) of the profile on [lo, hi]; the interval
    must sit inside a single increasing, positive segment (the interval
    enclosures below rely on both)."""
    lo_f, hi_f = as_fraction(lo), as_fraction(hi)
    for (x0, y0), (x1, y1) in zip(profile.breakpoints, profile.breakpoints[1:]):
        if as_fraction(x0) <= lo_f and hi_f <= as_fraction(x1):
            eb = Fraction(as_fraction(y1) - as_fraction(y0)) / (as_fraction(x1) - as_fraction(x0))
            ea = as_fraction(y0) - eb * as_fraction(x0)
            if eb <= 0 or ea + eb * lo_f <= 0:
                raise ValueError(
                    f"profile must be increasing and positive on [{lo}, {hi}]"
                )
            return float(ea), float(eb)
    raise ValueError(f"[{lo}, {hi}] does not lie inside one linear segment of the profile")


def certify_expansion_inequality(
    delta=0.325,
    boost=0.18,
    constants: ProfileConstants | None = None,
    x_intervals=None,
    grid_n: int = 1000,
    margin: float = 1e-4,
    confirm: bool = False,
    slack_csv: str | None = None,
) -> CertReport:
    """Certify, over each given x-interval and y in [0, min(x, delta)], that

        H(x)(1-boost) + boost*e(x)*H(x/e(x)) + H(y)
            > delta*H(y/delta) + (1-delta)*H((x-y)/(1-delta)) + e(x)*H(y/e(x))

    by at least ``margin``, where e is the piecewise-linear expansion profile
    of ``constants`` and boost lies in [0, 1].  Every x-interval must lie
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
