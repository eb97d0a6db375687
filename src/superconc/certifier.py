"""Grid certification of the two entropy inequalities behind the fractional
degree d = 5.325, plus direct (pointwise) checks of the closed-form degree
conditions.

The certified inequalities compare sums of weighted entropy terms H(V) where
every V is affine in the cell coordinates (x, y) or becomes affine after
multiplying by its weight.  On each grid cell the left-hand terms are replaced
by chords (below H on the enclosure of V) and the right-hand terms by midpoint
tangents (above H everywhere), which strengthens the inequality into an affine
one; an affine function attains its minimum over a convex cell polygon at an
extreme point, so checking the corner points certifies the whole cell.

Enclosures of the V expressions are interval images of the cell, truncated to
[0, 1].  The slack recorded for a cell is the minimum over its corners of
strengthened LHS minus strengthened RHS; certification requires every slack
to clear the margin.

Each inequality and the corner rule are written once against a number
backend: float64 over one x-cell and a numpy row of y-cells, or mpmath over
one cell.  The optional recheck (``confirm``) re-evaluates at 113 bits exactly
the scanned float64 cells whose slack is below ten times the margin, with the
scan's float64 cell endpoints converted exactly to mpf.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np

from ._entropy_numeric import chord_coefficients, entropy_mp, tangent_coefficients
from .entropy import entropy
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
    "RatioCheckReport",
    "direct_check_ratio",
    "DegreeCheck",
    "check_pairexp_degree",
]

_FAIL_CAP = 10_000
_NEAR_CAP = 200_000  # per x-interval
_RECHECK_BITS = 113


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
    runtime_seconds: float
    recheck: dict | None = None

    @property
    def passed(self) -> bool:
        ok = self.failing_count == 0 and self.min_slack >= self.margin
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


# float64 backend: x quantities are floats, y quantities numpy rows.  chord and
# tangent look up the module-level names at each call, so a wrapper installed
# on them (as the benchmark tracer does) sees every call.
_F64 = SimpleNamespace(
    chord=lambda lo, hi: chord_coefficients(lo, hi),
    tangent=lambda lo, hi: tangent_coefficients(lo, hi),
    clip=lambda v: np.clip(v, 0.0, 1.0),
    minimum=np.minimum,
    maximum=np.maximum,
    where=np.where,
    log=math.log,
)


def _mp_chord(lo, hi):
    h_lo = entropy_mp(lo)
    if hi == lo:
        return h_lo, mpmath.mpf(0)
    slope = (entropy_mp(hi) - h_lo) / (hi - lo)
    return h_lo - slope * lo, slope


def _mp_tangent(lo, hi):
    m = (lo + hi) / 2
    if m <= 0 or m >= 1:
        return mpmath.mpf(0), mpmath.mpf(0)
    slope = mpmath.log((1 - m) / m)
    return entropy_mp(m) - slope * m, slope


# mpmath backend: every quantity is an mpf scalar at the working precision.
_MP = SimpleNamespace(
    chord=_mp_chord,
    tangent=_mp_tangent,
    clip=lambda v: min(max(v, mpmath.mpf(0)), mpmath.mpf(1)),
    minimum=min,
    maximum=max,
    where=lambda cond, a, b: a if cond else b,
    log=mpmath.log,
)


def _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max):
    """Minimum of A + B*x + C*y over the extreme points of each feasible cell
    (y_min <= x_max) clipped to y <= x, and the mask of cells whose diagonal
    crosses the left edge, adding the vertex (x_min, x_min) to four corners."""
    y_hi = nb.minimum(y_max, x_max)
    s1 = A + B * nb.maximum(x_min, y_min) + C * y_min
    s2 = A + B * x_max + C * y_min
    s3 = A + B * nb.maximum(x_min, y_hi) + C * y_hi
    s4 = A + B * x_max + C * y_hi
    sl = nb.minimum(nb.minimum(s1, s2), nb.minimum(s3, s4))
    extra = (y_min < x_min) & (x_min < y_hi)
    if np.any(extra):
        s5 = A + B * x_min + C * x_min
        sl = nb.where(extra, nb.minimum(sl, s5), sl)
    return sl, extra


def _pair_slack(nb, x_min, x_max, y_min, y_max, delta, p):
    """Corner-minimum slack of the strengthened pair inequality (gamma = 1)."""
    c1a, c1b = nb.chord(x_min, x_max)                    # H(x), lower
    c2a, c2b = nb.chord(y_min, y_max)                    # H(y), lower
    t3a, t3b = nb.tangent(                               # H(y/delta), upper
        nb.minimum(y_min / delta, 1), nb.minimum(y_max / delta, 1)
    )
    t4a, t4b = nb.tangent(                               # H((x-y)/(1-delta)), upper
        nb.clip((x_min - y_max) / (1 - delta)), nb.clip((x_max - y_min) / (1 - delta))
    )
    t5a, t5b = nb.tangent(nb.clip(y_min / x_max), nb.clip(y_max / x_min))  # H(y/x), upper
    # strengthened LHS - RHS = A + B*x + C*y
    A = (1 - p) * c1a + c2a - delta * t3a - (1 - delta) * t4a
    B = (1 - p) * c1b + 2 * p * nb.log(2) - t4b - t5a
    C = c2b - t3b + t4b - t5b
    return _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max)


def _expansion_slack(nb, x_min, x_max, y_min, y_max, delta, boost, ea, eb):
    """Corner-minimum slack of the strengthened expansion inequality, with
    e(x) = ea + eb*x affine on the whole x-interval."""
    e_min = ea + eb * x_min
    e_max = ea + eb * x_max
    c1a, c1b = nb.chord(x_min, x_max)                    # H(x), lower
    r0, r1 = x_min / e_min, x_max / e_max                # x/e(x) is monotone on the cell
    c2a, c2b = nb.chord(min(r0, r1), max(r0, r1))
    c3a, c3b = nb.chord(y_min, y_max)                    # H(y), lower
    t4a, t4b = nb.tangent(                               # H(y/delta), upper
        nb.minimum(y_min / delta, 1), nb.minimum(y_max / delta, 1)
    )
    t5a, t5b = nb.tangent(                               # H((x-y)/(1-delta)), upper
        nb.clip((x_min - y_max) / (1 - delta)), nb.clip((x_max - y_min) / (1 - delta))
    )
    t6a, t6b = nb.tangent(nb.clip(y_min / e_max), nb.clip(y_max / e_min))  # H(y/e(x)), upper
    A = (1 - boost) * c1a + boost * c2a * ea + c3a - delta * t4a - (1 - delta) * t5a - t6a * ea
    B = (1 - boost) * c1b + boost * (c2a * eb + c2b) - t5b - t6a * eb
    C = c3b - t4b + t5b - t6b
    return _corner_min(nb, A, B, C, x_min, x_max, y_min, y_max)


def _certify(lemma, params, weight, slack_fn, slack_args, intervals,
             grid_n, margin, confirm, slack_csv) -> CertReport:
    """Scan ``slack_fn`` over a grid_n x grid_n subdivision of every x-interval
    times y in [0, min(x, delta)], folding the cell slacks in row order.
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

    near_cut = 10.0 * margin
    min_slack, argmin, corners, fail_count = math.inf, None, 0, 0
    failing, near, grids = [], [], []
    with open(slack_csv, "w", newline="") if slack_csv else contextlib.nullcontext() as fh:
        writer = csv.writer(fh) if fh else None
        for idx, (lo, hi) in enumerate(intervals):
            args = slack_args(lo, hi)
            xs = np.linspace(float(lo), float(hi), grid_n + 1)
            grids.append((xs, args))
            near_start = len(near)
            for i in range(grid_n):
                x_min, x_max = float(xs[i]), float(xs[i + 1])
                ys = np.linspace(0.0, min(x_max, delta), grid_n + 1)
                sl, extra = slack_fn(_F64, x_min, x_max, ys[:-1], ys[1:], *args)
                corners += 4 * grid_n + int(np.count_nonzero(extra))
                j = int(np.argmin(sl))
                if sl[j] < min_slack:
                    min_slack = float(sl[j])
                    argmin = (idx, i, j)
                bad = np.nonzero(sl < margin)[0]
                fail_count += len(bad)
                failing.extend(
                    (idx, i, int(jb), float(sl[jb])) for jb in bad[: _FAIL_CAP - len(failing)]
                )
                close = np.nonzero(sl < near_cut)[0]
                near.extend(
                    (idx, i, int(jc)) for jc in close[: _NEAR_CAP - (len(near) - near_start)]
                )
                if writer:
                    writer.writerows([idx, i, k, repr(float(s))] for k, s in enumerate(sl))

    recheck = _recheck(near, grids, slack_fn, delta, grid_n, margin) if confirm else None
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
        runtime_seconds=time.perf_counter() - t0,
        recheck=recheck,
    )


def _recheck(cells, grids, slack_fn, delta, grid_n, margin) -> dict:
    """Re-evaluate the scanned cells (interval, i, j) in mpmath, rebuilding
    each row's y-grid as the scan built it; float64 inputs convert exactly."""
    mpf = mpmath.mpf
    worst = None
    with mpmath.workprec(_RECHECK_BITS):
        for idx, i, j in cells:
            xs, args = grids[idx]
            ys = np.linspace(0.0, min(float(xs[i + 1]), delta), grid_n + 1)
            sl, _ = slack_fn(
                _MP, mpf(float(xs[i])), mpf(float(xs[i + 1])),
                mpf(float(ys[j])), mpf(float(ys[j + 1])), *(mpf(a) for a in args),
            )
            worst = sl if worst is None else min(worst, sl)
    return {
        "cells": len(cells),
        "precision_bits": _RECHECK_BITS,
        "min_slack": None if worst is None else float(worst),
        "all_clear": worst is None or bool(worst >= margin),
    }


def certify_pair_inequality(
    delta=0.325,
    gamma=1.0,
    p=0.45,
    x_range=(0.3, 0.3322),
    grid_n: int = 1000,
    margin: float = 1e-4,
    confirm: bool = False,
    slack_csv: str | None = None,
) -> CertReport:
    """Certify, over x in x_range and y in [0, min(x, delta)], that

        H(x)(1-p) + 2*gamma*p*x*H(1/(2*gamma)) + H(y)
            > delta*H(y/delta) + (1-delta)*H((x-y)/(1-delta)) + gamma*x*H(y/(gamma*x))

    by at least ``margin``, using a grid_n x grid_n subdivision with chord and
    tangent strengthening and corner evaluation.  Only gamma = 1 is supported;
    p must lie in [0, 1].
    """
    delta, p = float(delta), float(p)
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if gamma != 1.0:
        raise ValueError("only gamma = 1 is supported")
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


@dataclass(frozen=True)
class RatioCheckReport:
    """Pointwise minimum slack of a degree requirement over an alpha grid.

    This scan evaluates the requirement at grid points only; unlike the cell
    certification above it proves nothing between them.
    """

    kind: str
    d_plus_c: float
    alpha_range: tuple
    grid_n: int
    min_slack: float
    argmin_alpha: float
    certified: bool = False

    @property
    def passed(self) -> bool:
        return self.min_slack > 0.0


def direct_check_ratio(
    d_plus_c: float,
    *,
    profile: PiecewiseLinear | None = None,
    gamma=None,
    alpha_range,
    grid_n: int = 1000,
) -> RatioCheckReport:
    """Evaluate d_plus_c minus the governing entropy ratio on a grid.

    With ``profile`` the ratio is (H(a) + H(e(a))) / (H(a) - H(a/e(a))*e(a));
    with ``gamma`` it is (H(a) + H(2*gamma*a)/2) / (H(a) - 2*gamma*a*H(1/(2*gamma))).
    The denominator must be positive on the whole grid, otherwise the check is
    rejected as ill-posed.
    """
    if (profile is None) == (gamma is None):
        raise ValueError("give exactly one of profile or gamma")
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not 0.0 < lo <= hi < 1.0:
        raise ValueError(f"alpha range [{lo}, {hi}] must be inside (0, 1)")
    alphas = np.linspace(lo, hi, grid_n + 1)
    h_a = entropy(alphas)
    if profile is not None:
        e_vals = np.asarray([float(profile.eval(a)) for a in alphas])
        if np.any(e_vals <= alphas) or np.any(e_vals > 1.0):
            raise ValueError("profile must satisfy alpha < e(alpha) <= 1 on the range")
        numer = h_a + entropy(e_vals)
        denom = h_a - entropy(alphas / e_vals) * e_vals
        kind = "expansion"
    else:
        gamma = float(gamma)
        if gamma < 0.5:
            raise ValueError(f"gamma={gamma} must be at least 1/2")
        if 2.0 * gamma * hi > 1.0:
            raise ValueError(f"need 2*gamma*alpha <= 1 on the range, got {2 * gamma * hi}")
        numer = h_a + 0.5 * entropy(2.0 * gamma * alphas)
        denom = h_a - 2.0 * gamma * alphas * entropy(1.0 / (2.0 * gamma))
        kind = "pair"
    if np.any(denom <= 0.0):
        bad = float(alphas[int(np.argmin(denom))])
        raise ValueError(f"nonpositive denominator near alpha={bad}; requirement ill-posed there")
    slack = d_plus_c - numer / denom
    j = int(np.argmin(slack))
    return RatioCheckReport(
        kind=kind,
        d_plus_c=float(d_plus_c),
        alpha_range=(lo, hi),
        grid_n=grid_n,
        min_slack=float(slack[j]),
        argmin_alpha=float(alphas[j]),
    )


@dataclass(frozen=True)
class DegreeCheck:
    passed: bool
    slack: float
    threshold: float


def check_pairexp_degree(d, gamma, eps1) -> DegreeCheck:
    """Check d > 1 + gamma*(1-eps1)/(1-2*gamma*eps1) in exact arithmetic.

    The threshold has a pole at 2*gamma*eps1 = 1; arguments at or past it are
    rejected.
    """
    d = as_fraction(d)
    gamma = as_fraction(gamma)
    eps1 = as_fraction(eps1)
    if 2 * gamma * eps1 >= 1:
        raise ValueError(f"2*gamma*eps1 = {2 * gamma * eps1} >= 1: threshold diverges")
    threshold = 1 + gamma * (1 - eps1) / (1 - 2 * gamma * eps1)
    slack = d - threshold
    return DegreeCheck(passed=slack > 0, slack=float(slack), threshold=float(threshold))
