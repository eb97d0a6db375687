import contextlib
import csv
import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from superconc import certifier
from superconc.certifier import (
    _BLOCK_CELLS,
    _F64,
    _FAIL_CAP,
    _GAMMA,
    _IV,
    _corner_min,
    _expansion_slack,
    _iv_chord,
    _iv_slack,
    _iv_tangent,
    _pair_slack,
    _recheck,
    _segment_for,
    CertReport,
    certify_expansion_inequality,
    certify_pair_inequality,
    entropy_lower,
)
from superconc.entropy import entropy
from superconc.profiles import PiecewiseLinear, as_fraction, density253_constants, expansion_profile

C = density253_constants()
PROFILE = expansion_profile(C)


# --- corner geometry -----------------------------------------------------------


def _corner_min_both(A, B, Cc, x_min, x_max, y_min, y_max):
    """_corner_min on one cell with both backends; asserts that the interval
    enclosure holds the float64 minimum to within its rounding bound and
    returns (slack, extra)."""
    sl, extra, err = _corner_min(
        _F64, [A], [B], [Cc], x_min, x_max, np.array([y_min]), np.array([y_max])
    )
    prec, iv.prec = iv.prec, 113
    try:
        sl_iv, extra_iv, _ = _corner_min(
            _IV, [iv.mpf(A)], [iv.mpf(B)], [iv.mpf(Cc)], x_min, x_max, y_min, y_max
        )
    finally:
        iv.prec = prec
    assert bool(extra[0]) == extra_iv
    assert sl_iv.a - err[0] <= sl[0] <= sl_iv.b + err[0]
    assert float(sl_iv.b - sl_iv.a) < 1e-30
    return float(sl[0]), extra_iv


def test_corner_points_straddling_cell():
    # the diagonal crosses the left edge, so (0.3, 0.3) joins the four corners
    # (0.3, 0.29), (0.31, 0.29), (0.305, 0.305), (0.31, 0.305); 2x - y is
    # smallest there, and 0.305 without it
    sl, extra = _corner_min_both(0.0, 2.0, -1.0, 0.3, 0.31, 0.29, 0.305)
    assert extra
    assert sl == pytest.approx(0.3, abs=1e-15)


def test_corner_points_cell_below_diagonal():
    rng = random.Random(5)
    pts = [(0.5, 0.1), (0.6, 0.1), (0.5, 0.2), (0.6, 0.2)]
    for _ in range(20):
        A, B, Cc = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
        sl, extra = _corner_min_both(A, B, Cc, 0.5, 0.6, 0.1, 0.2)
        assert not extra
        assert sl == pytest.approx(min(A + B * x + Cc * y for x, y in pts), abs=1e-15)


def test_corner_minimum_dominates_feasible_polygon():
    # an affine function over the clipped cell attains its minimum at one of
    # the corners _corner_min evaluates
    rng = random.Random(11)
    for _ in range(200):
        x0 = rng.uniform(0.05, 0.8)
        x1 = x0 + rng.uniform(1e-4, 0.1)
        y0 = rng.uniform(0.0, 0.8)
        y1 = y0 + rng.uniform(1e-4, 0.1)
        if y0 > x1:
            continue  # infeasible; the scan never builds such a cell
        A, B, Cc = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
        corner_min, _ = _corner_min_both(A, B, Cc, x0, x1, y0, y1)
        for i in range(20):
            for j in range(20):
                x = x0 + (x1 - x0) * i / 19
                y = y0 + (y1 - y0) * j / 19
                if y > x:
                    continue
                assert A + B * x + Cc * y >= corner_min - 1e-12


def _corner_min_four(A, B, Cc, x_min, x_max, y_min, y_max):
    """The corner rule as the float64 scan first formed it: all four corners
    with nested minima, and the fifth vertex evaluated on every cell and
    merged by np.where; the reference the five-point rule must match."""
    a, b, c = sum(A), sum(B), sum(Cc)
    err = _GAMMA * (sum(map(abs, A)) + sum(map(abs, B)) * x_max + sum(map(abs, Cc)) * y_max)
    y_hi = np.minimum(y_max, x_max)
    sl = np.minimum(
        np.minimum(a + b * np.maximum(x_min, y_min) + c * y_min, a + b * x_max + c * y_min),
        np.minimum(a + b * np.maximum(x_min, y_hi) + c * y_hi, a + b * x_max + c * y_hi),
    )
    extra = (y_min < x_min) & (x_min < y_hi)
    if np.any(extra):
        sl = np.where(extra, np.minimum(sl, a + b * x_min + c * x_min), sl)
    return sl, extra, err


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


# eighths make corners tie exactly; signed zeros pick either corner
_COEF = st.one_of(
    st.sampled_from([0.0, -0.0, 0.125, -0.125, 1.0, -1.0, 2.5, -2.5]),
    st.floats(-4.0, 4.0),
)
_EIGHTHS = st.integers(0, 7).map(lambda k: k / 8)


@st.composite
def _cell_block(draw, shape):
    """Feasible cells (y_min <= x_max): x-ends of the given (rows, 1) shape,
    y-ends of shape (1, n) or (rows, n), some on eighths, some crossed by the
    diagonal."""
    rows, n = shape
    ends = st.one_of(_EIGHTHS, st.floats(0.0, 0.875))
    def values(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    x_min = values(ends.map(lambda v: v + 1 / 16), rows)
    x_max = x_min + values(st.sampled_from([0.125, 0.0625, 0.01]), rows)
    y_rows = draw(st.sampled_from([1, rows]))
    y_min = values(ends, y_rows * n).reshape(y_rows, n)
    y_min = np.minimum(y_min, x_max[:, None].min())  # feasible for every x-row
    y_max = y_min + draw(st.sampled_from([0.125, 0.0625, 0.02]))
    return x_min[:, None], x_max[:, None], y_min, y_max


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_COEF, min_size=3, max_size=3),
    st.lists(_COEF, min_size=3, max_size=3),
    st.lists(_COEF, min_size=3, max_size=3),
    st.data(),
)
@example([-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], None)  # sums are +0.0
@example([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, -0.0], None)
@example([1.0, 0.0, 0.0], [0.0, -0.0, 0.0], [-1.0, 0.0, 0.0], None)
def test_sign_picked_corners_match_the_four_corner_form(a, b, c, data):
    # the four corners and the diagonal point, bit for bit against the
    # reference; each product list is a column term, a row term and a
    # scalar, so the in-place sums meet every broadcast and the sign of b can
    # change from cell to cell; the same coefficients on scalar cells come last
    if data is None:
        cells = [(0.375, 0.5, np.array([[0.25, 0.375]]), np.array([[0.375, 0.5]]), 1.0, 1.0)]
    else:
        rows, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        x_min, x_max, y_min, y_max = data.draw(_cell_block((rows, n)))
        scale = st.sampled_from([1.0, -1.0, 0.5, -0.0])
        col = np.array(data.draw(st.lists(scale, min_size=rows, max_size=rows)))[:, None]
        row = np.array(data.draw(st.lists(scale, min_size=y_min.size, max_size=y_min.size)))
        cells = [(x_min, x_max, y_min, y_max, col, row.reshape(y_min.shape))]
        cells.append((*(float(v.flat[0]) for v in (x_min, x_max, y_min, y_max)), 1.0, 1.0))
    for x_min, x_max, y_min, y_max, col, row in cells:

        def lists():
            return [[a[0] * col, a[1] * row, a[2]], [b[0] * col, b[1] * row, b[2]],
                    [c[0] * col, c[1] * row, c[2]]]

        inputs = [np.copy(v) for v in (x_min, x_max, y_min, y_max)]
        got = _corner_min(_F64, *lists(), x_min, x_max, y_min, y_max)
        want = _corner_min_four(*lists(), x_min, x_max, y_min, y_max)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and _bits(g) == _bits(w)
        # nothing the caller passed was written to
        assert all(_bits(u) == _bits(v) for u, v in zip(inputs, (x_min, x_max, y_min, y_max)))


# --- pair inequality -----------------------------------------------------------


def test_pair_certification_passes_on_coarse_grid():
    report = certify_pair_inequality(grid_n=100)
    assert report.passed
    assert report.min_slack >= report.margin
    assert report.failing_count == 0
    assert report.cells_checked == 100 * 100


def test_pair_certification_fails_when_margin_exceeds_min_slack():
    base = certify_pair_inequality(grid_n=100)
    report = certify_pair_inequality(grid_n=100, margin=base.min_slack + 1e-6)
    assert not report.passed
    assert report.failing_count >= 1
    assert report.failing_cells == sorted(report.failing_cells)
    worst = min(s for _, _, _, s in report.failing_cells)
    assert worst == pytest.approx(base.min_slack, abs=1e-15)


def test_pair_certification_subtracts_each_cells_rounding_bound():
    # a cell passes only when its slack minus its own rounding bound clears
    # the margin, so the minimum cell fails a margin equal to its slack
    base = certify_pair_inequality(grid_n=100)
    assert 0.0 < base.error_bound < 1e-10
    at = certify_pair_inequality(grid_n=100, margin=base.min_slack)
    assert not at.passed
    assert at.failing_count == 1
    assert at.failing_cells == [(0, *base.argmin_cell[1:], base.min_slack)]
    below = certify_pair_inequality(grid_n=100, margin=base.min_slack - 1e-9)
    assert below.passed and below.failing_count == 0


def test_pair_certification_validation():
    with pytest.raises(ValueError):
        certify_pair_inequality(delta=0.6)
    with pytest.raises(ValueError):
        certify_pair_inequality(delta=0.325, x_range=(0.5, 0.8))  # lower y bound activates
    with pytest.raises(ValueError):
        certify_pair_inequality(grid_n=0)


def test_pair_grid_refinement_does_not_lose_slack():
    coarse = certify_pair_inequality(grid_n=100)
    fine = certify_pair_inequality(grid_n=200)
    assert fine.min_slack >= coarse.min_slack - 1e-12


def test_pair_certification_report_is_reproducible():
    a = certify_pair_inequality(grid_n=80).to_json_dict()
    b = certify_pair_inequality(grid_n=80).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pair_true_inequality_holds_at_interior_points_of_passing_cells():
    delta, p = 0.325, 0.45
    report = certify_pair_inequality(grid_n=50)
    assert report.passed
    xs = [0.3 + (0.3322 - 0.3) * i / 50 for i in range(51)]
    rng = random.Random(4)

    def true_slack(x, y):
        lhs = entropy(x) * (1 - p) + 2 * p * x * entropy(0.5) + entropy(y)
        rhs = (
            delta * entropy(y / delta)
            + (1 - delta) * entropy((x - y) / (1 - delta))
            + x * entropy(y / x)
        )
        return lhs - rhs

    for _ in range(30):
        i = rng.randrange(50)
        x_min, x_max = xs[i], xs[i + 1]
        y_hi = min(x_max, delta)
        for _ in range(10):
            x = rng.uniform(x_min, x_max)
            y = rng.uniform(0.0, min(x, y_hi))
            assert true_slack(x, y) >= 0.0


def test_pair_high_precision_recheck_confirms():
    base = certify_pair_inequality(grid_n=60)
    report = certify_pair_inequality(grid_n=60, margin=base.min_slack / 2, confirm=True)
    assert report.recheck is not None
    assert report.recheck["cells"] == 1
    assert report.recheck["all_clear"] is True
    assert report.recheck["min_slack"] == pytest.approx(base.min_slack, abs=base.error_bound)
    assert report.passed


def test_pair_recheck_encloses_one_cell_per_interval():
    base = certify_pair_inequality(grid_n=60)
    report = certify_pair_inequality(grid_n=60, confirm=True)
    assert report.recheck == {
        "cells": 1,
        "precision_bits": 113,
        "min_slack": pytest.approx(base.min_slack, abs=base.error_bound),
        "all_clear": True,
    }
    # the enclosure is judged against the margin on its own
    high = certify_pair_inequality(grid_n=60, margin=base.min_slack + 1e-6, confirm=True)
    assert high.recheck["all_clear"] is False and not high.passed


def _leaves(path):
    """(slack, bound) per (interval, i0, i1, j0, j1) leaf of a --slack-csv dump."""
    with open(path, newline="") as fh:
        return {tuple(map(int, row[:5])): (float(row[5]), float(row[6])) for row in csv.reader(fh)}


def test_recheck_covers_exactly_the_argmin_cells(tmp_path):
    # one leaf per x-interval: the interval's lowest leaf
    path = tmp_path / "slacks.csv"
    report = certify_expansion_inequality(grid_n=30, confirm=True, slack_csv=str(path))
    leaves = _leaves(path)
    minima = [min(s for key, (s, _) in leaves.items() if key[0] == idx) for idx in range(4)]
    assert report.recheck["cells"] == 4
    assert min(minima) == report.min_slack
    assert report.recheck["min_slack"] == pytest.approx(min(minima), abs=report.error_bound)
    assert report.recheck["all_clear"] is True


def _leaf_args(lemma, report, idx, i0, i1, j0, j1):
    """The float64 rectangle (x_min, x_max, y_min, y_max) the driver builds
    for a leaf, and its slack function's trailing arguments: y runs from row
    i0's node j0 to row i1-1's node j1 of the grid."""
    n, delta = report.grid, report.params["delta"]
    if lemma == "pair":
        lo, hi = report.params["x_range"]
        args = (delta, report.params["p"])
    else:
        lo, hi = report.params["x_intervals"][idx]
        args = (delta, report.params["boost"], *_segment_for(PROFILE, lo, hi))
    xs = np.linspace(lo, hi, n + 1)
    y_min = np.linspace(0.0, min(float(xs[i0 + 1]), delta), n + 1)[j0]
    y_max = np.linspace(0.0, min(float(xs[i1]), delta), n + 1)[j1]
    return (float(xs[i0]), float(xs[i1]), float(y_min), float(y_max)), args


@pytest.mark.parametrize(
    "lemma, run, slack_fn",
    [
        ("pair", certify_pair_inequality, _pair_slack),
        ("expansion", certify_expansion_inequality, _expansion_slack),
    ],
)
def test_interval_enclosure_contains_scan_slack(tmp_path, lemma, run, slack_fn):
    # oracle: the same slack formula in 113-bit interval arithmetic, with exact
    # chords and tangents, on the argmin leaf and 60 seeded leaves, grid cells
    # and wider rectangles alike
    path = tmp_path / "slacks.csv"
    report = run(grid_n=12, slack_csv=str(path))
    leaves = _leaves(path)
    argmin = next(key for key in leaves if (key[0], key[1], key[3]) == report.argmin_cell)
    picks = [argmin] + random.Random(8).sample(sorted(leaves), min(60, len(leaves)))
    assert any(key[2] - key[1] > 1 for key in picks)
    for key in picks:
        cell, args = _leaf_args(lemma, report, *key)
        enc = _iv_slack(slack_fn, cell, args)
        assert float(enc.b - enc.a) < 1e-20
        assert enc.a - report.error_bound <= leaves[key][0] <= enc.b + report.error_bound


# --- expansion inequality --------------------------------------------------------


def test_expansion_certification_passes_on_coarse_grid():
    report = certify_expansion_inequality(grid_n=100)
    assert report.passed
    assert report.cells_checked == 4 * 100 * 100
    assert len(report.params["x_intervals"]) == 4


def test_expansion_zero_boost_regression():
    report = certify_expansion_inequality(boost=0.0, grid_n=200)
    assert report.passed
    assert report.failing_count == 0
    assert report.min_slack == pytest.approx(0.04959734098462151, abs=1e-9)
    assert report.argmin_cell == (0, 0, 34)


def test_expansion_single_cell_matches_scalar_envelope_oracle():
    c3, c5 = float(C.c3), float(C.c5)
    delta, boost = 0.325, 0.18
    report = certify_expansion_inequality(
        x_intervals=[(c3, c5)], grid_n=1, margin=1e-4
    )
    # oracle: assemble the strengthened inequality from exact scalar envelopes
    # in 113-bit interval arithmetic, written out here independently of the
    # certifier's coefficient lists
    prec, iv.prec = iv.prec, 113
    try:
        ea = iv.mpf(float(C.c4 - C.c3))  # e(x) = ea + x on (c3, c5)
        x_min, x_max = c3, c5
        y_min, y_max = 0.0, min(x_max, delta)
        e_min, e_max = ea + x_min, ea + x_max
        h1 = _iv_chord(x_min, x_max)
        h2 = _iv_chord(x_min / e_min, x_max / e_max)
        h3 = _iv_chord(y_min, y_max)
        t4 = _iv_tangent(y_min / iv.mpf(delta), y_max / iv.mpf(delta))
        t5 = _iv_tangent((x_min - y_max) / iv.mpf(1 - delta), (x_max - y_min) / iv.mpf(1 - delta))
        t6 = _iv_tangent(y_min / e_max, y_max / e_min)

        def line(env, v):
            return env[0] + env[1] * v

        def slack(x, y):
            e = ea + x
            lhs = (1 - boost) * line(h1, x) + boost * e * line(h2, x / e) + line(h3, y)
            rhs = (
                delta * line(t4, y / iv.mpf(delta))
                + (1 - delta) * line(t5, (x - y) / iv.mpf(1 - delta))
                + e * line(t6, y / e)
            )
            return lhs - rhs

        # the cell lies below the diagonal (y_max = delta < c3 = x_min), so the
        # clipped polygon is the whole rectangle
        assert y_max < x_min
        corners = [slack(x, y) for x in (x_min, x_max) for y in (y_min, y_max)]
        lo = min(c.a for c in corners)
        hi = min(c.b for c in corners)
    finally:
        iv.prec = prec
    assert _segment_for(PROFILE, c3, c5) == (float(C.c4 - C.c3), 1.0)
    assert float(lo) - 1e-12 <= report.min_slack <= float(hi) + 1e-12
    assert report.corners_evaluated == 4


def test_expansion_interval_must_fit_one_segment():
    with pytest.raises(ValueError):
        certify_expansion_inequality(x_intervals=[(0.21, 0.48)], grid_n=10)


def _segment_for_reference(profile, lo, hi):
    """_segment_for as a scan over the segments, each interpolated anew."""
    lo_f, hi_f = as_fraction(lo), as_fraction(hi)
    for (x0, y0), (x1, y1) in zip(profile.breakpoints, profile.breakpoints[1:]):
        if as_fraction(x0) <= lo_f and hi_f <= as_fraction(x1):
            eb = Fraction(as_fraction(y1) - as_fraction(y0)) / (as_fraction(x1) - as_fraction(x0))
            ea = as_fraction(y0) - eb * as_fraction(x0)
            if eb <= 0 or ea + eb * lo_f <= 0:
                raise ValueError(f"profile must be increasing and positive on [{lo}, {hi}]")
            return float(ea), float(eb)
    raise ValueError(f"[{lo}, {hi}] does not lie inside one linear segment of the profile")


@st.composite
def _profile_and_interval(draw):
    """A profile of 2 to 6 rational breakpoints, whose values may fall or
    turn negative, and an interval lo < hi (as _certify hands over) inside a
    segment, across breakpoints or reaching out of the domain."""
    k = draw(st.integers(2, 6))
    unit = st.fractions(min_value=0, max_value=1, max_denominator=24)
    xs = sorted(draw(st.sets(unit, min_size=k, max_size=k)))
    ys = draw(st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=24),
                       min_size=k, max_size=k))
    wide = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2), max_denominator=48)
    point = st.one_of(st.sampled_from(xs), unit, wide)
    # ordered as _segment_for reads them: a float by its shortest decimal
    lo, hi = sorted(draw(st.lists(st.one_of(point, point.map(float)), min_size=2, max_size=2)),
                    key=as_fraction)
    assume(as_fraction(lo) < as_fraction(hi))
    return PiecewiseLinear(zip(xs, ys)), lo, hi


@settings(max_examples=200, deadline=None)
@given(_profile_and_interval())
@example((PROFILE, float(C.c3), float(C.c5)))
@example((PROFILE, 0.21, 0.48))
def test_segment_for_matches_the_segment_scan(case):
    profile, lo, hi = case
    try:
        want = _segment_for_reference(profile, lo, hi)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            _segment_for(profile, lo, hi)
        assert str(got.value) == str(err)
    else:
        assert _segment_for(profile, lo, hi) == want


def test_expansion_validation():
    with pytest.raises(ValueError):
        certify_expansion_inequality(delta=0.0, grid_n=10)
    with pytest.raises(ValueError):
        certify_expansion_inequality(
            x_intervals=[(float(C.c5), 0.9)], grid_n=10
        )  # activates the lower y constraint


def test_expansion_grid_refinement_does_not_lose_slack():
    coarse = certify_expansion_inequality(grid_n=60)
    fine = certify_expansion_inequality(grid_n=120)
    assert fine.min_slack >= coarse.min_slack - 1e-12


def test_expansion_recheck_confirms_near_margin_cells():
    # at half the minimum slack only the cells nearest the margin matter, and
    # the spot check encloses each x-interval's nearest one
    base = certify_expansion_inequality(grid_n=40)
    report = certify_expansion_inequality(
        grid_n=40, margin=base.min_slack / 2, confirm=True
    )
    assert report.recheck["cells"] == 4
    assert report.recheck["all_clear"] is True
    assert report.recheck["min_slack"] == pytest.approx(base.min_slack, abs=base.error_bound)
    assert report.passed


# --- report shape ---------------------------------------------------------------


def test_report_json_schema():
    d = certify_pair_inequality(grid_n=40).to_json_dict()
    for key in (
        "lemma",
        "params",
        "grid",
        "margin",
        "min_slack",
        "error_bound",
        "argmin_cell",
        "corners_evaluated",
        "pass",
    ):
        assert key in d
    assert d["lemma"] == "pair-expansion"
    json.dumps(d)


# Regenerated when the block scan gave way to the refinement driver: the
# reports keep min_slack, argmin_cell and failing_cells, while
# corners_evaluated and error_bound now count the leaves only.
@pytest.mark.parametrize(
    "make, want",
    [
        pytest.param(
            lambda: certify_pair_inequality(grid_n=200),
            "00e614670e6e764be1ea0c84043bd17bd21cad597865dead4fb60cab88162b2c",
            id="pair-200",
        ),
        pytest.param(
            lambda: certify_expansion_inequality(grid_n=100),
            "da4e039dc294b6269a2328c3b46e87c26d439258fd3f074992c5a569f9f951a6",
            id="expansion-100",
        ),
        pytest.param(  # two failing cells
            lambda: certify_pair_inequality(grid_n=100, margin=0.0016),
            "fb6eec8e19ce9965131eebac32926713ffc5a56e28bb884c374c848deff4276b",
            id="pair-100-failing",
        ),
        # the benchmarked settings, which pin recheck, corners_evaluated
        # (1163 and 6014) and error_bound
        pytest.param(
            lambda: certify_pair_inequality(grid_n=2000, confirm=True),
            "abf3a6d6a61afacc5335e5a3aee9e80a1b5484eba5eedf016b1f67af02998956",
            id="pair-2000-confirm",
        ),
        pytest.param(
            lambda: certify_expansion_inequality(grid_n=2000, confirm=True),
            "4b5b4fc6cc834f1eec2f69623af0e6e681615454a5bf17bae14c536cf7fccfda",
            id="expansion-2000-confirm",
        ),
        pytest.param(  # failing cells on every x-interval
            lambda: certify_expansion_inequality(grid_n=40, margin=0.02),
            "96f8b96547e8802fe5b3dccb1482abb1295e4b5f3b1e7908cd9a945653d9f785",
            id="expansion-40-margin-0.02",
        ),
    ],
)
def test_report_json_golden_hash(make, want):
    text = json.dumps(make().to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == want


# the benchmarked settings again: every leaf's rectangle, slack and rounding
# bound, bit for bit, of 189 and 1 095 leaves
@pytest.mark.parametrize(
    "run, want",
    [
        pytest.param(certify_pair_inequality,
                     "189033e7284a613f19322c3e07dbd247759b755fe8690c20ae3e88354c1b23ec",
                     id="pair-2000-confirm"),
        pytest.param(certify_expansion_inequality,
                     "72557eb2ee8b963f7b58b99164b6247d70fac95fe18daecfb63c847365bd6052",
                     id="expansion-2000-confirm"),
    ],
)
def test_slack_csv_golden_hash(tmp_path, run, want):
    path = tmp_path / "slacks.csv"
    run(grid_n=2000, confirm=True, slack_csv=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def _tiles(leaves, intervals, n):
    """Whether the leaves cover every grid cell of every interval once."""
    seen = np.zeros((intervals, n, n), dtype=int)
    for idx, i0, i1, j0, j1 in leaves:
        seen[idx, i0:i1, j0:j1] += 1
    return bool((seen == 1).all())


def test_slack_csv_dump(tmp_path):
    path = tmp_path / "slacks.csv"
    report = certify_pair_inequality(grid_n=20, slack_csv=str(path))
    leaves = _leaves(path)
    assert _tiles(leaves, 1, 20) and len(leaves) < 20 * 20
    assert min(s for s, _ in leaves.values()) == pytest.approx(report.min_slack, abs=1e-15)
    assert 0.0 < max(e for _, e in leaves.values()) == report.error_bound


def test_slack_csv_reproduces_failing_cells(tmp_path):
    # each row carries the leaf's rounding bound, so the CSV alone tells
    # which cells fail: at margin = min_slack, the argmin cell at least; only
    # grid cells can fail, since a failing rectangle is always cut
    base = certify_pair_inequality(grid_n=40)
    path = tmp_path / "slacks.csv"
    at = certify_pair_inequality(grid_n=40, margin=base.min_slack, slack_csv=str(path))
    failing = sorted(key for key, (s, e) in _leaves(path).items() if s - e < at.margin)
    assert at.failing_count >= 1
    assert len(failing) == at.failing_count
    assert all(i1 - i0 == j1 - j0 == 1 for _, i0, i1, j0, j1 in failing)
    assert [(a, i, j) for a, i, _, j, _ in failing] == [c[:3] for c in at.failing_cells]


# --- refinement against the row-by-row full scan --------------------------------


def _certify_by_rows(lemma, params, weight, slack_fn, slack_args, intervals,
                     grid_n, margin, confirm, slack_csv):
    """The full scan of every grid cell, one x-row per numpy call, x a float
    and y a numpy row: the reference whose minimum, argmin and failing cells
    the refinement must reproduce.  It takes the driver's arguments, so it
    can stand in for ``certifier._certify``; inputs are assumed valid, and
    its --slack-csv rows are interval,i,j,slack,bound per cell."""
    delta = params["delta"]
    min_slack, argmin, corners, fail_count, error_bound = math.inf, None, 0, 0, 0.0
    failing, spots = [], []
    with open(slack_csv, "w", newline="") if slack_csv else contextlib.nullcontext() as fh:
        writer = csv.writer(fh) if fh else None
        for idx, (lo, hi) in enumerate(intervals):
            args = slack_args(lo, hi)
            xs = np.linspace(float(lo), float(hi), grid_n + 1)
            hx = entropy_lower(xs)
            spot = (math.inf, None, None)
            for i in range(grid_n):
                x_min, x_max = float(xs[i]), float(xs[i + 1])
                ys = np.linspace(0.0, min(x_max, delta), grid_n + 1)
                hy = entropy_lower(ys)
                sl, extra, err = slack_fn(
                    _F64, x_min, x_max, ys[:-1], ys[1:], (hx[i], hx[i + 1], hy[:-1], hy[1:]), *args
                )
                corners += 4 * grid_n + int(np.count_nonzero(extra))
                error_bound = max(error_bound, float(np.max(err)))
                j = int(np.argmin(sl))  # the first NaN, if any
                if spot[1] is None or sl[j] < spot[0] or (
                    np.isnan(sl[j]) and not np.isnan(spot[0])
                ):
                    spot = (float(sl[j]), (i, j), (x_min, x_max, float(ys[j]), float(ys[j + 1])))
                bad = np.nonzero(~(sl - err >= margin))[0]
                fail_count += len(bad)
                failing.extend(
                    (idx, i, int(jb), float(sl[jb])) for jb in bad[: _FAIL_CAP - len(failing)]
                )
                if writer:
                    rows = enumerate(zip(sl.tolist(), err.tolist()))
                    writer.writerows([idx, i, k, repr(s), repr(e)] for k, (s, e) in rows)
            if argmin is None or spot[0] < min_slack or (
                math.isnan(spot[0]) and not math.isnan(min_slack)
            ):
                min_slack, argmin = spot[0], (idx, *spot[1])
            spots.append((spot[0], spot[2], args))
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
        runtime_seconds=0.0,
        recheck=_recheck(spots, slack_fn, margin) if confirm else None,
    )


REFERENCE_CASES = [
    pytest.param(certify_pair_inequality, {"grid_n": 1}, id="pair-1"),
    pytest.param(certify_pair_inequality, {"grid_n": 7, "confirm": True}, id="pair-7"),
    pytest.param(certify_pair_inequality, {"grid_n": 33}, id="pair-33"),
    pytest.param(certify_expansion_inequality, {"grid_n": 1}, id="expansion-1"),
    pytest.param(certify_expansion_inequality, {"grid_n": 7}, id="expansion-7"),
    pytest.param(certify_expansion_inequality, {"grid_n": 33}, id="expansion-33"),
    pytest.param(certify_pair_inequality, {"grid_n": 150, "confirm": True}, id="pair-150"),
    pytest.param(certify_expansion_inequality, {"grid_n": 60, "confirm": True}, id="expansion-60"),
    pytest.param(certify_pair_inequality, {"grid_n": 100, "margin": 0.0016}, id="pair-100-failing"),
    # the pair lemma fails at delta = 0.32 (12 cells), and the expansion
    # lemma at margin 0.02 on many cells of every x-interval
    pytest.param(certify_pair_inequality, {"grid_n": 300, "delta": 0.32}, id="pair-delta-0.32"),
    pytest.param(certify_expansion_inequality, {"grid_n": 40, "margin": 0.02}, id="expansion-margin-0.02"),
]

# caps on the rectangles per kernel call: the driver's own, two larger ones,
# 200 rectangles (50 cut at a time) and one rectangle cut at a time
BLOCK_SIZES = sorted({16384, 8192, _BLOCK_CELLS, 200, 1}, reverse=True)

# what the refinement must report as the full scan does; corners_evaluated,
# error_bound and the spot check's enclosure belong to the leaves
SCAN_FIELDS = ("min_slack", "argmin_cell", "failing_cells", "failing_count", "pass", "cells_checked")


def _same_as_scan(refined, scan):
    a, b = refined.to_json_dict(), scan.to_json_dict()
    assert json.dumps([a[k] for k in SCAN_FIELDS]) == json.dumps([b[k] for k in SCAN_FIELDS])
    if scan.recheck is not None:
        assert (refined.recheck["cells"], refined.recheck["all_clear"]) == (
            scan.recheck["cells"], scan.recheck["all_clear"])


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("run, kwargs", REFERENCE_CASES)
def test_blocked_scan_matches_row_by_row_reference(tmp_path, monkeypatch, block, run, kwargs):
    # the refinement, in chunks of ``block`` rectangles, against the full
    # row-by-row scan; its grid-cell leaves carry the scan's slack and bound
    # bit for bit
    refined_csv, rows_csv = tmp_path / "refined.csv", tmp_path / "rows.csv"
    with monkeypatch.context() as m:
        m.setattr(certifier, "_BLOCK_CELLS", block)
        refined = run(slack_csv=str(refined_csv), **kwargs)
    with monkeypatch.context() as m:
        m.setattr(certifier, "_certify", _certify_by_rows)
        reference = run(slack_csv=str(rows_csv), **kwargs)
    _same_as_scan(refined, reference)
    with open(rows_csv, newline="") as fh:
        cells = {(int(a), int(i), int(j)): (s, e) for a, i, j, s, e in csv.reader(fh)}
    with open(refined_csv, newline="") as fh:
        leaves = [row for row in csv.reader(fh)]
    intervals = refined.cells_checked // refined.grid**2
    assert _tiles([tuple(map(int, row[:5])) for row in leaves], intervals, refined.grid)
    for a, i0, i1, j0, j1, s, e in leaves:
        if int(i1) - int(i0) == int(j1) - int(j0) == 1:
            assert cells[int(a), int(i0), int(j0)] == (s, e)


def test_kernel_calls_stay_within_the_block_cap(monkeypatch):
    # a certificate that fails on every cell refines down to every grid cell,
    # in one kernel call per round of at most _BLOCK_CELLS rectangles
    sizes = []

    def slack(nb, x_min, *rest):
        sizes.append(np.size(x_min))
        return _pair_slack(nb, x_min, *rest)

    monkeypatch.setattr(certifier, "_BLOCK_CELLS", 200)
    monkeypatch.setattr(certifier, "_pair_slack", slack)
    report = certify_pair_inequality(grid_n=60, margin=1.0)
    assert report.failing_count == 3538
    assert max(sizes) <= 200 and len(sizes) == 33


def _flat_slack(nb, x_min, x_max, y_min, y_max, h):
    """A slack of 0 on every cell, so that all cells tie."""
    shape = np.broadcast(x_min, y_min).shape
    return np.zeros(shape), np.zeros(shape, dtype=bool), np.zeros(shape)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_equal_slacks_keep_the_first_cell(monkeypatch, block):
    # on ties the earliest cell in (interval, i, j) order is the minimum, in
    # the report and in the cell each interval hands to the spot check
    monkeypatch.setattr(certifier, "_BLOCK_CELLS", block)
    args = ("pair-expansion", {"delta": 0.325, "p": 0.45}, "p", _flat_slack, lambda lo, hi: (),
            [(0.3, 0.31), (0.31, 0.3322)], 33, 0.0, False, None)
    refined = certifier._certify(*args)
    _same_as_scan(refined, _certify_by_rows(*args))
    assert refined.argmin_cell == (0, 0, 0)


def test_reference_cases_include_a_block_mixing_both_y_ranges(tmp_path):
    # at grid 150 the pair refinement keeps rectangles whose x-rows mix a
    # y-range that stops below delta with one that reaches it, so that their
    # y-ends come from different rows
    path = tmp_path / "slacks.csv"
    certify_pair_inequality(grid_n=150, slack_csv=str(path))
    xs = np.linspace(0.3, 0.3322, 151)
    reach = np.minimum(xs[1:], 0.325) == 0.325
    assert any(not reach[i0] and reach[i1 - 1] for _, i0, i1, _, _ in _leaves(path))


def test_failing_cell_cap_keeps_the_first_cells_across_blocks(tmp_path):
    # every cell fails margin 1; each of the four x-intervals at grid 60 has
    # 3 600 cells, so the cap of 10 000 cells runs out inside the third one,
    # although the refinement meets the cells depth first; the cells kept are
    # the first ones in (interval, i, j) order, as the CSV recounts them
    path = tmp_path / "slacks.csv"
    report = certify_expansion_inequality(grid_n=60, margin=1.0, slack_csv=str(path))
    assert report.failing_count == 4 * 60 * 60
    assert len(report.failing_cells) == _FAIL_CAP == 10_000
    assert report.failing_cells[-1][:2] == (2, 46)
    failing = sorted((a, i0, j0, s) for (a, i0, _, j0, _), (s, e) in _leaves(path).items()
                     if s - e < report.margin)
    assert len(failing) == report.failing_count
    assert report.failing_cells == failing[:_FAIL_CAP]


def test_repeated_scans_in_one_process_agree():
    # the kernel writes only into arrays it made itself: nothing a run
    # leaves behind changes the next one
    a = certify_pair_inequality(grid_n=150, confirm=True).to_json_dict()
    b = certify_pair_inequality(grid_n=150, confirm=True).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _filled_slack(value, from_x=0.0):
    """A slack of ``value`` on the cells with x_min >= from_x, 0 on the rest."""

    def slack(nb, x_min, x_max, y_min, y_max, h):
        shape = np.broadcast(x_min, y_min).shape
        sl = np.where(np.broadcast_to(x_min, shape) >= from_x, value, 0.0)
        return sl, np.zeros(shape, dtype=bool), np.zeros(shape)

    return slack


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scan_without_a_finite_minimum_fails_at_its_first_cell(monkeypatch, block, value):
    # a NaN slack must not pass as a cell clearing the margin, and a minimum
    # that is not finite certifies nothing; the refinement cuts such
    # rectangles down to the cells and agrees with the scan, and the spot
    # check has no cell to confirm
    monkeypatch.setattr(certifier, "_BLOCK_CELLS", block)
    args = ("pair-expansion", {"delta": 0.325, "p": 0.45}, "p", _filled_slack(value),
            lambda lo, hi: (), [(0.3, 0.31), (0.31, 0.3322)], 20, 0.0, True, None)
    refined = certifier._certify(*args)
    _same_as_scan(refined, _certify_by_rows(*args))
    assert refined.argmin_cell == (0, 0, 0)
    assert not refined.passed
    assert refined.recheck["cells"] == 0 and refined.recheck["all_clear"] is False
    if math.isnan(value):
        assert math.isnan(refined.min_slack)
        assert refined.failing_count == refined.cells_checked == 2 * 20 * 20
    else:
        assert refined.min_slack == math.inf and refined.failing_count == 0


def test_a_nan_slack_ranks_below_every_number(monkeypatch):
    # the cells from x-row 7 of the first interval on are NaN, the rest 0:
    # the minimum is the first NaN cell, and only NaN cells fail margin 0
    monkeypatch.setattr(certifier, "_BLOCK_CELLS", 60)
    args = ("pair-expansion", {"delta": 0.325, "p": 0.45}, "p", _filled_slack(math.nan, 0.30345),
            lambda lo, hi: (), [(0.3, 0.31), (0.31, 0.3322)], 20, 0.0, False, None)
    refined = certifier._certify(*args)
    _same_as_scan(refined, _certify_by_rows(*args))
    assert refined.argmin_cell == (0, 7, 0) and math.isnan(refined.min_slack)
    assert refined.failing_count == 13 * 20 + 20 * 20
    assert refined.failing_cells[0][:3] == (0, 7, 0)
    assert not refined.passed


# --- refinement: soundness of wide leaves and its share of the grid --------------


def _true_pair_slack(x, y, delta=0.325, p=0.45):
    lhs = entropy(x) * (1 - p) + 2 * p * x * entropy(0.5) + entropy(y)
    rhs = delta * entropy(y / delta) + (1 - delta) * entropy((x - y) / (1 - delta)) + x * entropy(y / x)
    return lhs - rhs


def _true_expansion_slack(x, y, ea, eb, delta=0.325, boost=0.18):
    e = ea + eb * x
    lhs = entropy(x) * (1 - boost) + boost * e * entropy(x / e) + entropy(y)
    rhs = delta * entropy(y / delta) + (1 - delta) * entropy((x - y) / (1 - delta)) + e * entropy(y / e)
    return lhs - rhs


@pytest.mark.parametrize("lemma, grid", [("pair", 50), ("expansion", 40)])
def test_true_inequality_holds_at_random_points_of_every_wide_leaf(tmp_path, lemma, grid):
    # a leaf wider than one grid cell certifies its whole region; check the
    # inequality itself, in plain floats, at random points of each such leaf
    path = tmp_path / "slacks.csv"
    run = certify_pair_inequality if lemma == "pair" else certify_expansion_inequality
    report = run(grid_n=grid, slack_csv=str(path))
    assert report.passed
    wide = [key for key in _leaves(path) if key[2] - key[1] > 1 or key[4] - key[3] > 1]
    assert wide
    rng = random.Random(12)
    for key in wide:
        (x_min, x_max, y_min, y_max), args = _leaf_args(lemma, report, *key)
        for _ in range(20):
            x = rng.uniform(x_min, x_max)
            y = rng.uniform(y_min, min(y_max, x))
            slack = _true_pair_slack(x, y) if lemma == "pair" else _true_expansion_slack(x, y, *args[2:])
            assert slack >= report.margin


@pytest.mark.parametrize("run, grid", [(certify_pair_inequality, 200),
                                       (certify_expansion_inequality, 100)])
def test_a_refinement_that_drops_a_child_raises(monkeypatch, run, grid):
    # cells_checked is the leaves' summed cells; a _halves that loses one
    # child a round leaves cells uncertified, and hid the true minimum
    # slack (pair 0.00161 read 0.01227 at grid 200), so the run must not pass
    halves = certifier._halves
    monkeypatch.setattr(certifier, "_halves", lambda R: halves(R)[:, 1:])
    with pytest.raises(ArithmeticError, match="cover"):
        run(grid_n=grid)


def test_stock_grid_2000_certificates_evaluate_under_one_percent_of_the_corners():
    # the refinement does not fall back to a full scan: at grid 2000 both
    # stock certificates evaluate under 1 % of the grid's 4 corners a cell,
    # with the full scan's minimum cells and slacks
    pair = certify_pair_inequality(grid_n=2000, confirm=True)
    expansion = certify_expansion_inequality(grid_n=2000, confirm=True)
    for report, cells in ((pair, 2000**2), (expansion, 4 * 2000**2)):
        assert report.passed and report.cells_checked == cells
        assert report.corners_evaluated < 0.01 * 4 * cells
    assert (pair.min_slack, pair.argmin_cell) == (0.0016281484823315073, (0, 0, 301))
    assert (expansion.min_slack, expansion.argmin_cell) == (0.006835312231821807, (0, 0, 354))


# --- parameters rounded to floats ------------------------------------------------


@pytest.mark.parametrize(
    "run, grid, name",
    [
        (certify_pair_inequality, 100, "delta"),
        (certify_pair_inequality, 100, "p"),
        (certify_expansion_inequality, 60, "delta"),
        (certify_expansion_inequality, 60, "boost"),
    ],
)
def test_one_ulp_in_a_parameter_barely_moves_the_minimum_slack(run, grid, name):
    # the certificates hold for float-rounded parameters; a measurement of
    # how far the minimum slack moves when one of them moves by one ulp
    # either way (at most 1.1e-16 when measured), not a bound
    base = run(grid_n=grid)
    value = base.params[name]
    for toward in (-math.inf, math.inf):
        moved = run(grid_n=grid, **{name: math.nextafter(value, toward)})
        assert moved.passed
        assert abs(moved.min_slack - base.min_slack) <= 1e-12
