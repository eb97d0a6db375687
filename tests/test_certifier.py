import hashlib
import json
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from superconc.certifier import (
    _F64,
    _MP,
    _corner_min,
    certify_expansion_inequality,
    certify_pair_inequality,
    check_pairexp_degree,
    direct_check_ratio,
)
from superconc.entropy import chord_lower, entropy, tangent_upper
from superconc.profiles import (
    PiecewiseLinear,
    density253_constants,
    expansion_profile,
)

C = density253_constants()
PROFILE = expansion_profile(C)


# --- corner geometry -----------------------------------------------------------


def _corner_min_both(A, B, Cc, x_min, x_max, y_min, y_max):
    """_corner_min on one cell with both backends; asserts that they agree and
    returns (slack, extra)."""
    sl, extra = _corner_min(
        _F64, A, B, Cc, x_min, x_max, np.array([y_min]), np.array([y_max])
    )
    with mpmath.workprec(113):
        mpf = mpmath.mpf
        sl_mp, extra_mp = _corner_min(
            _MP, mpf(A), mpf(B), mpf(Cc), mpf(x_min), mpf(x_max), mpf(y_min), mpf(y_max)
        )
    assert bool(extra[0]) == extra_mp
    assert float(sl_mp) == pytest.approx(float(sl[0]), abs=1e-12)
    return float(sl[0]), extra_mp


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


def test_pair_certification_validation():
    with pytest.raises(ValueError):
        certify_pair_inequality(gamma=0.75)
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
    assert report.recheck["cells"] > 0
    assert report.recheck["all_clear"] is True
    assert report.recheck["min_slack"] == pytest.approx(base.min_slack, abs=1e-9)
    assert report.passed


def test_pair_recheck_skips_when_no_cell_is_close():
    report = certify_pair_inequality(grid_n=60, confirm=True)  # margin far below slack
    assert report.recheck == {
        "cells": 0,
        "precision_bits": 113,
        "min_slack": None,
        "all_clear": True,
    }


def test_recheck_covers_exactly_the_near_margin_cells(tmp_path):
    base = certify_pair_inequality(grid_n=100)
    margin = base.min_slack / 2
    path = tmp_path / "slacks.csv"
    report = certify_pair_inequality(
        grid_n=100, margin=margin, confirm=True, slack_csv=str(path)
    )
    slacks = [float(r.split(",")[3]) for r in path.read_text().splitlines()]
    assert report.recheck["cells"] == sum(s < 10 * margin for s in slacks) > 0
    assert report.recheck["min_slack"] == pytest.approx(base.min_slack, abs=1e-12)
    assert report.recheck["all_clear"] is True


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
    # oracle: assemble the strengthened inequality from scalar envelope objects
    ea = (float(C.c4) * c5 - float(C.c6) * c3) / (c5 - c3)
    eb = (float(C.c6) - float(C.c4)) / (c5 - c3)
    x_min, x_max = c3, c5
    y_min, y_max = 0.0, min(x_max, delta)
    e_min, e_max = ea + eb * x_min, ea + eb * x_max
    h1 = chord_lower(x_min, x_max)
    r0, r1 = x_min / e_min, x_max / e_max
    h2 = chord_lower(min(r0, r1), max(r0, r1))
    h3 = chord_lower(y_min, y_max)
    t4 = tangent_upper(min(y_min / delta, 1.0), min(y_max / delta, 1.0))
    t5 = tangent_upper(
        max((x_min - y_max) / (1 - delta), 0.0), min((x_max - y_min) / (1 - delta), 1.0)
    )
    t6 = tangent_upper(min(y_min / e_max, 1.0), min(y_max / e_min, 1.0))

    def slack(x, y):
        e = ea + eb * x
        lhs = (1 - boost) * h1(x) + boost * e * h2(x / e) + h3(y)
        rhs = delta * t4(y / delta) + (1 - delta) * t5((x - y) / (1 - delta)) + e * t6(y / e)
        return lhs - rhs

    # the cell lies below the diagonal (y_max = delta < c3 = x_min), so the
    # clipped polygon is the whole rectangle
    assert y_max < x_min
    pts = [(x_min, y_min), (x_max, y_min), (x_min, y_max), (x_max, y_max)]
    want = min(slack(x, y) for x, y in pts)
    assert report.min_slack == pytest.approx(want, abs=1e-12)
    assert report.corners_evaluated == 4


def test_expansion_interval_must_fit_one_segment():
    with pytest.raises(ValueError):
        certify_expansion_inequality(x_intervals=[(0.21, 0.48)], grid_n=10)


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
    base = certify_expansion_inequality(grid_n=40)
    report = certify_expansion_inequality(
        grid_n=40, margin=base.min_slack / 2, confirm=True
    )
    assert report.recheck["cells"] > 0
    assert report.recheck["all_clear"] is True
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
        "argmin_cell",
        "corners_evaluated",
        "pass",
    ):
        assert key in d
    assert d["lemma"] == "pair-expansion"
    json.dumps(d)


@pytest.mark.parametrize(
    "make, want",
    [
        (
            lambda: certify_pair_inequality(grid_n=200),
            "046114584fe42fd300fb9d49853319ba3484245954c9a26bda5c7200269c84f3",
        ),
        (
            lambda: certify_expansion_inequality(grid_n=100),
            "a182dc911b83a2710031b464c0e4e1e9e23c048494e3c33044a4668672fa9684",
        ),
        (  # two failing cells
            lambda: certify_pair_inequality(grid_n=100, margin=0.0016),
            "3a466816f962991fdd44366a3ef3bf5bec1504d972d43d2f4f2795dd1ad4fb3f",
        ),
    ],
)
def test_report_json_golden_hash(make, want):
    text = json.dumps(make().to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_slack_csv_dump(tmp_path):
    path = tmp_path / "slacks.csv"
    report = certify_pair_inequality(grid_n=20, slack_csv=str(path))
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 20 * 20
    vals = [float(r.split(",")[3]) for r in rows]
    assert min(vals) == pytest.approx(report.min_slack, abs=1e-15)


# --- pointwise ratio checks -------------------------------------------------------


def test_direct_check_ratio_expansion_example():
    r = direct_check_ratio(5.18, profile=PROFILE, alpha_range=(0.3, 0.3), grid_n=1)
    assert r.min_slack == pytest.approx(0.0509, abs=2e-4)
    scan = direct_check_ratio(5.18, profile=PROFILE, alpha_range=(0.21, 0.48), grid_n=2000)
    assert scan.passed
    assert not scan.certified


def test_direct_check_ratio_pair_example():
    r = direct_check_ratio(5.45, gamma=1.0, alpha_range=(0.3, 0.3322), grid_n=1000)
    assert r.passed
    assert r.min_slack == pytest.approx(0.000402134732823, abs=1e-9)
    assert r.argmin_alpha == pytest.approx(0.3322, abs=1e-12)


def test_direct_check_ratio_rejects_flat_profile():
    flat = PiecewiseLinear(((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError):
        direct_check_ratio(5.0, profile=flat, alpha_range=(0.6, 0.9), grid_n=10)


def test_direct_check_ratio_rejects_profile_at_diagonal():
    diag = PiecewiseLinear(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError):
        direct_check_ratio(5.0, profile=diag, alpha_range=(0.3, 0.4), grid_n=10)


def test_direct_check_ratio_argument_validation():
    with pytest.raises(ValueError):
        direct_check_ratio(5.0, alpha_range=(0.2, 0.3))
    with pytest.raises(ValueError):
        direct_check_ratio(5.0, profile=PROFILE, gamma=1.0, alpha_range=(0.2, 0.3))
    with pytest.raises(ValueError):
        direct_check_ratio(5.0, gamma=1.0, alpha_range=(0.2, 0.6))  # 2*gamma*alpha > 1


def test_check_pairexp_degree_examples():
    ok = check_pairexp_degree(5, 1, 0.3)
    assert ok.passed and ok.slack == 2.25 and ok.threshold == 2.75
    bad = check_pairexp_degree(2, 1, 0.3)
    assert not bad.passed and bad.slack == pytest.approx(-0.75)
    with pytest.raises(ValueError):
        check_pairexp_degree(5, 1, 0.5)
