#!/usr/bin/env python3
"""Certify the two entropy inequalities behind the degree-5.325 parameter
set, with the grid/chord/tangent/corner scheme, and check the exact
pair-expansion degree condition that complements them.

Run as: python demos/06_certification.py
"""

import json

from superconc.certifier import certify_expansion_inequality, certify_pair_inequality
from superconc.profiles import check_conditions, density253_constants

# Both certifications cover their domain with 1000x1000 cells.  On a
# rectangle of cells each entropy term is replaced by a chord (left side,
# from below) or a midpoint tangent (right side, from above), and the
# resulting affine inequality is evaluated at the rectangle's corners.  The
# driver starts from the whole domain and cuts a rectangle in four only where
# it misses the margin (after its own bound on the float64 rounding of its
# slack is subtracted) or could hold the minimum, so a few hundred
# rectangles certify all million cells.  The pair inequality is the
# paper's at gamma = 1.
pair = certify_pair_inequality(
    delta=0.325, p=0.45, x_range=(0.3, 0.3322), grid_n=1000, margin=1e-4
)
print("pair inequality:", "PASS" if pair.passed else "FAIL")
print("  min slack", pair.min_slack, "at cell", pair.argmin_cell)
print("  largest rounding bound:", pair.error_bound)
print("  corners evaluated:", pair.corners_evaluated)
print("  runtime:", round(pair.runtime_seconds, 2), "s")

expansion = certify_expansion_inequality(delta=0.325, boost=0.18, grid_n=1000, margin=1e-4)
print("\nexpansion inequality:", "PASS" if expansion.passed else "FAIL")
print("  intervals:", expansion.params["x_intervals"])
print("  min slack", expansion.min_slack, "at cell", expansion.argmin_cell)

# The spot check encloses the slack of each x-interval's lowest leaf in
# 113-bit interval arithmetic, through the same formulas.
tight = certify_expansion_inequality(grid_n=200, confirm=True)
print("\ninterval enclosure of the lowest leaf of each x-interval:")
print(json.dumps(tight.recheck, indent=2))

# The pair-expansion degree requirement d > 1 + gamma(1-eps1)/(1-2 gamma eps1)
# has a closed form, checked exactly on rationals for the whole overlays.
deg = check_conditions(density253_constants(), gamma=1, eps1="0.3")["pair-degree"]
print(f"\npair degree condition: {'ok' if deg.passed else 'BAD'}, slack {deg.slack} ({deg.detail})")
