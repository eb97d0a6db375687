#!/usr/bin/env python3
"""Certify the two entropy inequalities behind the degree-5.325 parameter
set, with the grid/chord/tangent/corner scheme, and run the pointwise
closed-form checks that complement it.

Run as: python demos/06_certification.py
"""

import json

from superconc.certifier import (
    certify_expansion_inequality,
    certify_pair_inequality,
    check_pairexp_degree,
    direct_check_ratio,
)
from superconc.profiles import density253_constants, expansion_profile

# Both certifications subdivide their domain into 1000x1000 cells, replace
# each entropy term by a chord (left side, from below) or a midpoint tangent
# (right side, from above), and evaluate the resulting affine inequality at
# the cell corners.  Every corner must clear the margin.
pair = certify_pair_inequality(
    delta=0.325, gamma=1.0, p=0.45, x_range=(0.3, 0.3322), grid_n=1000, margin=1e-4
)
print("pair inequality:", "PASS" if pair.passed else "FAIL")
print("  min slack", pair.min_slack, "at cell", pair.argmin_cell)
print("  corners evaluated:", pair.corners_evaluated)
print("  runtime:", round(pair.runtime_seconds, 2), "s")

expansion = certify_expansion_inequality(delta=0.325, boost=0.18, grid_n=1000, margin=1e-4)
print("\nexpansion inequality:", "PASS" if expansion.passed else "FAIL")
print("  intervals:", expansion.params["x_intervals"])
print("  min slack", expansion.min_slack, "at cell", expansion.argmin_cell)

# Cells whose slack is below ten times the margin can be re-evaluated at 113
# bits with the same formulas.  With the stock margin nothing comes that
# close, so set the margin to half the minimum slack of a coarser grid.
base = certify_pair_inequality(grid_n=200)
tight = certify_pair_inequality(grid_n=200, margin=base.min_slack / 2, confirm=True)
print("\nhigh-precision recheck of near-margin cells:")
print(json.dumps(tight.recheck, indent=2))

# The closed-form degree requirements are scanned pointwise (no cell
# guarantee, hence reported as non-certified) and checked exactly where a
# closed form exists.
profile = expansion_profile(density253_constants())
scan = direct_check_ratio(5.18, profile=profile, alpha_range=(0.21, 0.48), grid_n=2000)
print(f"\nexpansion ratio scan: min slack {scan.min_slack:.6f} "
      f"at alpha={scan.argmin_alpha:.4f} (certified={scan.certified})")

scan = direct_check_ratio(5.45, gamma=1.0, alpha_range=(0.3, 0.3322), grid_n=2000)
print(f"pair ratio scan:      min slack {scan.min_slack:.6f} at alpha={scan.argmin_alpha:.4f}")

deg = check_pairexp_degree(5, 1, 0.3)
print(f"pair degree condition: threshold {deg.threshold}, slack {deg.slack}")
