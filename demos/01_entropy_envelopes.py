#!/usr/bin/env python3
"""Walk through the entropy utilities: the function itself, the one-sided
linear envelopes that the certifier builds on, and the log-binomial gap.

Run as: python demos/01_entropy_envelopes.py
"""

import math

import numpy as np

from superconc.certifier import chord_coefficients, tangent_coefficients
from superconc.entropy import entropy, log_binomial, stirling_gap

# The entropy H(x) = -x ln x - (1-x) ln(1-x) is concave, symmetric around 1/2,
# and vanishes at both endpoints.
print("H(0)   =", entropy(0.0))
print("H(1/2) =", entropy(0.5), "= ln 2 =", math.log(2))
print("H(0.2301) =", entropy(0.2301))

# A chord over [p, q] sits below H on that interval; a tangent sits above H
# on all of [0, 1].  Sandwiching H between the two is what turns the curved
# certification inequalities into affine ones on small cells.  Both come as
# (intercept, slope) pairs, elementwise over arrays, and both hold in float64:
# the chord passes below H rounded down, the tangent's intercept is rounded up.
lo, hi = 0.3, 0.4
ca, cb = chord_coefficients(lo, hi)
ta, tb = tangent_coefficients(lo, hi)
print(f"\nenvelopes on [{lo}, {hi}]  (chord below, tangent above):")
for x in np.linspace(lo, hi, 5):
    h = entropy(float(x))
    print(f"  x={x:.3f}  chord={ca + cb * x:.6f} <= H={h:.6f} <= tangent={ta + tb * x:.6f}")

# The tighter the interval, the tighter the sandwich; one call covers them all.
mid = 0.35
widths = np.array([0.1, 0.01, 0.001])
ca, cb = chord_coefficients(mid - widths / 2, mid + widths / 2)
ta, tb = tangent_coefficients(mid - widths / 2, mid + widths / 2)
for width, gap in zip(widths, (ta + tb * mid) - (ca + cb * mid)):
    print(f"  width {width:<6} gap at midpoint: {gap:.3e}")

# log C(n, k) is within 2 ln(n)/n of n*H(k/n), per symbol.  That estimate
# backs every probability bound in the package.
print("\nper-symbol gap |log C(n,k)/n - H(k/n)|:")
for n in (128, 512, 2048):
    worst = max(stirling_gap(n, k) for k in range(n + 1))
    print(f"  n={n:<5} worst gap {worst:.6f}  bound {2 * math.log(n) / n:.6f}")

# The log-domain binomial stays usable far beyond exact integer range.
print("\nlog C(10^6, 250000) =", log_binomial(10**6, 250_000))
