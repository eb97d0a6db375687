#!/usr/bin/env python3
"""Build the recursive superconcentrator, account for its edges, and verify
the defining property with max-flow computations.

Run as: python demos/04_build_and_verify.py
"""

import json

from superconc.construction import (
    BuildConfig,
    build_gamma,
    max_disjoint_paths,
    verify_superconcentrator,
)
from superconc.randgraph import complete_bipartite

# One level on n inputs adds two expander copies (2*(d*n + floor(delta*n))
# edges), 2n cross edges, and recurses on half the size; the base block is
# complete bipartite.  With d = 5 and delta = 0.325 each doubling adds
# 2*(5.325 + 1)*n edges, hence asymptotic density 4*(5.325 + 1) = 25.3.
cfg = BuildConfig(base_size=20, d=5, delta="0.325", seed=7)
g40 = build_gamma(40, cfg)
g80 = build_gamma(80, BuildConfig(base_size=20, d=5, delta="0.325", seed=7))

print("per-level edges of Gamma_40:", [r["edges_added"] for r in g40.level_records])
print("per-level edges of Gamma_80:", [r["edges_added"] for r in g80.level_records])
print("edge counts:", g40.edge_count(), "and", g80.edge_count())
print("incremental density (f(80) - f(40)) / 40 =", (g80.edge_count() - g40.edge_count()) / 40)

# The build manifest records seeds, per-level counts and check outcomes.
print("\nmanifest of Gamma_40 (level 0):")
print(json.dumps(g40.manifest()["levels"][0], indent=2)[:400], "...")

# Verification: every same-size input/output subset pair must be joined by
# that many node-disjoint paths.  Each query counts them as a maximum
# bipartite matching between vertex exits and vertex entries, minus one
# bypass edge per vertex outside S and T.
S, T = g40.inputs[:6], g40.outputs[10:16]
print("\nmax node-disjoint paths for a size-6 pair:", max_disjoint_paths(g40, S, T))

report = verify_superconcentrator(g40, mode="sampled", trials=300, seed=1)
print("sampled verification of Gamma_40:", "PASS" if report.passed else "FAIL",
      f"({report.pairs_checked} random subset pairs)")

# Small instances afford the full scan.  Over a complete bipartite expander
# every check must succeed; deleting an input's edges breaks size 1.
small = build_gamma(8, BuildConfig(base_size=4, expanders={8: complete_bipartite(8)}))
full = verify_superconcentrator(small, mode="exhaustive")
print(f"\nexhaustive verification of Gamma_8: {full.pairs_checked} pairs ->",
      "PASS" if full.passed else "FAIL")

broken = small.without_edges((small.inputs[0], v) for v in range(small.num_nodes))
fail = verify_superconcentrator(broken, mode="exhaustive")
k, S, T, got = fail.counterexample
print(f"after isolating one input: FAIL at k={k} (S={S}, achieved {got})")
