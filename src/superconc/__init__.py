"""Toolkit for low-density superconcentrators built from random expanders.

Submodules:

- :mod:`superconc.entropy`: binary entropy, chord/tangent envelopes,
  log-binomial utilities.
- :mod:`superconc.profiles`: piecewise-linear expansion profiles and their
  exact side conditions.
- :mod:`superconc.randgraph`: the seeded permutation-overlay graph model and
  exact or sampled expansion measurements.
- :mod:`superconc.construction`: the recursive doubling construction and
  flow-based verification of the superconcentrator property.
- :mod:`superconc.probability`: union bounds, the exact inclusion-exclusion
  neighborhood probability, and Monte Carlo oracles.
- :mod:`superconc.certifier`: grid certification of the two entropy
  inequalities behind the fractional degree 5.325.
- :mod:`superconc.cli`: batch command-line interface over all of the above.
"""

from .certifier import (
    CertReport,
    DegreeCheck,
    RatioCheckReport,
    certify_expansion_inequality,
    certify_pair_inequality,
    check_pairexp_degree,
    direct_check_ratio,
)
from .construction import (
    BuildConfig,
    BuildError,
    SuperDag,
    VerifyReport,
    build_gamma,
    max_disjoint_paths,
    verify_superconcentrator,
)
from .entropy import (
    LinearBound,
    chord_lower,
    entropy,
    log_binomial,
    stirling_gap,
    tangent_upper,
)
from .probability import (
    BoundValue,
    alpha_coefficients,
    bassalygo_bound,
    boolean_identity_check,
    binom_ratio_bound,
    exact_plr,
    expansion_fail_bound,
    montecarlo_plr,
    pair_fail_bound,
    plr_table,
)
from .profiles import (
    ConditionCheck,
    ConditionReport,
    PiecewiseLinear,
    ProfileConstants,
    alon_capalbo_profile,
    check_conditions,
    density253_constants,
    expansion_profile,
    overlap_profile,
)
from .randgraph import (
    BipartiteGraph,
    EnumerationBudgetError,
    check_expander_profile,
    check_pair_profile,
    complete_bipartite,
    derive_seed,
    graph_from_text,
    graph_to_dot,
    graph_to_text,
    min_expansion,
    min_pair_expansion,
    neighborhood,
    pair_count,
    sample_g,
    sampled_min_expansion,
)

__version__ = "0.1.0"
