"""Toolkit for low-density superconcentrators built from random expanders.

Submodules:

- :mod:`superconc.entropy`: binary entropy and log-binomial utilities.
- :mod:`superconc.profiles`: piecewise-linear expansion profiles and their
  exact side conditions.
- :mod:`superconc.randgraph`: the seeded permutation-overlay graph model and
  exact or sampled expansion measurements.
- :mod:`superconc.construction`: the recursive doubling construction and
  flow-based verification of the superconcentrator property.
- :mod:`superconc.probability`: union bounds, the exact inclusion-exclusion
  neighborhood probability, and Monte Carlo oracles.
- :mod:`superconc.certifier`: grid certification of the two entropy
  inequalities behind the fractional degree 5.325, with the float64-sound
  chord and tangent envelopes of the entropy.
- :mod:`superconc.cli`: batch command-line interface over all of the above.
"""

import importlib

# `entropy` names both a submodule and its function.  Binding the function
# here, as the eager imports did, keeps `superconc.entropy` the function
# whichever module imports the submodule first; it needs only math.
from .entropy import entropy  # noqa: F401

# Default cap on the subsets an exhaustive scan may enumerate.  It lives here
# so that the command line can show it without importing `randgraph`.
DEFAULT_BUDGET = 1_000_000


def derive_seed(*parts) -> int:
    """Stable 64-bit substream seed from a tuple of labels (SHA-256 based).

    Keying substreams this way keeps every sampled object reproducible and
    independent of evaluation order.  It lives here, importing hashlib when
    first called, so that `mc-plr` seeds its stream without `randgraph`.
    """
    import hashlib

    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")

# Public names by submodule.  They load on first access (PEP 562), so that
# `import superconc` and the commands that need no numpy, scipy or mpmath
# never import them.
_EXPORTS = {
    "certifier": (
        "CertReport", "certify_expansion_inequality", "certify_pair_inequality",
    ),
    "construction": (
        "BuildConfig", "BuildError", "SuperDag", "VerifyReport", "build_gamma",
        "max_disjoint_paths", "verify_superconcentrator",
    ),
    "entropy": (
        "entropy", "log_binomial", "stirling_gap",
    ),
    "probability": (
        "BoundValue", "alpha_coefficients", "bassalygo_bound", "boolean_identity_check",
        "binom_ratio_bound", "exact_plr", "expansion_fail_bound", "montecarlo_plr",
        "pair_fail_bound", "plr_table",
    ),
    "profiles": (
        "ConditionCheck", "ConditionReport", "PiecewiseLinear", "ProfileConstants",
        "alon_capalbo_profile", "check_conditions", "density253_constants", "expansion_profile",
        "overlap_profile",
    ),
    "randgraph": (
        "BipartiteGraph", "EnumerationBudgetError", "check_expander_profile",
        "check_pair_profile", "complete_bipartite", "derive_seed", "graph_from_text",
        "graph_to_dot", "graph_to_text", "min_expansion", "min_pair_expansion", "neighborhood",
        "pair_count", "sample_g", "sampled_min_expansion",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
