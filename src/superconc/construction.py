"""Recursive doubling construction of superconcentrators and their
verification through vertex-disjoint path computations.

One level of the construction on n inputs X and n outputs Y inserts an
expander from X to a fresh column X', the reverse of an independently sampled
expander from a fresh column Y' to Y, four cross edges per index
i in 1..n/2 (x'_{i+n/2} -> y'_i, x'_{i+n/2} -> x'_i, x'_i -> y'_{i+n/2},
y'_i -> y'_{i+n/2}), and recurses on the first halves of X' and Y'.  The
recursion bottoms out in a complete bipartite block, which is trivially a
superconcentrator.

Verification asks, for input and output subsets of equal size k, whether k
node-disjoint paths join them; by Menger's theorem this equals a max flow on
the node-split graph with unit capacities everywhere.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .profiles import PiecewiseLinear, as_fraction, density253_constants, expansion_profile
from .randgraph import (
    DEFAULT_BUDGET,
    BipartiteGraph,
    EnumerationBudgetError,
    check_expander_profile,
    check_pair_profile,
    derive_seed,
    sample_g,
)

__all__ = [
    "BuildError",
    "BuildConfig",
    "SuperDag",
    "build_gamma",
    "max_disjoint_paths",
    "VerifyReport",
    "verify_superconcentrator",
]


class BuildError(RuntimeError):
    """Raised when no acceptable expander was found within the retry limit."""

    def __init__(self, message: str, last_failure=None):
        super().__init__(message)
        self.last_failure = last_failure


@dataclass
class BuildConfig:
    """Knobs of the recursive build.

    ``expanders`` switches from seeded sampling to explicit graphs: a mapping
    from level size n to either one graph (used for both columns) or a pair
    (forward, reverse-source).  Sampled expanders are drawn in the disjoint
    mode so each level adds exactly 2*(d*n + floor(delta*n)) + 2n edges, and
    are retried until they pass the (budget-capped) expansion checks.
    """

    base_size: int = 20
    d: int = 5
    delta: Fraction = Fraction(13, 40)
    seed: int = 0
    retry_limit: int = 8
    check_k_max: int = 2
    check_budget: int = 200_000
    profile: PiecewiseLinear | None = None
    gamma: Fraction = Fraction(1)
    pair_alpha_max: Fraction | None = None
    expanders: dict | None = None

    def resolved_profile(self) -> PiecewiseLinear:
        return self.profile if self.profile is not None else expansion_profile(density253_constants())

    def resolved_pair_alpha_max(self) -> Fraction:
        if self.pair_alpha_max is not None:
            return as_fraction(self.pair_alpha_max)
        return density253_constants().c3


class SuperDag:
    """Directed acyclic graph with designated input and output vertex lists.

    Nodes carry a role tag (input/output/internal), the construction level
    they belong to, and a human-readable label; edges are plain pairs of node
    ids.  Level records accumulate the per-level build metadata that feeds the
    manifest.
    """

    def __init__(self):
        self.labels: list[tuple] = []
        self.roles: list[str] = []
        self.level_of: list[int] = []
        self.edges: list[tuple[int, int]] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.level_records: list[dict] = []
        self._edge_set: set | None = None
        self._succ: list[list[int]] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def add_node(self, role: str, level: int, label: tuple) -> int:
        if role not in ("input", "output", "internal"):
            raise ValueError(f"unknown role {role!r}")
        self.labels.append(label)
        self.roles.append(role)
        self.level_of.append(level)
        v = len(self.labels) - 1
        if role == "input":
            self.inputs.append(v)
        elif role == "output":
            self.outputs.append(v)
        self._succ = None
        return v

    def add_edge(self, u: int, v: int) -> None:
        if self._edge_set is None:
            self._edge_set = set(self.edges)
        if (u, v) in self._edge_set:
            raise ValueError(f"duplicate edge ({u}, {v})")
        self.edges.append((u, v))
        self._edge_set.add((u, v))
        self._succ = None

    def edge_count(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        return self.edge_count() / len(self.inputs)

    def successors(self) -> list[list[int]]:
        if self._succ is None:
            succ = [[] for _ in range(self.num_nodes)]
            for u, v in self.edges:
                succ[u].append(v)
            self._succ = succ
        return self._succ

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises if the graph has a cycle."""
        indeg = [0] * self.num_nodes
        for _, v in self.edges:
            indeg[v] += 1
        queue = [v for v in range(self.num_nodes) if indeg[v] == 0]
        order = []
        succ = self.successors()
        while queue:
            u = queue.pop()
            order.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.num_nodes:
            raise ValueError("graph contains a cycle")
        return order

    def without_edges(self, drop) -> "SuperDag":
        """Copy of the graph with the given edges removed (for fault injection)."""
        drop = set(drop)
        out = SuperDag()
        out.labels = list(self.labels)
        out.roles = list(self.roles)
        out.level_of = list(self.level_of)
        out.inputs = list(self.inputs)
        out.outputs = list(self.outputs)
        out.level_records = [dict(r) for r in self.level_records]
        out.edges = [e for e in self.edges if e not in drop]
        return out

    def manifest(self) -> dict:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "nodes": self.num_nodes,
            "edge_count": self.edge_count(),
            "density": self.density(),
            "levels": self.level_records,
        }

    def to_json(self) -> str:
        payload = {
            "nodes": [
                {"role": r, "level": lv, "label": list(lb)}
                for r, lv, lb in zip(self.roles, self.level_of, self.labels)
            ],
            "edges": [[u, v] for u, v in self.edges],
            "inputs": self.inputs,
            "outputs": self.outputs,
            "levels": self.level_records,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SuperDag":
        payload = json.loads(text)
        dag = cls()
        for node in payload["nodes"]:
            dag.labels.append(tuple(node["label"]))
            dag.roles.append(node["role"])
            dag.level_of.append(node["level"])
        dag.inputs = list(payload["inputs"])
        dag.outputs = list(payload["outputs"])
        dag.edges = [tuple(e) for e in payload["edges"]]
        dag.level_records = payload["levels"]
        return dag

    def to_dot(self) -> str:
        """DOT rendering with one rank per (level, column) group."""
        out = ["digraph superconcentrator {", "  rankdir=TB;"]
        groups: dict = {}
        for v, (label, level) in enumerate(zip(self.labels, self.level_of)):
            groups.setdefault((level, label[0]), []).append(v)
        for (level, kind), nodes in sorted(groups.items()):
            members = " ".join(f"n{v};" for v in nodes)
            out.append(f"  {{ rank=same; {members} }}  // level {level} {kind}")
        for v, label in enumerate(self.labels):
            text = "".join(str(part) for part in label)
            shape = {"input": "invtriangle", "output": "triangle"}.get(self.roles[v], "circle")
            out.append(f'  n{v} [label="{text}" shape={shape}];')
        for u, v in self.edges:
            out.append(f"  n{u} -> n{v};")
        out.append("}")
        return "\n".join(out) + "\n"


def _validate_size(n: int, base: int) -> None:
    if base < 1:
        raise ValueError(f"base size must be positive: {base}")
    m = n
    while m > base:
        if m % 2:
            raise ValueError(f"{n} is not base*2^t for base={base}: {m} is odd")
        m //= 2
    if m != base:
        raise ValueError(f"{n} is not base*2^t for base={base}")


def _acceptance_checks(g: BipartiteGraph, cfg: BuildConfig):
    n = g.n
    k_cap = 0
    for k in range(1, cfg.check_k_max + 1):
        if math.comb(n, k) > cfg.check_budget:
            break
        k_cap = k
    profile = cfg.resolved_profile()
    rep_e = check_expander_profile(g, profile, k_cap, cfg.check_budget)
    pair_top = min(k_cap, math.floor(cfg.resolved_pair_alpha_max() * n))
    rep_p = check_pair_profile(g, cfg.gamma, Fraction(pair_top, n), cfg.check_budget)
    return rep_e, rep_p


def _level_expander(cfg: BuildConfig, n: int, level: int, side: str):
    if cfg.expanders is not None:
        try:
            entry = cfg.expanders[n]
        except KeyError:
            raise BuildError(f"no explicit expander of size {n} provided") from None
        g = entry[0 if side == "x" else 1] if isinstance(entry, tuple) else entry
        if g.n != n:
            raise BuildError(f"explicit expander for size {n} has n={g.n}")
        rep_e, rep_p = _acceptance_checks(g, cfg)
        info = {
            "source": "explicit",
            "checks": {"expansion": rep_e.as_dict(), "pair": rep_p.as_dict()},
        }
        return g, info

    last_failure = None
    for attempt in range(cfg.retry_limit):
        seed = derive_seed("level", cfg.seed, level, side, attempt)
        g = sample_g(n, cfg.d, cfg.delta, seed, disjoint=True)
        rep_e, rep_p = _acceptance_checks(g, cfg)
        if rep_e.passed and rep_p.passed:
            info = {
                "source": "random-disjoint",
                "seed": seed,
                "attempt": attempt,
                "checks": {"expansion": rep_e.as_dict(), "pair": rep_p.as_dict()},
            }
            return g, info
        last_failure = rep_e.first_failure or rep_p.first_failure
    raise BuildError(
        f"no expander of size {n} passed the checks within {cfg.retry_limit} attempts",
        last_failure=last_failure,
    )


def build_gamma(n: int, cfg: BuildConfig | None = None) -> SuperDag:
    """Build the recursive superconcentrator on n inputs and n outputs.

    n must equal cfg.base_size * 2^t so the size can halve down to the
    complete bipartite base block.
    """
    cfg = cfg if cfg is not None else BuildConfig()
    _validate_size(n, cfg.base_size)
    dag = SuperDag()
    X = [dag.add_node("input", 0, ("X", i)) for i in range(1, n + 1)]
    Y = [dag.add_node("output", 0, ("Y", i)) for i in range(1, n + 1)]
    _build_level(dag, cfg, X, Y, 0)
    dag.topological_order()  # acyclicity is part of the build contract
    return dag


def _build_level(dag: SuperDag, cfg: BuildConfig, ins: list[int], outs: list[int], level: int) -> None:
    n = len(ins)
    if n <= cfg.base_size:
        for u in ins:
            for v in outs:
                dag.add_edge(u, v)
        dag.level_records.append(
            {"level": level, "n": n, "kind": "base", "edges_added": n * n}
        )
        return

    half = n // 2
    xp = [dag.add_node("internal", level, ("X'", level, i)) for i in range(1, n + 1)]
    yp = [dag.add_node("internal", level, ("Y'", level, i)) for i in range(1, n + 1)]

    gx, info_x = _level_expander(cfg, n, level, "x")
    gy, info_y = _level_expander(cfg, n, level, "y")

    # each property read decodes all n bitmasks, so read it once per graph
    for u, nbrs in zip(ins, gx.adjacency):
        for j in nbrs:
            dag.add_edge(u, xp[j - 1])
    # reverse copy: edge (i, j) of the sampled graph becomes y'_j -> y_i
    for v, nbrs in zip(outs, gy.adjacency):
        for j in nbrs:
            dag.add_edge(yp[j - 1], v)
    for i in range(1, half + 1):
        dag.add_edge(xp[i + half - 1], yp[i - 1])
        dag.add_edge(xp[i + half - 1], xp[i - 1])
        dag.add_edge(xp[i - 1], yp[i + half - 1])
        dag.add_edge(yp[i - 1], yp[i + half - 1])

    lam_x = gx.edge_count()
    lam_y = gy.edge_count()
    dag.level_records.append(
        {
            "level": level,
            "n": n,
            "kind": "expander",
            "lambda_x": dict(info_x, edges=lam_x),
            "lambda_y": dict(info_y, edges=lam_y),
            "cross_edges": 2 * n,
            "edges_added": lam_x + lam_y + 2 * n,
        }
    )
    _build_level(dag, cfg, xp[:half], yp[:half], level + 1)


class _FlowSolver:
    """Max-flow oracle on the node-split graph of a fixed dag.

    Every vertex v splits into an entry node and an exit node joined by a unit
    capacity arc; dag edges join exits to entries with unit capacity.  Queries
    attach a super source to the entry nodes of S and the exit nodes of T to a
    super sink, so the flow value is the maximum number of node-disjoint paths
    with distinct endpoints.
    """

    def __init__(self, dag: SuperDag):
        self.dag = dag
        nv = dag.num_nodes
        self.size = 2 * nv + 2
        rows = [2 + 2 * v for v in range(nv)] + [3 + 2 * u for u, _ in dag.edges]
        cols = [3 + 2 * v for v in range(nv)] + [2 + 2 * v for _, v in dag.edges]
        self.base_rows = np.asarray(rows, dtype=np.int32)
        self.base_cols = np.asarray(cols, dtype=np.int32)

    def query(self, S, T) -> int:
        s_rows = np.zeros(len(S), dtype=np.int32)
        s_cols = np.asarray([2 + 2 * v for v in S], dtype=np.int32)
        t_rows = np.asarray([3 + 2 * v for v in T], dtype=np.int32)
        t_cols = np.ones(len(T), dtype=np.int32)
        rows = np.concatenate([self.base_rows, s_rows, t_rows])
        cols = np.concatenate([self.base_cols, s_cols, t_cols])
        data = np.ones(len(rows), dtype=np.int32)
        graph = csr_matrix((data, (rows, cols)), shape=(self.size, self.size))
        return int(maximum_flow(graph, 0, 1).flow_value)


def max_disjoint_paths(dag: SuperDag, S, T, _solver: _FlowSolver | None = None) -> int:
    """Maximum number of node-disjoint paths from input subset S to output
    subset T (disjoint including endpoints), computed as a unit-capacity max
    flow on the node-split graph."""
    S = list(S)
    T = list(T)
    if len(S) != len(T):
        raise ValueError(f"|S|={len(S)} and |T|={len(T)} must match")
    if len(set(S)) != len(S) or len(set(T)) != len(T):
        raise ValueError("S and T must not contain repeats")
    if not set(S) <= set(dag.inputs):
        raise ValueError("S must consist of input nodes")
    if not set(T) <= set(dag.outputs):
        raise ValueError("T must consist of output nodes")
    solver = _solver if _solver is not None else _FlowSolver(dag)
    return solver.query(S, T)


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    mode: str
    pairs_checked: int
    counterexample: tuple | None  # (k, S, T, achieved)

    def as_dict(self) -> dict:
        ce = self.counterexample
        return {
            "passed": self.passed,
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "counterexample": None
            if ce is None
            else {"k": ce[0], "S": list(ce[1]), "T": list(ce[2]), "achieved": ce[3]},
        }


def verify_superconcentrator(
    dag: SuperDag,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Check that every same-size input/output subset pair is joined by that
    many node-disjoint paths.

    Exhaustive mode scans all pairs (sum over k of C(n,k)^2 of them) and
    refuses beyond the budget; sampled mode draws (k, S, T) uniformly from
    seeded substreams.
    """
    n = len(dag.inputs)
    solver = _FlowSolver(dag)
    if mode == "exhaustive":
        total = sum(math.comb(n, k) ** 2 for k in range(1, n + 1))
        if total > budget:
            raise EnumerationBudgetError(
                f"exhaustive verification over {n} inputs", total, budget
            )
        checked = 0
        for k in range(1, n + 1):
            for S in itertools.combinations(dag.inputs, k):
                for T in itertools.combinations(dag.outputs, k):
                    checked += 1
                    got = solver.query(S, T)
                    if got != k:
                        return VerifyReport(False, mode, checked, (k, S, T, got))
        return VerifyReport(True, mode, checked, None)
    if mode == "sampled":
        for t in range(trials):
            rng = random.Random(derive_seed("verify", seed, t))
            k = rng.randint(1, n)
            S = tuple(sorted(rng.sample(dag.inputs, k)))
            T = tuple(sorted(rng.sample(dag.outputs, k)))
            got = solver.query(S, T)
            if got != k:
                return VerifyReport(False, mode, t + 1, (k, S, T, got))
        return VerifyReport(True, mode, trials, None)
    raise ValueError(f"unknown mode {mode!r}")
