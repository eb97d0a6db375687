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
node-disjoint paths join them.  In a dag that count is a maximum bipartite
matching between vertex exits and vertex entries, less the vertices outside
the two subsets (see ``_PathCounter``), computed by Hopcroft-Karp.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
from collections import Counter, deque, namedtuple
from fractions import Fraction

from .profiles import density253_constants, expansion_profile
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


class BuildConfig(namedtuple(
    "BuildConfig", "base_size d delta seed retry_limit check_k_max check_budget expanders",
    defaults=(20, 5, Fraction(13, 40), 0, 8, 2, 200_000, None),
)):
    """Knobs of the recursive build.

    ``expanders`` switches from seeded sampling to explicit graphs: a mapping
    from level size n to the graph used for both columns.  Sampled
    expanders are drawn in the disjoint mode so each level adds exactly
    2*(d*n + floor(delta*n)) + 2n edges, and are retried until they pass the
    acceptance checks: exact expansion for subset sizes 1..check_k_max and
    pair expansion up to min(check_k_max, c3*n).  A size k with C(n, k)
    above ``check_budget`` ends a check, and the level record says so with
    ``complete: false, truncated_at: k``.  A check over no size (a budget
    below n, a check_k_max outside 1..n, or c3*n < 1) raises, not passes.
    """

    __slots__ = ()


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
        return v

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def edge_count(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        return self.edge_count() / len(self.inputs)

    def successors(self) -> list[list[int]]:
        succ = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            succ[u].append(v)
        return succ

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

    def check(self) -> None:
        """Raise ValueError unless this is a graph the verifier can trust:
        every input, output and edge end an int node id in range, input and
        output lists that hold exactly the ids of those roles, no repeated
        edge and no cycle.  The path counter is right only on such a graph."""
        nv = self.num_nodes
        ends = itertools.chain(self.inputs, self.outputs, itertools.chain.from_iterable(self.edges))
        bad = [v for v in ends if type(v) is not int or not 0 <= v < nv]
        if bad:
            raise ValueError(f"node id {bad[0]!r} outside 0..{nv - 1}")
        for key, role in (("inputs", "input"), ("outputs", "output")):
            if sorted(getattr(self, key)) != [v for v, r in enumerate(self.roles) if r == role]:
                raise ValueError(f"{key} list disagrees with the node roles")
        if len(set(self.edges)) != len(self.edges):
            dup = next(e for e, count in Counter(self.edges).items() if count > 1)
            raise ValueError(f"duplicate edge {dup}")
        self.topological_order()  # raises on a cycle

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
            # json writes tuples as arrays
            "nodes": [
                {"role": r, "level": lv, "label": lb}
                for r, lv, lb in zip(self.roles, self.level_of, self.labels)
            ],
            "edges": self.edges,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "levels": self.level_records,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SuperDag":
        """Parse the output of :meth:`to_json`.

        Raises ValueError unless the file holds object node records with
        known roles, integer levels and label lists, object level records
        and edges given as pairs, and the graph they describe passes
        :meth:`check`.
        """
        payload = json.loads(text)
        keys = ("nodes", "edges", "inputs", "outputs", "levels")
        if not isinstance(payload, dict) or not all(isinstance(payload.get(k), list) for k in keys):
            raise ValueError(f"graph file must hold a JSON object with {', '.join(keys)} lists")
        dag = cls()
        for node in payload["nodes"]:
            if not isinstance(node, dict) or not isinstance(node.get("label"), list):
                raise ValueError(f"node record {node!r} is not an object with a label list")
            for key in ("role", "level"):
                if key not in node:
                    raise ValueError(f"node record {node!r} has no {key!r}")
            if type(node["level"]) is not int:
                raise ValueError(f"node record {node!r} has a 'level' that is not an integer")
            dag.add_node(node["role"], node["level"], tuple(node["label"]))
        for record in payload["levels"]:
            if not isinstance(record, dict):
                raise ValueError(f"level record {record!r} is not an object")
        if not all(type(edge) is list and len(edge) == 2 for edge in payload["edges"]):
            raise ValueError("edges must be pairs of node ids")
        # the file's input and output lists, in the order it gives them
        dag.inputs = payload["inputs"]
        dag.outputs = payload["outputs"]
        dag.edges = list(map(tuple, payload["edges"]))
        dag.check()
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
    """Run both checks on g; return the level record's ``checks`` dict and
    the first failing entry (None when both checks passed)."""
    c = density253_constants()
    rep_e = check_expander_profile(g, expansion_profile(c), cfg.check_k_max, cfg.check_budget)
    rep_p = check_pair_profile(g, 1, min(Fraction(cfg.check_k_max, g.n), c.c3), cfg.check_budget)
    checks = {"expansion": rep_e.as_dict(), "pair": rep_p.as_dict()}
    return checks, rep_e.first_failure or rep_p.first_failure


def _level_expander(cfg: BuildConfig, n: int, level: int, side: str):
    if cfg.expanders is not None:
        try:
            g = cfg.expanders[n]
        except KeyError:
            raise BuildError(f"no explicit expander of size {n} provided") from None
        if g.n != n:
            raise BuildError(f"explicit expander for size {n} has n={g.n}")
        checks, _ = _acceptance_checks(g, cfg)
        return g, {"source": "explicit", "checks": checks}

    failure = None
    for attempt in range(cfg.retry_limit):
        seed = derive_seed("level", cfg.seed, level, side, attempt)
        g = sample_g(n, cfg.d, cfg.delta, seed, disjoint=True)
        checks, failure = _acceptance_checks(g, cfg)
        if failure is None:
            return g, {"source": "random-disjoint", "seed": seed, "attempt": attempt, "checks": checks}
    raise BuildError(
        f"no expander of size {n} passed the checks within {cfg.retry_limit} attempts",
        last_failure=failure,
    )


def build_gamma(n: int, cfg: BuildConfig | None = None) -> SuperDag:
    """Build the recursive superconcentrator on n inputs and n outputs.

    n must equal cfg.base_size * 2^t so the size can halve down to the
    complete bipartite base block.
    """
    cfg = cfg if cfg is not None else BuildConfig()
    _validate_size(n, cfg.base_size)
    if cfg.retry_limit < 1:
        raise ValueError(f"retry_limit must be >= 1, got {cfg.retry_limit}")
    dag = SuperDag()
    X = [dag.add_node("input", 0, ("X", i)) for i in range(1, n + 1)]
    Y = [dag.add_node("output", 0, ("Y", i)) for i in range(1, n + 1)]
    _build_level(dag, cfg, X, Y, 0)
    dag.check()
    return dag


def _build_level(dag: SuperDag, cfg: BuildConfig, ins: list[int], outs: list[int], level: int) -> None:
    n = len(ins)
    if n <= cfg.base_size:
        dag.edges += [(u, v) for u in ins for v in outs]
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
    dag.edges += [(u, xp[j - 1]) for u, nbrs in zip(ins, gx.adjacency) for j in nbrs]
    # reverse copy: edge (i, j) of the sampled graph becomes y'_j -> y_i
    dag.edges += [(yp[j - 1], v) for v, nbrs in zip(outs, gy.adjacency) for j in nbrs]
    dag.edges += [
        e for i in range(half) for e in (
            (xp[i + half], yp[i]), (xp[i + half], xp[i]), (xp[i], yp[i + half]), (yp[i], yp[i + half])
        )
    ]

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


class _PathCounter:
    """Node-disjoint S-T path counts of a fixed dag, one bipartite matching
    per query (Hopcroft and Karp, SIAM J. Comput. 2, 1973).

    Rows are vertex exits and columns vertex entries: a dag edge u -> v joins
    exit u to entry v, and each vertex outside S and T has a bypass edge from
    its exit to its own entry.  The dag edges of a matching form node-disjoint
    paths, as the dag has no cycle, and every path that does not run from S
    to T leaves a bypassable vertex unmatched; so the maximum matching is the
    bypass count plus the maximum number of node-disjoint S-T paths.  A query
    drops the edges into S and out of T, which a path can always cut short by
    starting or ending there; kept, s1 -> s2 -> t1 would count two paths.
    """

    def __init__(self, dag: SuperDag):
        # numpy and scipy load with the first path counter, before any
        # worker forks, so building a dag (build-sc) never imports them
        import numpy as np
        import scipy.sparse.csgraph  # noqa: F401

        nv = dag.num_nodes
        ids = np.arange(nv, dtype=np.int32)
        ends = np.asarray(dag.edges, dtype=np.int32).reshape(-1, 2)
        rows = np.concatenate([ids, ends[:, 0]])
        cols = np.concatenate([ids, ends[:, 1]])
        # a stable sort keeps each row's bypass first, so the greedy first
        # phase of Hopcroft-Karp tries it first; with the bypass last, the
        # queries on Gamma(1280) ran 3x slower
        order = np.argsort(rows, kind="stable")
        self.rows = rows[order]
        self.cols = cols[order]
        self.nv = nv

    def query(self, S, T) -> int:
        """Path count from S to T, each a list or integer array of node ids."""
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        nv = self.nv
        in_s = np.zeros(nv, dtype=bool)
        in_s[S] = True
        in_t = np.zeros(nv, dtype=bool)
        in_t[T] = True
        # one rule drops the edges into S, the edges out of T and the
        # bypasses of S and T, whose rows equal their columns
        keep = ~(in_s[self.cols] | in_t[self.rows])
        cols = self.cols[keep]
        indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows[keep], minlength=nv), out=indptr[1:])
        graph = csr_matrix((np.ones(len(cols), dtype=np.int8), cols, indptr), shape=(nv, nv))
        matched = np.count_nonzero(maximum_bipartite_matching(graph, perm_type="column") >= 0)
        return int(matched) - (nv - len(S) - len(T))


_inherited: list = []  # a forked worker's path counter, put there as it starts; the parent's stays empty


def _scan(chunk, solver=None):
    """(queries run, (S, T, count) of the first below |S| or None) for a
    chunk of (S, T) queries; a forked worker queries the one it inherited."""
    solver = solver or _inherited[0]
    for i, (S, T) in enumerate(chunk, 1):
        got = solver.query(S, T)
        if got != len(S):
            return i, (S, T, got)
    return len(chunk), None


def max_disjoint_paths(dag: SuperDag, S, T) -> int:
    """Maximum number of node-disjoint paths from input subset S to output
    subset T (disjoint including endpoints), computed as a maximum bipartite
    matching on the exit/entry graph of the dag."""
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
    return _PathCounter(dag).query(S, T)


class VerifyReport(namedtuple("VerifyReport", "passed mode pairs_checked counterexample")):
    """``counterexample`` is (k, S, T, achieved), or None when all passed."""

    __slots__ = ()

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
    refuses beyond the budget.  Sampled mode runs at least one trial, each
    drawing k uniform on 1..n and then independent uniform k-subsets S of
    the inputs and T of the outputs, all from one numpy generator seeded
    with ``derive_seed("verify", seed)``; a reported counterexample lists S
    and T sorted.  A dag whose input and output
    counts differ, or are zero, is refused: it is no superconcentrator, and
    neither mode would check the sizes it lacks.

    The draws go in order, 16 to a chunk, to forked workers, one per CPU in
    the process's affinity mask, or run in process with one such CPU or one
    chunk; the report is the same either way.
    """
    n = len(dag.inputs)
    if n != len(dag.outputs) or n == 0:
        raise ValueError(
            f"a superconcentrator needs as many inputs as outputs, at least one: "
            f"got {n} inputs and {len(dag.outputs)} outputs"
        )
    if mode == "exhaustive":
        total = sum(math.comb(n, k) ** 2 for k in range(1, n + 1))
        if total > budget:
            raise EnumerationBudgetError(
                f"exhaustive verification over {n} inputs", total, budget
            )
        draws = (
            (list(S), list(T))
            for k in range(1, n + 1)
            for S in itertools.combinations(dag.inputs, k)
            for T in itertools.combinations(dag.outputs, k)
        )
    elif mode == "sampled":
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        import numpy as np

        rng = np.random.default_rng(derive_seed("verify", seed))
        inputs = np.asarray(dag.inputs)
        outputs = np.asarray(dag.outputs)
        choose = functools.partial(rng.choice, n, replace=False)
        # k, then S, then T, trial after trial: a tuple's items run left to right
        sizes = (int(rng.integers(1, n, endpoint=True)) for _ in range(trials))
        draws = ((inputs[choose(k)], outputs[choose(k)]) for k in sizes)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    solver = _PathCounter(dag)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    chunks = iter(lambda: list(itertools.islice(draws, 16)), [])
    with contextlib.ExitStack() as stack:
        head = list(itertools.islice(chunks, 2 * cpus))
        workers = min(cpus, len(head))
        submit = lambda chunk: functools.partial(_scan, chunk, solver)
        if workers > 1 and hasattr(os, "fork"):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, fork, _inherited.append, (solver,))
            # on leaving, drops the chunks not started and reaps the workers
            stack.callback(pool.shutdown, cancel_futures=True)
            submit = lambda chunk: pool.submit(_scan, chunk).result
        # two chunks per worker in flight, their results read in draw order
        window = deque(map(submit, head))
        checked = 0
        while window:
            result = window.popleft()
            window.extend(map(submit, itertools.islice(chunks, 1)))
            ran, shortfall = result()
            checked += ran
            if shortfall is not None:
                break
    if shortfall is None:
        return VerifyReport(True, mode, checked, None)
    S, T, got = shortfall
    if mode == "sampled":
        S, T = sorted(S.tolist()), sorted(T.tolist())
    return VerifyReport(False, mode, checked, (len(S), tuple(S), tuple(T), got))
