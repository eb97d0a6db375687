"""Seeded random bipartite graphs of fractional average degree, and exact or
sampled measurements of their expansion and pair-expansion.

The model overlays d uniform random permutations of 1..n and then pins the
extra edges (i, i) for i <= floor(delta*n), so the average left degree is
d + delta up to deduplication.  Left and right vertices both carry labels
1..n; adjacency is stored as per-vertex bitmasks, which keeps exhaustive
subset scans cheap.

Two sampling modes exist.  The default draws the d permutations
independently, which is the model all probability formulas in
:mod:`superconc.probability` refer to; duplicate edges are merged, so left
degrees can drop below d.  With ``disjoint=True`` each permutation is
redrawn until it avoids the previous ones (and the pinned diagonal
positions), so the graph has exactly d*n + floor(delta*n) edges; the
superconcentrator builder uses this mode to keep edge counts exact.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .profiles import PiecewiseLinear, as_fraction

__all__ = [
    "EXPLICIT",
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "derive_seed",
    "BipartiteGraph",
    "sample_g",
    "complete_bipartite",
    "neighborhood",
    "pair_count",
    "min_expansion",
    "min_pair_expansion",
    "sampled_min_expansion",
    "SubsetCheckEntry",
    "SubsetCheckReport",
    "check_expander_profile",
    "check_pair_profile",
    "graph_to_text",
    "graph_from_text",
    "graph_to_dot",
]

EXPLICIT = "explicit"
DEFAULT_BUDGET = 1_000_000

_MAX_RESAMPLE = 1_000_000


class EnumerationBudgetError(RuntimeError):
    """An exhaustive scan would exceed its configured budget."""

    def __init__(self, what: str, count: int, budget: int):
        super().__init__(
            f"{what} needs {count} evaluations, over the budget of {budget}; "
            "use a sampled variant instead"
        )
        self.what = what
        self.count = count
        self.budget = budget


def derive_seed(*parts) -> int:
    """Stable 64-bit substream seed from a tuple of labels (SHA-256 based).

    Keying substreams this way keeps every sampled object reproducible and
    independent of evaluation order.
    """
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _permutation(rng: random.Random, n: int) -> list[int]:
    """Uniform permutation of 1..n: ``shuffle`` is Fisher-Yates drawing
    ``randbelow(i + 1)`` for i = n-1 .. 1, so the stream fixes the result."""
    arr = list(range(1, n + 1))
    rng.shuffle(arr)
    return arr


class BipartiteGraph:
    """Bipartite graph on n left and n right vertices, edges from left to right.

    ``masks[i]`` holds the neighborhood of left vertex i+1 as a bitmask with
    bit j-1 standing for right vertex j.
    """

    __slots__ = ("n", "masks", "provenance")

    def __init__(self, n: int, neighbors: Iterable[Iterable[int]], provenance=EXPLICIT):
        if n < 1:
            raise ValueError(f"n must be positive: {n}")
        masks = []
        for i, nbrs in enumerate(neighbors, start=1):
            m = 0
            for j in nbrs:
                if not 1 <= j <= n:
                    raise ValueError(f"neighbor {j} of left vertex {i} outside 1..{n}")
                m |= 1 << (j - 1)
            masks.append(m)
        if len(masks) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(masks)}")
        self.n = n
        self.masks = tuple(masks)
        self.provenance = provenance

    @property
    def adjacency(self) -> tuple:
        """Sorted neighbor labels per left vertex, 1-based."""
        return tuple(_mask_to_labels(m) for m in self.masks)

    def degree(self, i: int) -> int:
        return self.masks[i - 1].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks)

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.n, self.masks, self.provenance) == (other.n, other.masks, other.provenance)

    def __hash__(self):
        return hash((self.n, self.masks))

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, edges={self.edge_count()}, provenance={self.provenance!r})"


def _mask_to_labels(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def sample_g(n: int, d: int, delta, seed: int, *, disjoint: bool = False) -> BipartiteGraph:
    """Overlay d seeded random permutations plus pinned edges (i, i) for
    i <= floor(delta*n).

    Permutation j is drawn from its own substream keyed by (seed, j).  With
    ``disjoint=True`` each permutation is redrawn until it collides neither
    with the previous ones nor, on the pinned positions, with the diagonal,
    which makes the edge count exactly d*n + floor(delta*n).
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    delta = as_fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError(f"delta={delta} outside [0, 1]")
    pinned = math.floor(delta * n)

    masks = [0] * n
    taken = [0] * n  # per-position mask of already used right labels (disjoint mode)
    for j in range(d):
        rng = random.Random(derive_seed("perm", seed, j))
        for _ in range(_MAX_RESAMPLE):
            perm = _permutation(rng, n)
            if not disjoint:
                break
            ok = all(not (taken[i] >> (perm[i] - 1)) & 1 for i in range(n)) and all(
                perm[i] != i + 1 for i in range(pinned)
            )
            if ok:
                break
        else:
            raise RuntimeError(
                f"could not draw permutation {j + 1} of {d} avoiding the previous "
                f"ones at n={n}; the disjoint mode needs d well below n"
            )
        for i in range(n):
            bit = 1 << (perm[i] - 1)
            masks[i] |= bit
            taken[i] |= bit
    for i in range(pinned):
        masks[i] |= 1 << i

    g = BipartiteGraph.__new__(BipartiteGraph)
    g.n = n
    g.masks = tuple(masks)
    g.provenance = (seed, d, delta)
    return g


def complete_bipartite(n: int) -> BipartiteGraph:
    """Every left vertex adjacent to every right vertex."""
    full = (1 << n) - 1
    g = BipartiteGraph.__new__(BipartiteGraph)
    g.n = n
    g.masks = (full,) * n
    g.provenance = EXPLICIT
    return g


def _subset_mask(g: BipartiteGraph, S: Iterable[int]) -> int:
    m = 0
    for i in S:
        if not 1 <= i <= g.n:
            raise ValueError(f"left vertex {i} outside 1..{g.n}")
        m |= g.masks[i - 1]
    return m


def neighborhood(g: BipartiteGraph, S: Iterable[int]) -> set:
    """Union of the neighborhoods of the left vertices in S."""
    return set(_mask_to_labels(_subset_mask(g, S)))


def _pair_fold(mask: int, half: int) -> int:
    return (mask & ((1 << half) - 1)) | (mask >> half)


def pair_count(g: BipartiteGraph, U: Iterable[int]) -> int:
    """Number of right pairs {j, j+n/2} touched by the neighborhood of U."""
    if g.n % 2:
        raise ValueError(f"pair structure needs even n, got {g.n}")
    return _pair_fold(_subset_mask(g, U), g.n // 2).bit_count()


def _check_budget(n: int, k: int, budget: int) -> None:
    count = math.comb(n, k)
    if count > budget:
        raise EnumerationBudgetError(f"scanning all C({n},{k}) size-{k} subsets", count, budget)


def _min_subset_score(masks: tuple, k: int, score: Callable[[int], int]):
    """Exact minimum of score(union mask) over all k-subsets, with the
    lexicographically smallest witness.

    score must be nondecreasing under union, which lets partial unions prune.
    """
    n = len(masks)
    best = math.inf
    best_witness: tuple = ()
    chosen: list[int] = []

    def rec(start: int, acc: int) -> None:
        nonlocal best, best_witness
        depth = len(chosen)
        if depth == k:
            s = score(acc)
            if s < best:
                best = s
                best_witness = tuple(v + 1 for v in chosen)
            return
        for v in range(start, n - (k - depth) + 1):
            nxt = acc | masks[v]
            if score(nxt) >= best:
                continue
            chosen.append(v)
            rec(v + 1, nxt)
            chosen.pop()

    rec(0, 0)
    return int(best), best_witness


def min_expansion(g: BipartiteGraph, k: int, budget: int = DEFAULT_BUDGET):
    """Exact minimum of |neighborhood(S)| over all left subsets of size k.

    Returns (value, witness) with the lexicographically smallest minimizing
    subset.  Refuses when C(n, k) exceeds the budget.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside 1..{g.n}")
    _check_budget(g.n, k, budget)
    return _min_subset_score(g.masks, k, int.bit_count)


def min_pair_expansion(g: BipartiteGraph, k: int, budget: int = DEFAULT_BUDGET):
    """Exact minimum of pair_count over all left subsets of size k."""
    if g.n % 2:
        raise ValueError(f"pair structure needs even n, got {g.n}")
    if k == 0:
        return 0, ()
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside 1..{g.n}")
    _check_budget(g.n, k, budget)
    half = g.n // 2
    return _min_subset_score(g.masks, k, lambda m: _pair_fold(m, half).bit_count())


def sampled_min_expansion(g: BipartiteGraph, k: int, trials: int, seed: int):
    """Heuristic upper bound on min_expansion: random starts plus steepest
    descent swaps.

    Each trial starts from a random k-subset and repeatedly removes the member
    contributing the most unique neighbors, then adds the outside vertex
    contributing the fewest new ones, stopping at a local minimum.  Being a
    minimum over a sample, the result can only overestimate the true minimum.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside 1..{g.n}")
    best = math.inf
    best_witness: tuple = ()
    for t in range(trials):
        rng = random.Random(derive_seed("sme", seed, t))
        S = sorted(rng.sample(range(1, g.n + 1), k))
        S, val = _descend(g, S)
        if val < best:
            best = val
            best_witness = tuple(S)
    return int(best), best_witness


def _descend(g: BipartiteGraph, S: list[int]):
    members = list(S)
    while True:
        masks = [g.masks[v - 1] for v in members]
        union = 0
        for m in masks:
            union |= m
        total = union.bit_count()
        # member whose removal sheds the most neighbors (smallest label on ties)
        best_gain, victim_idx = -1, 0
        for idx, v in enumerate(members):
            others = 0
            for jdx, m in enumerate(masks):
                if jdx != idx:
                    others |= m
            gain = (masks[idx] & ~others).bit_count()
            if gain > best_gain:
                best_gain, victim_idx = gain, idx
        base = 0
        for jdx, m in enumerate(masks):
            if jdx != victim_idx:
                base |= m
        in_set = set(members)
        best_add, candidate = math.inf, None
        for u in range(1, g.n + 1):
            if u in in_set:
                continue
            add = (g.masks[u - 1] & ~base).bit_count()
            if add < best_add:
                best_add, candidate = add, u
        if candidate is None or base.bit_count() + best_add >= total:
            return sorted(members), total
        members[victim_idx] = candidate


@dataclass(frozen=True)
class SubsetCheckEntry:
    k: int
    required: int
    achieved: int
    witness: tuple


@dataclass(frozen=True)
class SubsetCheckReport:
    """Outcome of sweeping subset sizes against a requirement.

    ``complete`` is False when the enumeration budget cut the sweep short;
    ``passed`` then only speaks for the sizes actually checked.
    """

    kind: str
    passed: bool
    complete: bool
    truncated_at: int | None
    entries: tuple

    @property
    def first_failure(self) -> SubsetCheckEntry | None:
        for e in self.entries:
            if e.achieved < e.required:
                return e
        return None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "complete": self.complete,
            "truncated_at": self.truncated_at,
            "checked_sizes": [e.k for e in self.entries],
            "first_failure": None
            if self.first_failure is None
            else {
                "k": self.first_failure.k,
                "required": self.first_failure.required,
                "achieved": self.first_failure.achieved,
                "witness": list(self.first_failure.witness),
            },
        }


def check_expander_profile(
    g: BipartiteGraph, profile: PiecewiseLinear, k_max: int, budget: int = DEFAULT_BUDGET
) -> SubsetCheckReport:
    """Check min_expansion(g, k) >= ceil(profile(k/n) * n) for k = 1..k_max.

    Subset sizes k realize the fractions alpha = k/n; the requirement is
    evaluated exactly when the profile is rational.  A budget hit produces a
    partial report flagged via ``complete=False``.
    """
    entries = []
    truncated_at = None
    for k in range(1, k_max + 1):
        required = math.ceil(profile.eval(Fraction(k, g.n)) * g.n)
        try:
            achieved, witness = min_expansion(g, k, budget)
        except EnumerationBudgetError:
            truncated_at = k
            break
        entries.append(
            SubsetCheckEntry(k, required, achieved, witness if achieved < required else ())
        )
        if achieved < required:
            break
    passed = all(e.achieved >= e.required for e in entries)
    return SubsetCheckReport("expansion", passed, truncated_at is None, truncated_at, tuple(entries))


def check_pair_profile(
    g: BipartiteGraph, gamma, alpha_max, budget: int = DEFAULT_BUDGET
) -> SubsetCheckReport:
    """Check min_pair_expansion(g, k) >= floor(gamma * k) for every
    k = floor(alpha * n) with alpha <= alpha_max, i.e. k = 1..floor(alpha_max*n)."""
    gamma = as_fraction(gamma)
    alpha_max = as_fraction(alpha_max)
    k_top = math.floor(alpha_max * g.n)
    entries = []
    truncated_at = None
    for k in range(1, k_top + 1):
        required = math.floor(gamma * k)
        try:
            achieved, witness = min_pair_expansion(g, k, budget)
        except EnumerationBudgetError:
            truncated_at = k
            break
        entries.append(
            SubsetCheckEntry(k, required, achieved, witness if achieved < required else ())
        )
        if achieved < required:
            break
    passed = all(e.achieved >= e.required for e in entries)
    return SubsetCheckReport("pair", passed, truncated_at is None, truncated_at, tuple(entries))


def graph_to_text(g: BipartiteGraph) -> str:
    """Plain-text serialization: header "n d delta seed", then one line of
    sorted neighbor labels per left vertex.  Explicit graphs write "-" for the
    three sampling fields."""
    if g.provenance == EXPLICIT:
        header = f"{g.n} - - -"
    else:
        seed, d, delta = g.provenance
        header = f"{g.n} {d} {delta} {seed}"
    lines = [header]
    for nbrs in g.adjacency:
        lines.append(" ".join(str(j) for j in nbrs))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> BipartiteGraph:
    lines = [ln for ln in text.splitlines() if ln.strip() or ln == ""]
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"malformed header: {lines[0]!r}")
    n = int(head[0])
    if head[1] == "-":
        provenance = EXPLICIT
    else:
        provenance = (int(head[3]), int(head[1]), Fraction(head[2]))
    rows = [[int(t) for t in ln.split()] for ln in lines[1 : n + 1]]
    return BipartiteGraph(n, rows, provenance)


def graph_to_dot(g: BipartiteGraph, name: str = "expander") -> str:
    """DOT rendering with left and right vertices in two ranks."""
    out = [f"digraph {name} {{", "  rankdir=LR;"]
    out.append("  { rank=same; " + " ".join(f"L{i};" for i in range(1, g.n + 1)) + " }")
    out.append("  { rank=same; " + " ".join(f"R{j};" for j in range(1, g.n + 1)) + " }")
    for i in range(1, g.n + 1):
        out.append(f'  L{i} [label="l{i}" shape=circle];')
        out.append(f'  R{i} [label="r{i}" shape=circle];')
    for i, nbrs in enumerate(g.adjacency, start=1):
        for j in nbrs:
            out.append(f"  L{i} -> R{j};")
    out.append("}")
    return "\n".join(out) + "\n"
