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
positions), abandoning each attempt at its first collision, so the graph
has exactly d*n + floor(delta*n) edges; the superconcentrator builder uses
this mode to keep edge counts exact.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from typing import Iterable

from . import DEFAULT_BUDGET, derive_seed
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

_MAX_RESAMPLE = 1_000_000


class EnumerationBudgetError(ValueError):
    """An exhaustive scan would exceed its configured budget."""

    def __init__(self, what: str, count: int, budget: int):
        super().__init__(
            f"{what} needs {count} evaluations, over the budget of {budget}; "
            "use a sampled variant instead"
        )


def _fisher_yates(getrandbits, n: int, taken: list | None = None) -> list[int] | None:
    """Permutation of 1..n by the Fisher-Yates draws of ``random.shuffle``:
    randbelow(i + 1) for i = n-1 .. 1, each by rejection on
    ``getrandbits((i + 1).bit_length())``, so the stream fixes the result.

    With ``taken``, per-position bitmasks of forbidden labels, the attempt
    tests position i as soon as the draw for i has fixed it and returns None
    at the first collision, making no further draw.  It rejects exactly the
    permutations a check of the finished shuffle would, so an accepted one is
    uniform over those avoiding ``taken``.
    """
    arr = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        width = (i + 1).bit_length()
        j = getrandbits(width)
        while j > i:
            j = getrandbits(width)
        v = arr[j]
        arr[j] = arr[i]
        arr[i] = v
        if taken is not None and taken[i] >> (v - 1) & 1:
            return None
    if taken is not None and taken[0] >> (arr[0] - 1) & 1:
        return None
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

    Permutation j is drawn from its own substream keyed by (seed, j), by the
    Fisher-Yates draws of ``random.shuffle``.  With ``disjoint=True`` each
    permutation is redrawn until it collides neither with the previous ones
    nor, on the pinned positions, with the diagonal, which makes the edge
    count exactly d*n + floor(delta*n).  An attempt stops at its first
    collision, so the kept permutation is uniform over the admissible ones,
    and the next attempt continues the same substream.  Such
    permutations exist exactly when d <= n, or d <= n - 1 once an edge is
    pinned (the cyclic shifts attain both); other requests, and draws that
    exhaust the redraw cap, raise ValueError.  A plain draw stops once every
    row is full, which no later permutation can change.
    """
    g = BipartiteGraph.__new__(BipartiteGraph)
    g.n = n
    g.masks = _overlay(n, d, delta, seed, disjoint)
    g.provenance = (seed, d, as_fraction(delta))
    return g


def _overlay(n: int, d: int, delta, seed: int, disjoint: bool, within=None) -> tuple | None:
    """sample_g's rows; with ``within``, per-row bitmasks, a plain draw
    returns None at its first permutation edge outside them."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    delta = as_fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError(f"delta={delta} outside [0, 1]")
    pinned = math.floor(delta * n)
    if disjoint and d > n - (pinned > 0):
        raise ValueError(
            f"no {d} disjoint permutations of {n} avoid the {pinned} pinned edges; "
            f"the disjoint mode needs d <= {n - (pinned > 0)}"
        )

    # the pinned diagonal goes in first, so disjoint draws avoid it like
    # the earlier permutations: in that mode masks are the forbidden labels
    masks = [1 << i if i < pinned else 0 for i in range(n)]
    full = (1 << n) - 1
    outside = None if within is None else [full ^ m for m in within]
    for j in range(d):
        if not disjoint and masks.count(full) == n:
            break
        getrandbits = random.Random(derive_seed("perm", seed, j)).getrandbits
        for _ in range(_MAX_RESAMPLE if disjoint else 1):
            perm = _fisher_yates(getrandbits, n, masks if disjoint else outside)
            if perm is not None or not disjoint:
                break
        else:
            raise ValueError(
                f"could not draw permutation {j + 1} of {d} avoiding the previous "
                f"ones at n={n} in {_MAX_RESAMPLE} tries; the disjoint mode needs d well below n"
            )
        if perm is None:  # a plain draw left ``within``
            return None
        for i, v in enumerate(perm):
            masks[i] |= 1 << (v - 1)
    return tuple(masks)


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


def _min_subset_score(masks: tuple, k: int, budget: int):
    """Exact minimum of the popcount of the union of k masks, with the
    lexicographically smallest witness (1-based positions).

    Raises ValueError for k outside 1..n and EnumerationBudgetError when
    C(n, k) exceeds the budget.  Popcount is nondecreasing under union,
    which lets partial unions prune.
    """
    n = len(masks)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    count = math.comb(n, k)
    if count > budget:
        raise EnumerationBudgetError(f"scanning all C({n},{k}) size-{k} subsets", count, budget)
    best = math.inf
    best_witness: tuple = ()
    chosen: list[int] = []

    def rec(start: int, acc: int) -> None:
        nonlocal best, best_witness
        depth = len(chosen)
        if depth == k:
            s = acc.bit_count()
            if s < best:
                best = s
                best_witness = tuple(v + 1 for v in chosen)
            return
        for v in range(start, n - (k - depth) + 1):
            nxt = acc | masks[v]
            if nxt.bit_count() >= best:
                continue
            chosen.append(v)
            rec(v + 1, nxt)
            chosen.pop()

    rec(0, 0)
    return int(best), best_witness


def _pair_masks(g: BipartiteGraph) -> tuple:
    # folding commutes with union, so a pair scan can run on folded masks
    if g.n % 2:
        raise ValueError(f"pair structure needs even n, got {g.n}")
    half = g.n // 2
    return tuple(_pair_fold(m, half) for m in g.masks)


def min_expansion(g: BipartiteGraph, k: int, budget: int = DEFAULT_BUDGET):
    """Exact minimum of |neighborhood(S)| over all left subsets of size k.

    Returns (value, witness) with the lexicographically smallest minimizing
    subset.  Refuses when C(n, k) exceeds the budget.
    """
    return _min_subset_score(g.masks, k, budget)


def min_pair_expansion(g: BipartiteGraph, k: int, budget: int = DEFAULT_BUDGET):
    """Exact minimum of pair_count over all left subsets of size k."""
    masks = _pair_masks(g)
    return (0, ()) if k == 0 else _min_subset_score(masks, k, budget)


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    k = len(members)
    while True:
        masks = [g.masks[v - 1] for v in members]
        # suffix[i] is the union of masks[i:]; with the running union of
        # masks[:idx] it gives the union of all members but idx in O(1)
        suffix = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] | masks[i]
        total = suffix[0].bit_count()
        # member whose removal sheds the most neighbors; ties go to the
        # earliest position in members (unsorted once a swap has happened)
        best_gain, victim_idx, base = -1, 0, 0
        before = 0
        for idx, m in enumerate(masks):
            others = before | suffix[idx + 1]
            gain = (m & ~others).bit_count()
            if gain > best_gain:
                best_gain, victim_idx, base = gain, idx, others
            before |= m
        outside = ~base
        in_set = set(members)
        best_add, candidate = math.inf, None
        for u in range(1, g.n + 1):
            if u in in_set:
                continue
            add = (g.masks[u - 1] & outside).bit_count()
            if add < best_add:
                best_add, candidate = add, u
        if candidate is None or base.bit_count() + best_add >= total:
            return sorted(members), total
        members[victim_idx] = candidate


SubsetCheckEntry = namedtuple("SubsetCheckEntry", "k required achieved witness")


class SubsetCheckReport(namedtuple("SubsetCheckReport", "kind truncated_at entries")):
    """Outcome of sweeping subset sizes against a requirement.

    ``complete`` is False when the enumeration budget cut the sweep short at
    size ``truncated_at`` (None otherwise); ``passed`` then only speaks for
    the sizes actually checked.
    """

    __slots__ = ()

    @property
    def first_failure(self) -> SubsetCheckEntry | None:
        return next((e for e in self.entries if e.achieved < e.required), None)

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    @property
    def complete(self) -> bool:
        return self.truncated_at is None

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


def _sweep(kind: str, masks: tuple, rows: Iterable, budget: int) -> SubsetCheckReport:
    """Check the exact minimum union popcount over size-k subsets of masks
    against ``required`` for each (k, required) row in turn.

    The sweep stops at the first failure, keeping its witness, or at the
    first size whose C(n, k) exceeds the budget, which it records as
    ``truncated_at``.  A budget that stops it before its first size raises
    EnumerationBudgetError: a report over no size would pass vacuously.
    """
    entries = []
    for k, required in rows:
        try:
            achieved, witness = _min_subset_score(masks, k, budget)
        except EnumerationBudgetError:
            if not entries:
                raise
            return SubsetCheckReport(kind, k, tuple(entries))
        failed = achieved < required
        entries.append(SubsetCheckEntry(k, required, achieved, witness if failed else ()))
        if failed:
            break
    return SubsetCheckReport(kind, None, tuple(entries))


def check_expander_profile(
    g: BipartiteGraph, profile: PiecewiseLinear, k_max: int, budget: int = DEFAULT_BUDGET
) -> SubsetCheckReport:
    """Check min_expansion(g, k) >= ceil(profile(k/n) * n) for k = 1..k_max.

    Subset sizes k realize the fractions alpha = k/n; the requirement is
    evaluated exactly when the profile is rational.  A budget hit produces a
    partial report flagged via ``complete=False``, or EnumerationBudgetError
    when it comes at the first size.
    """
    rows = ((k, math.ceil(profile.eval(Fraction(k, g.n)) * g.n)) for k in range(1, k_max + 1))
    return _sweep("expansion", g.masks, rows, budget)


def check_pair_profile(
    g: BipartiteGraph, gamma, alpha_max, budget: int = DEFAULT_BUDGET
) -> SubsetCheckReport:
    """Check min_pair_expansion(g, k) >= floor(gamma * k) for every
    k = floor(alpha * n) with alpha <= alpha_max, i.e. k = 1..floor(alpha_max*n)."""
    gamma = as_fraction(gamma)
    k_top = math.floor(as_fraction(alpha_max) * g.n)
    rows = ((k, math.floor(gamma * k)) for k in range(1, k_top + 1))
    return _sweep("pair", _pair_masks(g), rows, budget)


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
    if not lines or not lines[0].strip():
        raise ValueError("graph file has no header line")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"malformed header: {lines[0]!r}")
    n = int(head[0])
    if head[1] == "-":
        provenance = EXPLICIT
    else:
        provenance = (int(head[3]), int(head[1]), as_fraction(head[2]))
    rows = [[int(t) for t in ln.split()] for ln in lines[1 : n + 1]]
    if any(ln.strip() for ln in lines[n + 1 :]):
        raise ValueError(f"unexpected text after the {n} adjacency rows")
    g = BipartiteGraph(n, rows, provenance)
    if provenance != EXPLICIT and not _is_sampled(g):
        raise ValueError(
            f"rows differ from the graph sample_g draws for the header {lines[0].strip()!r}"
        )
    return g


def _is_sampled(g: BipartiteGraph) -> bool:
    """Whether sample_g, in plain or disjoint mode, draws g from its provenance."""
    seed, d, delta = g.provenance
    if _overlay(g.n, d, delta, seed, False, g.masks) == g.masks:
        return True
    try:
        return sample_g(g.n, d, delta, seed, disjoint=True).masks == g.masks
    except ValueError:  # no disjoint draw exists for this header
        return False


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
