import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc import randgraph
from superconc.profiles import alon_capalbo_profile, density253_constants, expansion_profile
from superconc.randgraph import (
    BipartiteGraph,
    _descend,
    EnumerationBudgetError,
    check_expander_profile,
    check_pair_profile,
    complete_bipartite,
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

PROFILE = expansion_profile(density253_constants())


def test_single_permutation_is_perfect_matching():
    g = sample_g(8, 1, 0, 42)
    assert all(g.degree(i) == 1 for i in range(1, 9))
    hit = set()
    for (j,) in g.adjacency:
        hit.add(j)
    assert hit == set(range(1, 9))


def test_pinned_edges_respect_degree_caps():
    g = sample_g(8, 2, 0.5, 3)
    for i in range(1, 5):
        assert g.degree(i) <= 3
    for i in range(5, 9):
        assert g.degree(i) <= 2
    assert g.edge_count() <= 2 * 8 + 4


def test_seeded_sample_golden_adjacency():
    g = sample_g(6, 2, 0, 5)
    assert g.adjacency == ((1, 6), (3, 6), (1, 3), (4,), (2, 5), (2, 5))


def test_determinism_byte_identical_serialization():
    a = graph_to_text(sample_g(14, 3, 0.25, 99))
    b = graph_to_text(sample_g(14, 3, 0.25, 99))
    assert a == b
    c = graph_to_text(sample_g(14, 3, 0.25, 100))
    assert c != a


def test_degree_bounds_independent_mode():
    g = sample_g(30, 4, 0.3, 17)
    pinned = 9
    for i in range(1, 31):
        assert 1 <= g.degree(i) <= 5
    assert g.edge_count() <= 4 * 30 + pinned


def test_disjoint_mode_exact_degrees_and_edges():
    for n, d, delta, seed in [(40, 5, "0.325", 7), (16, 3, "0.5", 1), (20, 6, 0, 2)]:
        g = sample_g(n, d, delta, seed, disjoint=True)
        pinned = math.floor(Fraction(str(delta)) * n)
        assert g.edge_count() == d * n + pinned
        for i in range(1, n + 1):
            want = d + 1 if i <= pinned else d
            assert g.degree(i) == want


def test_disjoint_mode_feasibility_boundary(monkeypatch):
    # d disjoint permutations avoiding the pinned diagonal exist exactly when
    # d <= n, or d <= n - 1 once an edge is pinned
    assert sample_g(5, 5, 0, 3, disjoint=True).edge_count() == 25
    assert sample_g(4, 3, "0.25", 3, disjoint=True).edge_count() == 13
    with pytest.raises(ValueError, match="needs d <= 3"):
        sample_g(4, 4, "0.25", 3, disjoint=True)
    with pytest.raises(ValueError, match="needs d <= 5"):
        sample_g(5, 6, 0, 3, disjoint=True)
    # a feasible request whose redraws run out is refused the same way
    monkeypatch.setattr(randgraph, "_MAX_RESAMPLE", 3)
    with pytest.raises(ValueError, match="in 3 tries"):
        sample_g(20, 19, 0, 1, disjoint=True)


def test_neighborhood_basics():
    g = complete_bipartite(6)
    assert neighborhood(g, []) == set()
    assert neighborhood(g, [3]) == set(range(1, 7))
    m = sample_g(9, 1, 0, 0)
    assert len(neighborhood(m, [1, 4, 7])) == 3


def test_neighborhood_rejects_bad_vertices():
    g = complete_bipartite(4)
    with pytest.raises(ValueError):
        neighborhood(g, [0])
    with pytest.raises(ValueError):
        neighborhood(g, [5])


@settings(max_examples=100)
@given(st.data())
def test_neighborhood_union_property(data):
    g = sample_g(12, 2, 0.25, 7)
    verts = st.lists(st.integers(min_value=1, max_value=12), max_size=6)
    s1 = data.draw(verts)
    s2 = data.draw(verts)
    assert neighborhood(g, set(s1) | set(s2)) == neighborhood(g, s1) | neighborhood(g, s2)


def test_pair_count_examples():
    g = complete_bipartite(8)
    assert pair_count(g, [2]) == 4
    assert pair_count(g, []) == 0
    with pytest.raises(ValueError):
        pair_count(complete_bipartite(5), [1])


def test_pair_count_matching_bounds():
    for seed in range(5):
        m = sample_g(10, 1, 0, seed)
        for k in (1, 2, 3, 4):
            for U in itertools.combinations(range(1, 11), k):
                c = pair_count(m, U)
                assert math.ceil(k / 2) <= c <= k


def test_min_expansion_trivial_graphs():
    g = complete_bipartite(7)
    assert min_expansion(g, 3) == (7, (1, 2, 3))
    m = sample_g(9, 1, 0, 4)
    for k in (1, 3, 5):
        value, witness = min_expansion(m, k)
        assert value == k
        assert witness == tuple(range(1, k + 1))


def test_min_expansion_matches_plain_enumeration():
    # oracle: direct scan over itertools.combinations via the public neighborhood()
    g = sample_g(10, 2, 0.3, 11)
    k = 3
    want = min(
        (len(neighborhood(g, S)), S) for S in itertools.combinations(range(1, 11), k)
    )
    assert min_expansion(g, k) == want


def test_min_expansion_budget_refusal():
    g = sample_g(30, 2, 0, 1)
    with pytest.raises(EnumerationBudgetError) as err:
        min_expansion(g, 15, budget=1000)
    assert "sampled" in str(err.value)


def test_min_expansion_nondecreasing_in_k():
    g = sample_g(12, 2, 0, 1)
    values = [min_expansion(g, k)[0] for k in range(1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_min_pair_expansion_examples():
    assert min_pair_expansion(complete_bipartite(8), 2)[0] == 4
    assert min_pair_expansion(complete_bipartite(8), 0) == (0, ())
    assert min_pair_expansion(sample_g(12, 2, 0, 1), 4)[0] == 3


def test_check_expander_profile_complete_graph_passes():
    rep = check_expander_profile(complete_bipartite(10), PROFILE, 10)
    assert rep.passed and rep.complete and rep.first_failure is None


def test_check_expander_profile_matching_fails_quarter():
    rep = check_expander_profile(sample_g(16, 1, 0, 3), alon_capalbo_profile(), 4)
    assert not rep.passed
    fail = rep.first_failure
    assert fail is not None
    # a matching expands k -> k, short of ceil(e(k/n)*n) already below k = n/4
    assert fail.achieved == fail.k
    assert fail.required > fail.k
    assert fail.witness != ()


def test_check_expander_profile_sampled_graph_regression():
    g = sample_g(20, 5, "0.325", 3)
    rep = check_expander_profile(g, PROFILE, 7)
    assert rep.passed and rep.complete
    assert [e.achieved for e in rep.entries] == [4, 6, 8, 10, 11, 12, 13]


def test_check_expander_profile_budget_partial_report():
    g = sample_g(24, 4, 0, 5, disjoint=True)
    rep = check_expander_profile(g, PROFILE, 12, budget=2000)
    assert not rep.complete
    assert rep.truncated_at == 3  # C(24,3) = 2024 > 2000
    assert [e.k for e in rep.entries] == [1, 2]  # sizes below the budget were checked
    assert rep.passed  # and they passed


def test_check_pair_profile_complete_passes():
    rep = check_pair_profile(complete_bipartite(12), 1, "0.3322", budget=100_000)
    assert rep.passed


def test_check_pair_profile_detects_collapsed_pairs():
    # every left vertex sees only r1, so any 2-subset touches a single pair
    g = BipartiteGraph(8, [[1]] * 8)
    rep = check_pair_profile(g, 1, Fraction(1, 4))
    assert not rep.passed
    fail = rep.first_failure
    assert fail.k == 2 and fail.achieved == 1 and fail.witness == (1, 2)


def test_sampled_min_expansion_trivial_cases():
    assert sampled_min_expansion(complete_bipartite(9), 4, 5, 0)[0] == 9
    assert sampled_min_expansion(sample_g(10, 1, 0, 2), 3, 5, 0)[0] == 3


def test_sampled_min_expansion_never_below_exact():
    g = sample_g(16, 3, 0.25, 8)
    for k in (3, 4, 5):
        exact, _ = min_expansion(g, k)
        heur, _ = sampled_min_expansion(g, k, 40, 123)
        assert heur >= exact


def test_sampled_min_expansion_is_deterministic():
    g = sample_g(16, 3, 0.25, 8)
    assert sampled_min_expansion(g, 4, 25, 7) == sampled_min_expansion(g, 4, 25, 7)


def test_sampled_min_expansion_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sampled_min_expansion(sample_g(10, 2, 0, 1), 3, 0, 0)


@pytest.mark.parametrize(
    "k, value, witness_sha256",
    [
        (147, 340, "41ffd4be87d654129b52d8ae61a4df88fc856c6b9e46085d46b7673d9fb5d8e4"),
        (212, 442, "7ecef3a67ad7a7ce2514ef74e62b5016b37ae46bcdb9c787b31719f4e4b4195a"),
    ],
)
def test_sampled_min_expansion_golden(k, value, witness_sha256):
    g = sample_g(640, 5, Fraction(13, 40), 7, disjoint=True)
    got, witness = sampled_min_expansion(g, k, 3, 11)
    assert got == value
    assert hashlib.sha256(repr(witness).encode()).hexdigest() == witness_sha256


def _descend_reference(g, S):
    """Quadratic descent step: for each member, OR the masks of all others."""
    members = list(S)
    while True:
        masks = [g.masks[v - 1] for v in members]
        total = 0
        for m in masks:
            total |= m
        total = total.bit_count()
        best_gain, victim_idx = -1, 0
        for idx in range(len(members)):
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
        best_add, candidate = math.inf, None
        for u in range(1, g.n + 1):
            if u in members:
                continue
            add = (g.masks[u - 1] & ~base).bit_count()
            if add < best_add:
                best_add, candidate = add, u
        if candidate is None or base.bit_count() + best_add >= total:
            return sorted(members), total
        members[victim_idx] = candidate


@st.composite
def _graph_and_start(draw):
    n = draw(st.integers(1, 40))
    rows = draw(
        st.lists(st.lists(st.integers(1, n), max_size=4), min_size=n, max_size=n)
    )
    k = draw(st.integers(1, n))
    start = draw(st.permutations(range(1, n + 1)))[:k]
    return BipartiteGraph(n, rows), start


@settings(max_examples=200, deadline=None)
@given(_graph_and_start())
def test_descend_matches_quadratic_reference(case):
    g, start = case
    assert _descend(g, start) == _descend_reference(g, start)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12).map(lambda h: 2 * (h // 2)), st.integers(1, 3), st.integers(0, 99), st.data())
def test_min_pair_expansion_matches_brute_force(n, d, seed, data):
    g = sample_g(n, d, 0, seed)
    k = data.draw(st.integers(1, n))
    # min keeps the first minimiser, and combinations come in lexicographic order
    witness = min(itertools.combinations(range(1, n + 1), k), key=lambda S: pair_count(g, S))
    assert min_pair_expansion(g, k) == (pair_count(g, witness), witness)


def test_text_round_trip_sampled_and_explicit():
    g = sample_g(10, 3, "0.3", 21)
    back = graph_from_text(graph_to_text(g))
    assert back == g
    e = complete_bipartite(4)
    assert graph_from_text(graph_to_text(e)) == e


def test_text_format_layout():
    g = sample_g(6, 2, 0, 5)
    lines = graph_to_text(g).splitlines()
    assert lines[0] == "6 2 0 5"
    assert lines[1] == "1 6"
    assert len(lines) == 7


def test_dot_export_contains_edges():
    dot = graph_to_dot(sample_g(4, 1, 0, 9))
    assert dot.startswith("digraph")
    assert dot.count("->") == 4


def test_adjacency_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        BipartiteGraph(3, [[1], [4], [2]])
    with pytest.raises(ValueError):
        BipartiteGraph(3, [[1], [2]])


def test_text_rejects_trailing_text_and_false_provenance():
    g = sample_g(10, 3, "0.3", 21, disjoint=True)
    text = graph_to_text(g)
    assert graph_from_text(text) == g
    assert graph_from_text(text + "\n\n") == g
    with pytest.raises(ValueError, match="unexpected text"):
        graph_from_text(text + "1 2\n")
    header, rows = text.split("\n", 1)
    assert header == "10 3 3/10 21"
    with pytest.raises(ValueError, match="rows differ"):
        graph_from_text("10 3 3/10 22\n" + rows)
