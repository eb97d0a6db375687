import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from superconc.construction import (
    BuildConfig,
    BuildError,
    SuperDag,
    build_gamma,
    max_disjoint_paths,
    verify_superconcentrator,
)
from superconc.profiles import PiecewiseLinear
from superconc.randgraph import BipartiteGraph, EnumerationBudgetError, complete_bipartite, sample_g


def _cfg(base=20, seed=7, **kw):
    return BuildConfig(base_size=base, seed=seed, **kw)


def gamma8_complete(seed=0):
    return build_gamma(8, BuildConfig(base_size=4, expanders={8: complete_bipartite(8)}))


# --- brute-force oracle: maximum family of node-disjoint paths --------------


def _all_paths(dag, sources, targets):
    succ = dag.successors()
    targets = set(targets)
    paths = []

    def walk(v, seen, path):
        if v in targets:
            paths.append(tuple(path))
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                walk(w, seen, path)
                path.pop()
                seen.remove(w)

    for s in sources:
        walk(s, {s}, [s])
    return paths


def brute_max_disjoint_paths(dag, S, T):
    paths = _all_paths(dag, S, T)
    best = 0

    def extend(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(paths) - idx) <= best:
            return
        for i in range(idx, len(paths)):
            p = paths[i]
            if used.isdisjoint(p):
                extend(i + 1, used | set(p), count + 1)

    extend(0, frozenset(), 0)
    return best


def _random_dag(rng, n_nodes, n_inputs, n_outputs, p_edge):
    dag = SuperDag()
    for v in range(n_nodes):
        if v < n_inputs:
            dag.add_node("input", 0, ("I", v))
        elif v >= n_nodes - n_outputs:
            dag.add_node("output", 2, ("O", v))
        else:
            dag.add_node("internal", 1, ("V", v))
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if rng.random() < p_edge:
                dag.add_edge(u, v)
    return dag


# --- construction shape ------------------------------------------------------


def test_base_case_is_complete_bipartite():
    dag = build_gamma(6, BuildConfig(base_size=6))
    assert dag.edge_count() == 36
    assert dag.density() == 6.0
    assert len(dag.inputs) == len(dag.outputs) == 6


def test_edge_counts_forty_and_eighty():
    g40 = build_gamma(40, _cfg())
    assert [r["edges_added"] for r in g40.level_records] == [506, 400]
    assert g40.edge_count() == 906
    assert g40.density() == pytest.approx(22.65)
    g80 = build_gamma(80, _cfg())
    assert [r["edges_added"] for r in g80.level_records] == [1012, 506, 400]
    assert g80.edge_count() == 1918


def test_level_accounting_invariant():
    cfg = _cfg(seed=13)
    dag = build_gamma(80, cfg)
    for record in dag.level_records:
        if record["kind"] != "expander":
            continue
        n = record["n"]
        want = 2 * (cfg.d * n + math.floor(Fraction("0.325") * n)) + 2 * n
        assert record["edges_added"] == want
        assert record["lambda_x"]["edges"] == cfg.d * n + math.floor(Fraction("0.325") * n)
        assert record["cross_edges"] == 2 * n


def test_lambda_y_uses_independent_sample():
    dag = build_gamma(40, _cfg())
    record = dag.level_records[0]
    assert record["lambda_x"]["seed"] != record["lambda_y"]["seed"]


def test_build_validates_size():
    with pytest.raises(ValueError):
        build_gamma(48, _cfg(base=20))  # 48 -> 24 -> 12 != 20
    with pytest.raises(ValueError):
        build_gamma(10, _cfg(base=20))


def test_build_is_acyclic_with_topological_order():
    dag = build_gamma(40, _cfg())
    order = dag.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in dag.edges)


def test_cycle_detection():
    dag = SuperDag()
    a = dag.add_node("input", 0, ("A",))
    b = dag.add_node("output", 0, ("B",))
    dag.add_edge(a, b)
    dag.add_edge(b, a)
    with pytest.raises(ValueError):
        dag.topological_order()


def test_duplicate_edge_rejected():
    dag = SuperDag()
    a = dag.add_node("input", 0, ("A",))
    b = dag.add_node("output", 0, ("B",))
    dag.add_edge(a, b)
    with pytest.raises(ValueError):
        dag.add_edge(a, b)


def test_retry_exhaustion_reports_witness():
    demanding = PiecewiseLinear(((Fraction(0), Fraction(99, 100)), (Fraction(1), Fraction(1))))
    cfg = BuildConfig(base_size=4, d=2, delta=0, seed=0, retry_limit=3, profile=demanding)
    with pytest.raises(BuildError) as err:
        build_gamma(8, cfg)
    assert err.value.last_failure is not None


def test_explicit_expanders_must_cover_every_size():
    cfg = BuildConfig(base_size=4, expanders={8: complete_bipartite(8)})
    with pytest.raises(BuildError):
        build_gamma(16, cfg)  # no size-16 expander supplied


# --- flows -------------------------------------------------------------------


def test_flow_on_base_block_equals_subset_size():
    dag = build_gamma(5, BuildConfig(base_size=5))
    for k in (1, 3, 5):
        assert max_disjoint_paths(dag, dag.inputs[:k], dag.outputs[-k:]) == k


def test_flow_detects_unreachable_input():
    dag = build_gamma(4, BuildConfig(base_size=4))
    starved = dag.without_edges((dag.inputs[0], v) for v in dag.outputs)
    got = max_disjoint_paths(starved, starved.inputs[:2], starved.outputs[:2])
    assert got < 2


def test_flow_gamma8_over_complete_expander():
    dag = gamma8_complete()
    rng = random.Random(5)
    for _ in range(10):
        S = rng.sample(dag.inputs, 3)
        T = rng.sample(dag.outputs, 3)
        assert max_disjoint_paths(dag, S, T) == 3


def test_flow_validation_errors():
    dag = build_gamma(4, BuildConfig(base_size=4))
    with pytest.raises(ValueError):
        max_disjoint_paths(dag, dag.inputs[:2], dag.outputs[:1])
    with pytest.raises(ValueError):
        max_disjoint_paths(dag, [dag.outputs[0]], [dag.outputs[1]])
    with pytest.raises(ValueError):
        max_disjoint_paths(dag, dag.inputs[:1] * 2, dag.outputs[:2])


def test_flow_matches_bruteforce_on_small_dags():
    rng = random.Random(2024)
    for trial in range(12):
        dag = _random_dag(rng, rng.randint(7, 11), 3, 3, 0.3)
        k = rng.randint(1, 3)
        S = rng.sample(dag.inputs, k)
        T = rng.sample(dag.outputs, k)
        assert max_disjoint_paths(dag, S, T) == brute_max_disjoint_paths(dag, S, T)


def test_adding_edges_never_decreases_flow():
    rng = random.Random(77)
    for _ in range(8):
        dag = _random_dag(rng, 10, 3, 3, 0.35)
        if not dag.edges:
            continue
        S, T = dag.inputs[:2], dag.outputs[:2]
        full = max_disjoint_paths(dag, S, T)
        dropped = dag.without_edges([rng.choice(dag.edges)])
        assert max_disjoint_paths(dropped, S, T) <= full


# --- verification ------------------------------------------------------------


def test_exhaustive_verify_complete_base_six():
    dag = build_gamma(6, BuildConfig(base_size=6))
    report = verify_superconcentrator(dag, mode="exhaustive")
    assert report.passed
    assert report.pairs_checked == math.comb(12, 6) - 1 == 923


def test_exhaustive_verify_budget_refusal():
    dag = build_gamma(40, _cfg())
    with pytest.raises(EnumerationBudgetError) as err:
        verify_superconcentrator(dag, mode="exhaustive", budget=10_000)
    assert "sampled" in str(err.value)


def test_sampled_verify_gamma40():
    dag = build_gamma(40, _cfg())
    report = verify_superconcentrator(dag, mode="sampled", trials=40, seed=11)
    assert report.passed and report.pairs_checked == 40


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_verify_rejects_a_vacuous_trial_count(trials):
    # no pair checked would otherwise report a pass
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_superconcentrator(gamma8_complete(), mode="sampled", trials=trials)


def test_sampled_verify_is_deterministic():
    dag = gamma8_complete()
    a = verify_superconcentrator(dag, mode="sampled", trials=30, seed=5)
    b = verify_superconcentrator(dag, mode="sampled", trials=30, seed=5)
    assert a == b


def test_mutated_graph_fails_with_small_witness():
    dag = gamma8_complete()
    broken = dag.without_edges((dag.inputs[0], v) for v in range(dag.num_nodes))
    report = verify_superconcentrator(broken, mode="exhaustive")
    assert not report.passed
    k, S, T, got = report.counterexample
    assert k == 1
    assert S == (dag.inputs[0],)
    assert got == 0


def test_unknown_mode_rejected():
    dag = build_gamma(4, BuildConfig(base_size=4))
    with pytest.raises(ValueError):
        verify_superconcentrator(dag, mode="bogus")


# --- serialization and manifest ----------------------------------------------


def test_json_round_trip():
    dag = build_gamma(40, _cfg())
    back = SuperDag.from_json(dag.to_json())
    assert back.edges == dag.edges
    assert back.inputs == dag.inputs
    assert back.outputs == dag.outputs
    assert back.roles == dag.roles
    assert back.to_json() == dag.to_json()


def test_manifest_contents():
    dag = build_gamma(40, _cfg())
    m = dag.manifest()
    assert m["inputs"] == 40 and m["edge_count"] == 906
    assert m["levels"][0]["lambda_x"]["source"] == "random-disjoint"
    assert m["levels"][0]["lambda_x"]["checks"]["expansion"]["passed"] is True
    json.dumps(m)  # must be serializable as-is


def test_dot_export_mentions_every_node():
    dag = build_gamma(4, BuildConfig(base_size=4))
    dot = dag.to_dot()
    assert dot.count("->") == dag.edge_count()
    assert "rank=same" in dot


# --- determinism and cost of the build ---------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_build_and_sample_are_byte_identical():
    # pins the seeded RNG stream: any change to permutation drawing or
    # assembly order that alters a sampled graph or the JSON shows here
    dag = build_gamma(160, BuildConfig(seed=0))
    assert _sha256(dag.to_json()) == "2a34033f9ed43c7b385c0dd8b10961ca905b7c3054f624b6d3fadfeb696556fe"
    g = sample_g(400, 5, Fraction(13, 40), 7, disjoint=True)
    assert _sha256(repr(g.masks)) == "0189df676ed88e73924369a4428c16de158ae0be30cf9f0c9618e8d17249bffa"


def test_build_decodes_each_expander_once(monkeypatch):
    decoded = []
    fget = BipartiteGraph.adjacency.fget

    def counting(self):
        decoded.append(self)
        return fget(self)

    monkeypatch.setattr(BipartiteGraph, "adjacency", property(counting))
    dag = build_gamma(640, BuildConfig(seed=0))
    levels = sum(1 for r in dag.level_records if r["kind"] == "expander")
    assert levels == 5
    assert len(decoded) <= 2 * levels
    assert len({id(g) for g in decoded}) == len(decoded)


def test_build_leaves_caller_config_unchanged():
    cfg = _cfg(delta=0.325)
    dag = build_gamma(40, cfg)
    assert type(cfg.delta) is float and cfg.delta == 0.325
    assert dag.to_json() == build_gamma(40, _cfg(delta=Fraction(13, 40))).to_json()
