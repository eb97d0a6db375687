import hashlib
import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from superconc import construction
from superconc.construction import (
    BuildConfig,
    BuildError,
    SuperDag,
    VerifyReport,
    build_gamma,
    max_disjoint_paths,
    verify_superconcentrator,
)
from superconc.randgraph import (
    BipartiteGraph,
    EnumerationBudgetError,
    complete_bipartite,
    derive_seed,
    neighborhood,
    sample_g,
)


def _cfg(base=20, seed=7, **kw):
    return BuildConfig(base_size=base, seed=seed, **kw)


def gamma8_complete(seed=0):
    return build_gamma(8, BuildConfig(base_size=4, expanders={8: complete_bipartite(8)}))


def _starved_gamma8(pair=(0, 1)):
    """Γ(8) whose two inputs at the given positions keep one shared successor."""
    dag = gamma8_complete()
    starved = [dag.inputs[i] for i in pair]
    first = dag.successors()[starved[0]][0]
    return dag.without_edges((u, v) for u, v in dag.edges if u in starved and v != first)


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


def _node_split_max_flow(dag, S, T):
    """Independent reference: unit-capacity max flow on the node-split graph.

    Vertex v becomes entry 2 + 2v and exit 3 + 2v joined by an arc; dag edges
    join exits to entries, node 0 feeds the entries of S and the exits of T
    drain into node 1.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    nv = dag.num_nodes
    arcs = [(2 + 2 * v, 3 + 2 * v) for v in range(nv)]
    arcs += [(3 + 2 * u, 2 + 2 * v) for u, v in dag.edges]
    arcs += [(0, 2 + 2 * s) for s in S] + [(3 + 2 * t, 1) for t in T]
    rows, cols = np.asarray(arcs, dtype=np.int32).T
    graph = csr_matrix((np.ones(len(arcs), dtype=np.int32), (rows, cols)), shape=(2 * nv + 2,) * 2)
    return int(maximum_flow(graph, 0, 1).flow_value)


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


def test_build_refuses_a_retry_limit_below_one():
    # no attempt at all could find an expander, so the build is refused up
    # front instead of failing as if every draw had been rejected
    with pytest.raises(ValueError, match="retry_limit must be >= 1, got 0"):
        build_gamma(40, _cfg(retry_limit=0))


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
    cfg = BuildConfig(base_size=4, d=2, delta=0, seed=0, retry_limit=3)
    with pytest.raises(BuildError) as err:
        build_gamma(8, cfg)
    fail = err.value.last_failure
    assert fail is not None and fail.achieved < fail.required
    # the witness is real: the x side's last draw gives it that few neighbors
    g = sample_g(8, 2, 0, derive_seed("level", 0, 0, "x", 2), disjoint=True)
    assert len(neighborhood(g, fail.witness)) == fail.achieved


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


def test_path_counts_match_node_split_max_flow_on_random_dags():
    # inputs here can have in-edges and outputs out-edges, which Gamma never
    # has: the counter must drop the edges into S and out of T to stay exact
    rng = random.Random(4242)
    short = 0
    for _ in range(600):
        n_nodes = rng.randint(4, 30)
        n_inputs = rng.randint(1, n_nodes // 2)
        n_outputs = rng.randint(1, min(n_inputs + 2, n_nodes - n_inputs))
        dag = _random_dag(rng, n_nodes, n_inputs, n_outputs, rng.uniform(0.05, 0.5))
        k = rng.randint(1, min(n_inputs, n_outputs))
        S = rng.sample(dag.inputs, k)
        T = rng.sample(dag.outputs, k)
        want = _node_split_max_flow(dag, S, T)
        assert max_disjoint_paths(dag, S, T) == want, (dag.edges, S, T)
        short += want < k
    assert short >= 100  # many queries fall short of k, so counts below k are compared too


def test_path_through_a_second_input_counts_once():
    # s1 -> s2 -> t1: both inputs reach t1, but through one shared vertex
    dag = SuperDag()
    s1, s2 = (dag.add_node("input", 0, ("S", i)) for i in (1, 2))
    t1, t2 = (dag.add_node("output", 1, ("T", i)) for i in (1, 2))
    dag.add_edge(s1, s2)
    dag.add_edge(s2, t1)
    assert max_disjoint_paths(dag, [s1, s2], [t1, t2]) == 1 == _node_split_max_flow(dag, [s1, s2], [t1, t2])
    dag.add_edge(t1, t2)
    assert max_disjoint_paths(dag, [s1, s2], [t1, t2]) == 1
    assert max_disjoint_paths(dag, [s1], [t2]) == 1 == _node_split_max_flow(dag, [s1], [t2])


def test_path_counts_match_node_split_max_flow_on_faulty_gamma80():
    dag = build_gamma(80, BuildConfig(seed=0))
    rng = random.Random(80)
    short = 0
    for drop in (0, 16, 64, 256):
        faulty = dag.without_edges(rng.sample(dag.edges, drop))
        for _ in range(15):
            k = rng.randint(1, 80)
            S = rng.sample(faulty.inputs, k)
            T = rng.sample(faulty.outputs, k)
            want = _node_split_max_flow(faulty, S, T)
            assert max_disjoint_paths(faulty, S, T) == want
            short += want < k
    assert short > 0


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


def test_sampled_verify_draws_k_and_subsets_uniformly(monkeypatch):
    # k uniform on 1..4, then (S, T) uniform over the C(4, k)^2 pairs of
    # input and output k-subsets, each count within 5 sigma
    dag = build_gamma(4, BuildConfig(base_size=4))
    seen = []

    def record(self, S, T):
        seen.append((tuple(sorted(S.tolist())), tuple(sorted(T.tolist()))))
        return len(S)

    monkeypatch.setattr(construction._PathCounter, "query", record)
    # forked workers would record into their own copies of `seen`
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    trials = 20_000
    assert verify_superconcentrator(dag, mode="sampled", trials=trials, seed=3).passed
    by_k = Counter(len(S) for S, _ in seen)

    def within_5_sigma(count, draws, p):
        return abs(count - draws * p) <= 5 * math.sqrt(draws * p * (1 - p))

    assert sorted(by_k) == [1, 2, 3, 4]
    assert all(within_5_sigma(by_k[k], trials, 1 / 4) for k in by_k)
    pairs = Counter(seen)
    for k, draws in by_k.items():
        cells = [
            (S, T)
            for S in itertools.combinations(dag.inputs, k)
            for T in itertools.combinations(dag.outputs, k)
        ]
        assert sum(pairs[c] for c in cells) == draws
        assert all(within_5_sigma(pairs[c], draws, 1 / len(cells)) for c in cells)


def test_mutated_graph_fails_with_small_witness():
    dag = gamma8_complete()
    broken = dag.without_edges((dag.inputs[0], v) for v in range(dag.num_nodes))
    report = verify_superconcentrator(broken, mode="exhaustive")
    assert not report.passed
    k, S, T, got = report.counterexample
    assert k == 1
    assert S == (dag.inputs[0],)
    assert got == 0


def test_faulty_graph_reports_are_pinned():
    # the exhaustive report is pinned to a node-split max-flow verifier; the
    # sampled reports are pinned to the seeded streams, and their
    # counterexamples re-checked against the node-split reference
    starved = _starved_gamma8()
    assert verify_superconcentrator(starved, mode="exhaustive") == VerifyReport(
        False, "exhaustive", 65, (2, (0, 1), (8, 9), 1)
    )
    report = verify_superconcentrator(starved, mode="sampled", trials=50, seed=4)
    assert report == VerifyReport(False, "sampled", 1, (8, tuple(range(8)), tuple(range(8, 16)), 7))
    assert _node_split_max_flow(starved, *report.counterexample[1:3]) == 7
    big = build_gamma(80, BuildConfig(seed=0))
    faulty = big.without_edges(random.Random(1).sample(big.edges, 64))
    report = verify_superconcentrator(faulty, mode="sampled", trials=200, seed=1)
    k, S, T, achieved = report.counterexample
    assert (report.passed, report.pairs_checked, k, len(S), len(T), achieved) == (False, 9, 79, 79, 79, 76)
    assert S == tuple(sorted(S)) and T == tuple(sorted(T))
    assert _node_split_max_flow(faulty, S, T) == achieved
    text = json.dumps(report.as_dict(), sort_keys=True)
    assert _sha256(text) == "24e1f0f7ab35c42ac12fab0e26cbf49ea6fed71c3edd8e706bc384984ca60398"


def test_unknown_mode_rejected():
    dag = build_gamma(4, BuildConfig(base_size=4))
    with pytest.raises(ValueError):
        verify_superconcentrator(dag, mode="bogus")


# --- forked evaluation -------------------------------------------------------


@pytest.fixture
def pools(monkeypatch):
    """The process pools verification starts, by their worker counts."""
    from concurrent import futures

    started = []

    class Counted(futures.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            started.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Counted)
    return started


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _late_failure_gamma80():
    # its first sampled shortfall comes after the first window of chunks
    dag = build_gamma(80, BuildConfig(seed=80))
    return dag.without_edges(random.Random(100).sample(dag.edges, 64))


FORK_CASES = {
    "exhaustive-starved": (_starved_gamma8, dict(mode="exhaustive")),
    "exhaustive-late-failure": (lambda: _starved_gamma8((6, 7)), dict(mode="exhaustive")),
    "sampled-starved": (_starved_gamma8, dict(mode="sampled", trials=50, seed=4)),
    "sampled-late-failure": (_late_failure_gamma80, dict(mode="sampled", trials=200, seed=0)),
    **{
        f"sampled-gamma40-seed{seed}": (
            lambda: build_gamma(40, _cfg()),
            dict(mode="sampled", trials=60, seed=seed),
        )
        for seed in range(4)
    },
}


@pytest.mark.parametrize("case", FORK_CASES)
def test_forked_and_in_process_reports_agree(monkeypatch, pools, case):
    make, kwargs = FORK_CASES[case]
    dag = make()
    _cpus(monkeypatch, 2)
    forked = verify_superconcentrator(dag, **kwargs)
    _cpus(monkeypatch, 1)
    in_process = verify_superconcentrator(dag, **kwargs)
    assert forked == in_process
    assert pools == [2]
    # the late failures come after the first window of 16-query chunks;
    # pinned to the serial scan and checked by node-split max flow
    if case == "exhaustive-late-failure":
        assert forked == VerifyReport(False, "exhaustive", 821, (2, (6, 7), (8, 9), 1))
    if case == "sampled-late-failure":
        k, S, T, achieved = forked.counterexample
        assert (forked.passed, forked.pairs_checked, k, achieved) == (False, 126, 80, 79)
    if not forked.passed:
        assert _node_split_max_flow(dag, *forked.counterexample[1:3]) == forked.counterexample[3]


def test_one_chunk_runs_in_process(monkeypatch, pools):
    _cpus(monkeypatch, 2)
    dag = build_gamma(40, _cfg())
    report = verify_superconcentrator(dag, mode="sampled", trials=16)
    assert report == VerifyReport(True, "sampled", 16, None)
    assert pools == []
    assert verify_superconcentrator(dag, mode="sampled", trials=17).pairs_checked == 17
    assert pools == [2]


def test_verification_reaps_its_workers(monkeypatch, pools):
    import multiprocessing

    _cpus(monkeypatch, 2)
    dag = gamma8_complete()
    assert verify_superconcentrator(dag, mode="sampled", trials=100).passed
    assert multiprocessing.active_children() == []
    assert not verify_superconcentrator(_starved_gamma8(), mode="exhaustive").passed
    assert multiprocessing.active_children() == []

    def fail(self, S, T):
        raise RuntimeError("query failed")

    monkeypatch.setattr(construction._PathCounter, "query", fail)
    with pytest.raises(RuntimeError, match="query failed"):
        verify_superconcentrator(dag, mode="sampled", trials=100)
    assert multiprocessing.active_children() == []
    assert pools == [2, 2, 2]


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
def test_verification_forks_a_single_threaded_process(monkeypatch, pools):
    # Python 3.12 and later warn (DeprecationWarning) when a process forks
    # while /proc/self/stat counts more than one thread; this test makes the
    # same count on any version at every fork verification makes
    real_fork = os.fork
    threads = []

    def fork():
        pid = real_fork()
        if pid:
            with open("/proc/self/stat") as fh:
                threads.append(int(fh.read().rsplit(")", 1)[1].split()[17]))
        return pid

    monkeypatch.setattr(os, "fork", fork)
    _cpus(monkeypatch, 2)
    dag = build_gamma(40, _cfg())
    for seed in range(2):
        assert verify_superconcentrator(dag, mode="sampled", trials=60, seed=seed).passed
    assert pools == [2, 2]
    assert threads == [1, 1, 1, 1]


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
    assert _sha256(dag.to_json()) == "936dfd76f073bf8e9b450af8e428c3b843ee77f3e55cf17a8c333e923dc1519d"
    g = sample_g(400, 5, Fraction(13, 40), 7, disjoint=True)
    assert _sha256(repr(g.masks)) == "3877e4b423b42997e3033634a978fdcdbc64fb11660c91d49963d6f8178fc192"


def test_golden_build_640_records_budget_truncation():
    # C(640, 2) = 204480 exceeds the 200 000 check budget, so each check at
    # level 0 covers k = 1 only and says so instead of claiming completeness
    dag = build_gamma(640, BuildConfig(seed=0))
    assert _sha256(dag.to_json()) == "b41d50d469ce748bc5b2a1ff6692b0cd10059ca6a3a48d41bdbef28b26314e2a"
    level0 = dag.level_records[0]
    assert level0["n"] == 640
    for side in ("lambda_x", "lambda_y"):
        for check in level0[side]["checks"].values():
            assert check["checked_sizes"] == [1]
            assert check["complete"] is False and check["truncated_at"] == 2
            assert check["passed"] is True


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


def test_verify_report_keeps_its_repr_fields_and_immutability():
    # the repr is the one the frozen dataclass printed
    report = VerifyReport(passed=False, mode="sampled", pairs_checked=7,
                          counterexample=(2, (0, 1), (5, 6), 1))
    assert repr(report) == (
        "VerifyReport(passed=False, mode='sampled', pairs_checked=7, "
        "counterexample=(2, (0, 1), (5, 6), 1))"
    )
    assert report == VerifyReport(False, "sampled", 7, (2, (0, 1), (5, 6), 1))
    assert report.as_dict()["counterexample"] == {"k": 2, "S": [0, 1], "T": [5, 6], "achieved": 1}
    with pytest.raises(AttributeError):
        report.passed = True
