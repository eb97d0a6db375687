import hashlib
import json
import math

import pytest

from superconc import cli
from superconc.cli import main
from superconc.randgraph import complete_bipartite, graph_from_text, graph_to_text


def test_exact_plr_prints_reduced_fraction(capsys):
    assert main(["exact-plr", "--n", "6", "--ell", "2", "--r", "3", "--d", "2"]) == 0
    assert capsys.readouterr().out.strip() == "3/5"


def test_check_conditions_passes_with_defaults(capsys):
    assert main(["check-conditions"]) == 0
    out = capsys.readouterr().out
    assert "check-conditions PASS" in out
    assert "pair-degree" in out


def test_check_conditions_fails_for_low_degree(capsys):
    assert main(["check-conditions", "--d", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-conditions", "--c1", "0.3", "--c3", "0.3"],
        ["check-conditions", "--c1", "0.2", "--c3", "0.4"],  # c5 = 1 - c1 - c3 = c3
    ],
)
def test_check_conditions_rejects_anchors_that_do_not_increase(argv, capsys):
    # the profile slopes are undefined there: a usage error, not a failed check
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "need c1 < c3 < c5" in captured.err and "PASS" not in captured.out


def test_certify_pair_report_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(
        ["certify-pair", "--grid", "60", "--margin", "0.0001", "--output", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["config"]["grid"] == 60
    assert payload["lemma"] == "pair-expansion"
    # absurd margin must flip the exit code
    assert main(["certify-pair", "--grid", "60", "--margin", "0.5"]) == 1


def test_certify_pair_output_is_byte_identical(tmp_path, monkeypatch):
    # identical argv (a relative output path) must give identical bytes
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    argv = ["certify-pair", "--grid", "50", "--output", "cert.json"]
    monkeypatch.chdir(a)
    assert main(argv) == 0
    monkeypatch.chdir(b)
    assert main(argv) == 0
    assert (a / "cert.json").read_bytes() == (b / "cert.json").read_bytes()


def test_certify_expansion_runs(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["certify-expansion", "--grid", "50", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["cells_checked"] == 4 * 50 * 50


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["certify-pair", "--bogus"])
    assert err.value.code == 2


def test_bad_configuration_exits_two(capsys):
    assert main(["certify-pair", "--delta", "0.6"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify-pair", "--p", "nan"],
        ["certify-pair", "--p", "inf"],
        ["certify-pair", "--p", "-0.1"],
        ["certify-pair", "--p", "1.5"],
        ["certify-pair", "--margin", "nan"],
        ["certify-pair", "--margin", "inf"],
        ["certify-expansion", "--boost", "nan"],
        ["certify-expansion", "--boost", "-0.5"],
        ["certify-expansion", "--boost", "1.5"],
        ["certify-expansion", "--margin=-inf"],
        ["certify-expansion", "--x-max", "inf"],
    ],
)
def test_certify_rejects_bad_parameters(argv, capsys):
    assert main(argv + ["--grid", "10"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, interval",
    [
        (["certify-expansion", "--x-min", "0.25"], "[0.25, 0.2301]"),
        (["certify-pair", "--x-min", "0.34"], "[0.34, 0.3322]"),
    ],
)
def test_certify_reversed_x_interval_names_the_order(argv, interval, capsys):
    # lo > hi inside (0, 1) breaks the order, not the range
    assert main(argv + ["--grid", "10"]) == 2
    assert f"x interval {interval} must satisfy 0 < lo < hi < 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, files",
    [
        (["check-conditions", "--delta", "1/0"], {}),
        (["check-conditions", "--gamma", "1/0"], {}),
        (["sample-expander", "--n", "20", "--delta", "1/0"], {}),
        (["prob-bound", "--kind", "pair", "--n", "8", "--k", "2", "--m", "2", "--delta", "1/0"], {}),
        (["certify-expansion", "--d", "1/0"], {}),
        (["certify-expansion", "--delta", "inf", "--grid", "10"], {}),
        (["check-expansion", "--pairs", "--alpha-max", "1/0"], {}),
        (["check-expansion", "--pairs", "--gamma", "1/0"], {}),
        (["check-expansion", "--graph", "g.txt"], {"g.txt": "20 5 1/0 3\n"}),
        (["check-expansion", "--profile", "p.txt"], {"p.txt": "0 0\n1/0 1\n1 1\n"}),
    ],
)
def test_unreadable_rationals_exit_two(argv, files, tmp_path, monkeypatch, capsys):
    # a zero denominator or an infinite float is a usage error, not a crash
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_sample_expander_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    dot = tmp_path / "g.dot"
    rc = main(
        [
            "sample-expander",
            "--n",
            "12",
            "--d",
            "3",
            "--delta",
            "0.25",
            "--seed",
            "4",
            "--output",
            str(out),
            "--dot",
            str(dot),
        ]
    )
    assert rc == 0
    g = graph_from_text(out.read_text())
    assert g.n == 12
    assert dot.read_text().startswith("digraph")


def test_check_expansion_on_explicit_graph(tmp_path, capsys):
    path = tmp_path / "complete.txt"
    path.write_text(graph_to_text(complete_bipartite(10)))
    rc = main(["check-expansion", "--graph", str(path), "--k-max", "4", "--pairs"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    # the n of a graph file bounds --k-max, as --n does for a sampled graph
    assert main(["check-expansion", "--graph", str(path), "--k-max", "11"]) == 2
    assert "expansion check: top size 11 outside 1..10" in capsys.readouterr().err


def test_check_expansion_flags_a_truncated_pair_sweep(tmp_path, capsys):
    # k <= 4 fits the budget, but the pair sweep up to 0.3322 * 20 stops at
    # C(20, 5) = 15504 > 5000
    out = tmp_path / "rep.json"
    argv = ["check-expansion", "--n", "20", "--k-max", "4", "--pairs", "--budget", "5000"]
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("(partial: budget hit)")
    payload = json.loads(out.read_text())
    assert payload["expansion"]["complete"] is True
    assert payload["pair"]["complete"] is False and payload["pair"]["truncated_at"] == 5


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "no header line"),
        ("\n   \n", "no header line"),
        ("4 - -\n", "malformed header"),
        ("4 - - -\n1 2\n", "expected 4 adjacency rows"),
        ("2 - - -\n1 3\n2\n", "neighbor 3 of left vertex 1 outside 1..2"),
        ("2 5 1/2 9\n1\n2\n1 2\ngarbage\n", "unexpected text after the 2 adjacency rows"),
        ("2 5 1/2 9\n1\n2\n", "rows differ from the graph sample_g draws"),
    ],
    ids=[
        "empty", "blank", "short-header", "missing-rows", "label-out-of-range",
        "trailing-garbage", "false-provenance",
    ],
)
def test_check_expansion_rejects_malformed_graph(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["check-expansion", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("disjoint", [[], ["--disjoint"]], ids=["plain", "disjoint"])
def test_sampled_graph_file_loads_with_its_header(tmp_path, capsys, disjoint):
    path = tmp_path / "g.txt"
    assert main(["sample-expander", "--n", "30", "--seed", "6", "--output", str(path)] + disjoint) == 0
    assert main(["check-expansion", "--graph", str(path), "--k-max", "2"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample-expander", "--n", "4", "--disjoint"],
        ["sample-expander", "--n", "2", "--d", "2", "--delta", "1/2", "--disjoint"],
        ["check-expansion", "--n", "4", "--disjoint"],
    ],
)
def test_impossible_disjoint_draw_exits_two(argv, capsys):
    assert main(argv) == 2
    assert "error: no " in capsys.readouterr().err


def test_check_expansion_with_profile_file(tmp_path, capsys):
    graph = tmp_path / "complete.txt"
    graph.write_text(graph_to_text(complete_bipartite(8)))
    profile = tmp_path / "profile.txt"
    profile.write_text("0 0\n1/4 1/2\n1/2 3/4\n1 1\n")
    rc = main(
        ["check-expansion", "--graph", str(graph), "--profile", str(profile), "--k-max", "3"]
    )
    assert rc == 0


def test_build_and_verify_round_trip(tmp_path, capsys):
    graph = tmp_path / "sc.json"
    report = tmp_path / "manifest.json"
    rc = main(
        [
            "build-sc",
            "--n",
            "80",
            "--base",
            "20",
            "--d",
            "5",
            "--delta",
            "0.325",
            "--seed",
            "7",
            "--output",
            str(graph),
            "--report",
            str(report),
        ]
    )
    assert rc == 0
    manifest = json.loads(report.read_text())["manifest"]
    assert [lv["edges_added"] for lv in manifest["levels"]] == [1012, 506, 400]
    rc = main(
        ["verify-sc", "--graph", str(graph), "--mode", "sampled", "--trials", "500", "--seed", "1"]
    )
    assert rc == 0
    assert "verify-sc PASS" in capsys.readouterr().out


def test_build_manifest_is_reproducible(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    argv = ["build-sc", "--n", "40", "--base", "20", "--seed", "3", "--report", "m.json"]
    monkeypatch.chdir(a)
    assert main(argv) == 0
    monkeypatch.chdir(b)
    assert main(argv) == 0
    assert (a / "m.json").read_bytes() == (b / "m.json").read_bytes()


def test_verify_exhaustive_budget_refusal(tmp_path, capsys):
    graph = tmp_path / "sc.json"
    assert main(["build-sc", "--n", "80", "--base", "20", "--output", str(graph)]) == 0
    rc = main(["verify-sc", "--graph", str(graph), "--mode", "exhaustive"])
    assert rc == 2
    assert "sampled" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-sc", "--trials", "0"], "trials must be >= 1, got 0"),
        (["verify-sc", "--trials", "-3"], "trials must be >= 1, got -3"),
        (["check-expansion", "--k-max", "0"], "expansion check: top size 0 outside 1..20"),
        (["build-sc", "--n", "40", "--check-k-max", "0"], "expansion check: top size 0 outside 1..40"),
        # the threshold 2 ln(n)/n is 0 at n = 1, so no gap could pass
        (["stirling-scan", "--n", "1"], "--n must be >= 2, got 1"),
        (["stirling-scan", "--n", "128", "0"], "--n must be >= 2, got 0"),
        (["build-sc", "--n", "40", "--retries", "0"], "retry_limit must be >= 1, got 0"),
        # a budget below C(n, 1) = n stops each sweep before its first size
        (["check-expansion", "--n", "20", "--budget", "19"], "C(20,1) size-1 subsets needs 20"),
        (["build-sc", "--n", "40", "--budget", "0"], "C(40,1) size-1 subsets needs 40"),
        # refused before the profile is read at k/n > 1, outside its domain
        (["check-expansion", "--n", "2", "--k-max", "3"], "expansion check: top size 3 outside 1..2"),
        # floor(0.01 * 20) = 0 leaves the pair check no size
        (["check-expansion", "--pairs", "--alpha-max", "0.01"], "pair check: top size 0 outside 1..20"),
        # the n = 2 level's pair check would cover k <= floor(c3 * 2) = 0
        (
            ["build-sc", "--n", "4", "--base", "1", "--expander", "complete"],
            "pair check: top size 0 outside 1..2",
        ),
    ],
)
def test_vacuous_check_counts_exit_two(tmp_path, capsys, argv, message):
    # a check that would test nothing is refused, not reported as a pass or a fail
    if argv[0] == "verify-sc":
        graph = tmp_path / "sc8.json"
        build = ["build-sc", "--n", "8", "--base", "4", "--expander", "complete"]
        assert main(build + ["--output", str(graph)]) == 0
        argv = argv + ["--graph", str(graph)]
        capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_complete_expanders_under_a_negative_base_exit_two(capsys):
    # listing the level sizes n, n/2, ... above the base never ended for base < 0
    assert main(["build-sc", "--n", "40", "--base", "-1", "--expander", "complete"]) == 2
    assert "base size must be positive: -1" in capsys.readouterr().err


def test_verify_complete_expander_exhaustive(tmp_path, capsys):
    graph = tmp_path / "sc8.json"
    rc = main(
        ["build-sc", "--n", "8", "--base", "4", "--expander", "complete", "--output", str(graph)]
    )
    assert rc == 0
    rc = main(["verify-sc", "--graph", str(graph), "--mode", "exhaustive", "--budget", "20000"])
    assert rc == 0


def test_verify_failure_exits_one(tmp_path, capsys):
    from superconc.construction import SuperDag

    graph = tmp_path / "sc8.json"
    assert (
        main(["build-sc", "--n", "8", "--base", "4", "--expander", "complete", "--output", str(graph)])
        == 0
    )
    dag = SuperDag.from_json(graph.read_text())
    broken = dag.without_edges((dag.inputs[0], v) for v in range(dag.num_nodes))
    graph.write_text(broken.to_json())
    rc = main(["verify-sc", "--graph", str(graph), "--mode", "exhaustive", "--budget", "20000"])
    assert rc == 1
    assert "counterexample" in capsys.readouterr().out


def test_prob_bound_pair(capsys, tmp_path):
    out = tmp_path / "bound.json"
    rc = main(
        [
            "prob-bound",
            "--kind",
            "pair",
            "--n",
            "8",
            "--d",
            "1",
            "--delta",
            "0",
            "--k",
            "2",
            "--m",
            "2",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["exact"] == "4/1"


def test_prob_bound_past_float_range_prints_inf(capsys):
    # ln of this union bound is about 2299, past the e^709 where floats end
    argv = ["prob-bound", "--kind", "expansion", "--n", "4000", "--k", "10", "--m", "3000"]
    assert main(argv + ["--print-json"]) == 0
    out = capsys.readouterr().out
    payload, end = json.JSONDecoder().raw_decode(out)
    assert math.isfinite(payload["log_value"]) and payload["log_value"] > 709
    assert out[end:].strip() == f"prob-bound expansion: log={payload['log_value']:.6f} value=inf"


def test_mc_plr_prints_estimate(capsys):
    rc = main(["mc-plr", "--n", "6", "--ell", "2", "--r", "3", "--d", "2", "--trials", "4000"])
    assert rc == 0
    est, se = map(float, capsys.readouterr().out.split())
    assert abs(est - 0.6) < 6 * max(se, 1e-9)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "6", "--ell", "2", "--r", "3", "--d", "0"], "d must be >= 1, got 0"),
        (["--n", "6", "--ell", "0", "--r", "3", "--d", "2"], "ell=0 outside 1..6"),
        (["--n", "6", "--ell", "7", "--r", "3", "--d", "2"], "ell=7 outside 1..6"),
        (["--n", "6", "--ell", "2", "--r", "9", "--d", "2"], "r=9 outside 0..5"),
        (["--n", "6", "--ell", "2", "--r", "-1", "--d", "2"], "r=-1 outside 0..5"),
        (["--n", "0", "--ell", "0", "--r", "0", "--d", "2"], "ell=0 outside 1..0"),
    ],
)
@pytest.mark.parametrize("command", ["exact-plr", "mc-plr"])
def test_plr_commands_refuse_the_same_domain(command, args, message, capsys):
    assert main([command] + args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_stirling_scan_small(capsys):
    assert main(["stirling-scan", "--n", "128", "256"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_missing_graph_file_is_usage_error(tmp_path, capsys):
    rc = main(["verify-sc", "--graph", str(tmp_path / "absent.json")])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["stirling-scan", "--print-json"],
            "fa248e5d2fb0e624ec1ab1dcfff8dd5047699af264e40af15b197ffe1b6002eb",
        ),
        (
            ["prob-bound", "--kind", "expansion", "--n", "4000", "--k", "400", "--m", "800", "--print-json"],
            "fc97b01aaf50f7f67ae20eb3f3d8d5b79b28539ba24e807e1f1b8c360ef3137d",
        ),
    ],
    ids=["stirling-scan", "prob-bound-log"],
)
def test_scalar_entropy_commands_golden_stdout(argv, want, capsys):
    # both print Python floats: entropy terms, and a log rounded up from integers
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_report_json_is_built_only_when_asked_for(monkeypatch, capsys):
    # without --output or --print-json the report's JSON text is never formed
    def refuse(*args, **kwargs):
        raise RuntimeError("the report JSON was built")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    monkeypatch.setattr(cli, "_finite_or_null", refuse)
    assert main(["certify-pair", "--grid", "4", "--margin", "-1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_build_retry_exhaustion_exits_one(tmp_path, capsys):
    graph = tmp_path / "sc.json"
    argv = ["build-sc", "--n", "16", "--base", "4", "--d", "1", "--delta", "0", "--retries", "2"]
    assert main(argv + ["--output", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "within 2 attempts" in err
    assert not graph.exists()


def _complete_payload(n_inputs, n_outputs):
    """A graph file of the complete bipartite graph from the inputs to the outputs."""
    roles = ["input"] * n_inputs + ["output"] * n_outputs
    ins, outs = range(n_inputs), range(n_inputs, len(roles))
    return {
        "nodes": [{"role": r, "level": 0, "label": [r[0], i]} for i, r in enumerate(roles)],
        "edges": [[u, v] for u in ins for v in outs],
        "inputs": list(ins),
        "outputs": list(outs),
        "levels": [],
    }


def _graph_payload(**changes):
    """A 2-input complete bipartite graph, a valid superconcentrator."""
    return dict(_complete_payload(2, 2), **changes)


def _first_node(**fields):
    """The 2-input graph with fields of its first node record replaced, or
    dropped where the value is None."""
    payload = _graph_payload()
    node = dict(payload["nodes"][0], **fields)
    payload["nodes"][0] = {k: v for k, v in node.items() if v is not None}
    return payload


def test_verify_accepts_hand_written_graph(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(_graph_payload(inputs=[1, 0])))
    assert main(["verify-sc", "--graph", str(graph), "--mode", "exhaustive"]) == 0


@pytest.mark.parametrize(
    "payload, message",
    [
        (_graph_payload(nodes=[1, 2]), "is not an object"),
        (_graph_payload(nodes=[{"role": "input", "level": 0, "label": 5}]), "label list"),
        ([], "must hold a JSON object"),
        (_graph_payload(inputs=0), "with nodes, edges, inputs, outputs, levels lists"),
        ({k: v for k, v in _graph_payload().items() if k != "levels"}, "levels lists"),
        (_graph_payload(edges=[[0, 2], [0, 7]]), "node id 7 outside 0..3"),
        (_graph_payload(edges=[[0, 2], [-1, 3]]), "node id -1 outside"),
        (_graph_payload(edges=[[0, 2, 3]]), "edges must be pairs of node ids"),
        (_graph_payload(inputs=[0, 4]), "node id 4 outside"),
        (_graph_payload(inputs=[0, 2]), "inputs list disagrees with the node roles"),
        (_graph_payload(inputs=[0, 0]), "inputs list disagrees"),
        (_graph_payload(outputs=[2]), "outputs list disagrees"),
        (_graph_payload(edges=[[0, 2], [0, 3], [1, 2], [1, 3], [0, 2]]), "duplicate edge (0, 2)"),
        (_graph_payload(edges=[[0, 2], [2, 0], [1, 3]]), "cycle"),
        (_first_node(role=None), "{'level': 0, 'label': ['i', 0]} has no 'role'"),
        (_first_node(level=None), "{'role': 'input', 'label': ['i', 0]} has no 'level'"),
        (_first_node(level="0"), "'level': '0', 'label': ['i', 0]} has a 'level' that is not an integer"),
        (_first_node(level=0.5), "'level' that is not an integer"),
        (_first_node(level=True), "'level' that is not an integer"),
        (_graph_payload(levels=[{"level": 0}, 3]), "level record 3 is not an object"),
        (_graph_payload(edges=[[[1], 2], [0, 3]]), "node id [1] outside 0..3"),
    ],
    ids=[
        "non-object-node",
        "label-not-a-list",
        "not-an-object",
        "inputs-not-a-list",
        "levels-missing",
        "edge-id-out-of-range",
        "negative-edge-id",
        "edge-not-a-pair",
        "input-id-out-of-range",
        "inputs-disagree-with-roles",
        "repeated-input",
        "output-missing",
        "duplicate-edge",
        "cycle",
        "role-missing",
        "level-missing",
        "level-a-string",
        "level-a-float",
        "level-a-bool",
        "level-record-not-an-object",
        "list-endpoint",
    ],
)
def test_verify_rejects_malformed_graph(tmp_path, capsys, payload, message):
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps(payload))
    assert main(["verify-sc", "--graph", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize(
    "n_inputs, n_outputs", [(3, 2), (2, 3), (0, 0)], ids=["3-inputs-2-outputs", "2-inputs-3-outputs", "empty"]
)
def test_verify_refuses_unequal_or_empty_sides(tmp_path, capsys, n_inputs, n_outputs, mode):
    # exhaustive mode checked no size-3 pair here and passed; sampled mode
    # crashed inside random.sample or randrange
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(_complete_payload(n_inputs, n_outputs)))
    assert main(["verify-sc", "--graph", str(graph), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert f"got {n_inputs} inputs and {n_outputs} outputs" in captured.err
    assert "PASS" not in captured.out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv, rc, path",
    [
        (["check-conditions", "--gamma", "2"], 1, ["checks", 8, "slack"]),
        (["prob-bound", "--kind", "expansion", "--n", "200", "--k", "20", "--m", "1"], 0, ["log_value"]),
    ],
    ids=["pair-degree-pole", "log-of-zero"],
)
def test_reports_are_strict_json(tmp_path, argv, rc, path):
    # both reports hold an infinite float, which is written as null
    out = tmp_path / "r.json"
    assert main(argv + ["--output", str(out)]) == rc
    value = json.loads(out.read_text(), parse_constant=_reject_constant)
    for key in path:
        value = value[key]
    assert value is None
