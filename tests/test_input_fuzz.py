"""Property tests of the input boundaries: a mutated graph file or profile
either loads or raises ValueError, and argv drawn around the domain edges
of every option makes the CLI exit 0, 1 or 2, never crash."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superconc.cli import build_parser, main
from superconc.construction import BuildConfig, SuperDag, build_gamma
from superconc.profiles import PiecewiseLinear
from superconc.randgraph import complete_bipartite, graph_from_text, graph_to_text, sample_g

EDGES = ["-1", "0", "1", "2", "1/0", "nan"]
# 10^8 as a header degree d must load or be refused as fast as a small one
TOKENS = EDGES + ["3", "1/2", "-", "x", "", "100000000"]
VALUES = [-1, 0, 1, 2, 1.5, True, None, "x", [], [1], {}, [[1], 2], [0, 1, 2]]

GRAPH_JSON = build_gamma(8, BuildConfig(base_size=4, expanders={8: complete_bipartite(8)})).to_json()
GRAPH_TEXTS = [
    graph_to_text(sample_g(12, 3, "1/4", 4)),
    graph_to_text(sample_g(12, 3, "1/4", 4, disjoint=True)),
    graph_to_text(complete_bipartite(5)),
]
# Γ(4) over Γ(2): small enough that an exhaustive verify-sc takes milliseconds
SC4_JSON = build_gamma(4, BuildConfig(base_size=2, expanders={4: complete_bipartite(4)})).to_json()
PROFILE_TEXT = "0 0\n1/4 1/2\n1/2 3/4\n1 1\n"
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated_payload(draw):
    """The Γ(8) graph JSON with one value, list element or key replaced or dropped."""
    payload = json.loads(GRAPH_JSON)
    node, path = payload, []
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node, path = node[key], path + [key]
    if not path:
        return payload
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(VALUES))
    return payload


@st.composite
def mutated_text(draw, texts):
    """One of texts with a few tokens replaced and lines dropped or repeated."""
    lines = [line.split(" ") for line in draw(st.sampled_from(texts)).split("\n")]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "drop", "repeat"]))
        if action == "token":
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(TOKENS))
        elif action == "drop" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    return "\n".join(" ".join(line) for line in lines)


def _loads_or_value_error(load, text):
    try:
        load(text)
    except ValueError:
        pass


@FUZZ
@given(payload=mutated_payload())
def test_mutated_graph_json_loads_or_raises_value_error(payload):
    _loads_or_value_error(SuperDag.from_json, json.dumps(payload))


@FUZZ
@given(text=mutated_text(GRAPH_TEXTS))
def test_mutated_graph_text_loads_or_raises_value_error(text):
    _loads_or_value_error(graph_from_text, text)


@FUZZ
@given(text=st.sampled_from(GRAPH_TEXTS[:2]), d=st.integers(-1, 10**12))
def test_graph_text_under_any_header_degree_loads_or_raises_value_error(text, d):
    header, rows = text.split("\n", 1)
    n, _, delta, seed = header.split()
    _loads_or_value_error(graph_from_text, f"{n} {d} {delta} {seed}\n{rows}")


@st.composite
def padded_graph_text(draw):
    """An explicit graph's text and its rows: each row's labels in any order
    between runs of blanks, so an empty row is a line of blanks or none."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.sets(st.integers(1, n)), min_size=n, max_size=n))
    lines = [f"{n} - - -"]
    for row in rows:
        labels = [str(j) for j in draw(st.permutations(sorted(row)))] + [""]
        gaps = [draw(st.text(" \t", min_size=int(0 < i < len(labels) - 1), max_size=3))
                for i in range(len(labels))]
        lines.append("".join(gap + label for gap, label in zip(gaps, labels)))
    return "\n".join(lines) + "\n", rows


@FUZZ
@given(case=padded_graph_text())
def test_graph_text_rows_load_as_written(case):
    text, rows = case
    assert [set(row) for row in graph_from_text(text).adjacency] == rows


@FUZZ
@given(text=mutated_text([PROFILE_TEXT]))
def test_mutated_profile_text_loads_or_raises_value_error(text):
    _loads_or_value_error(PiecewiseLinear.from_text, text)


SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices
# options naming files: --graph gets a valid graph, the outputs are left out
PATHS = {"--output", "--report", "--dot", "--slack-csv", "--graph", "--profile"}


@st.composite
def edge_argv(draw, command):
    """argv for command with each option left at its default or set to a
    domain edge; --graph names a valid Γ(4) graph file."""
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        flag = action.option_strings[-1]
        if flag == "--help" or (flag in PATHS and not action.required):
            continue
        if not (action.required or draw(st.booleans())):
            continue
        if flag == "--graph":
            argv += [flag, "sc4.json"]
        elif action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv += [flag, draw(st.sampled_from(action.choices))]
        else:
            # "1/0" and "nan" only stop argparse's int() before the command runs
            values = st.sampled_from(EDGES[:4] if action.type is int else EDGES)
            count = 1 if action.nargs is None else draw(st.integers(1, 2))
            argv += [flag] + draw(st.lists(values, min_size=count, max_size=count))
    return argv


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_edge_argv_exits_zero_one_or_two(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sc4.json").write_text(SC4_JSON)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=edge_argv(command))
    def run(argv):
        try:
            assert main(argv) in (0, 1, 2), argv
        except SystemExit as exc:
            assert exc.code == 2, argv

    run()
