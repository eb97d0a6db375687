"""Heavy libraries follow use: `import superconc` and the commands that need
no numpy, scipy or mpmath start without them.  Each check runs in a fresh
interpreter, since this test process has long since imported everything."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import superconc

WATCHED = ("mpmath", "numpy", "scipy", "scipy.special", "scipy.sparse.csgraph")
# verification forks its workers through these, imported inside the call
POOL = ("multiprocessing", "concurrent.futures")

# the commands of the cold-start benchmark mix, at small sizes
LIGHT_COMMANDS = [
    ["exact-plr", "--n", "20", "--ell", "3", "--r", "8", "--d", "5"],
    ["prob-bound", "--kind", "expansion", "--n", "200", "--k", "20", "--m", "40"],
    ["prob-bound", "--kind", "expansion", "--n", "4000", "--k", "400", "--m", "800"],
    ["check-conditions"],
    ["stirling-scan", "--n", "64"],
    ["check-expansion", "--n", "20", "--k-max", "2", "--pairs"],
    ["sample-expander", "--n", "40"],
    ["mc-plr", "--n", "20", "--ell", "4", "--r", "10", "--d", "5", "--trials", "200"],
]

# every name `superconc` exported when it imported all submodules eagerly,
# less the deleted scalar envelopes and pointwise ratio and degree checks
OLD_EXPORTS = {
    "certifier": "CertReport certify_expansion_inequality certify_pair_inequality",
    "construction": "BuildConfig BuildError SuperDag VerifyReport build_gamma "
    "max_disjoint_paths verify_superconcentrator",
    "entropy": "entropy log_binomial stirling_gap",
    "probability": "BoundValue alpha_coefficients bassalygo_bound boolean_identity_check "
    "binom_ratio_bound exact_plr expansion_fail_bound montecarlo_plr pair_fail_bound plr_table",
    "profiles": "ConditionCheck ConditionReport PiecewiseLinear ProfileConstants "
    "alon_capalbo_profile check_conditions density253_constants expansion_profile overlap_profile",
    "randgraph": "BipartiteGraph EnumerationBudgetError check_expander_profile "
    "check_pair_profile complete_bipartite derive_seed graph_from_text graph_to_dot "
    "graph_to_text min_expansion min_pair_expansion neighborhood pair_count sample_g "
    "sampled_min_expansion",
}


def _loaded_after(code: str, watch=WATCHED) -> list:
    """The modules of `watch` in sys.modules after running `code` in a fresh
    interpreter that imports the package from this checkout."""
    src = os.path.dirname(os.path.dirname(superconc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = (
        "import json, sys\n"
        f"{code}\n"
        f"watch = {tuple(watch)!r}\n"
        "print(json.dumps([m for m in watch if m in sys.modules]), file=sys.__stdout__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _quiet_main(argv: list) -> str:
    """Code that runs the command line on argv with its output discarded."""
    return (
        "import contextlib, io\n"
        "from superconc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def test_package_import_loads_no_heavy_library():
    assert _loaded_after("import superconc") == []


# the package modules each light command runs without, besides construction
# and certifier; no light command loads dataclasses
NOT_RUN = {
    "exact-plr": ("superconc.randgraph",),
    "prob-bound": ("superconc.randgraph",),
    "check-conditions": ("superconc.randgraph", "superconc.probability"),
    "stirling-scan": ("superconc.randgraph", "superconc.probability", "superconc.profiles"),
    "check-expansion": ("superconc.probability",),
    "sample-expander": ("superconc.probability",),
    "mc-plr": (),
}


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_light_command_loads_no_heavy_library(argv):
    unneeded = ("dataclasses", "superconc.construction", "superconc.certifier")
    loaded = _loaded_after(_quiet_main(argv), WATCHED + POOL + unneeded + NOT_RUN[argv[0]])
    assert loaded == []


def test_construction_import_and_build_load_no_process_pool(tmp_path):
    # one interpreter imports the module, then builds a dag
    build = ["build-sc", "--n", "40", "--output", str(tmp_path / "g.json")]
    assert _loaded_after("import superconc.construction\n" + _quiet_main(build), POOL) == []


def test_heavy_modules_load_their_libraries_at_import(tmp_path):
    # the certifier's float64 scan needs numpy alone, loaded at import so the
    # certify benchmark pays it in set-up; mpmath loads only for the interval
    # spot check
    assert _loaded_after("import superconc.certifier") == ["numpy"]
    # building a dag runs no flow, so only verification loads numpy and scipy
    assert _loaded_after("import superconc.construction") == []
    graph = tmp_path / "g.json"
    run = (
        "import contextlib, io\n"
        "from superconc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main({!r}) == 0\n"
    )
    build = ["build-sc", "--n", "40", "--output", str(graph)]
    assert _loaded_after(run.format(build)) == []
    verify = ["verify-sc", "--graph", str(graph), "--trials", "5"]
    assert {"numpy", "scipy", "scipy.sparse.csgraph"} <= set(_loaded_after(run.format(verify)))
    assert "mpmath" not in _loaded_after(run.format(verify))
    certify = ["certify-pair", "--grid", "4", "--margin", "-1"]
    assert _loaded_after(run.format(certify)) == ["numpy"]
    confirmed = _loaded_after(run.format(certify + ["--confirm"]))
    assert "mpmath" in confirmed and "scipy" not in confirmed


def test_old_export_list_resolves_lazily():
    names = dir(superconc)
    exported = set()
    for module_name, listed in OLD_EXPORTS.items():
        module = importlib.import_module(f"superconc.{module_name}")
        for name in listed.split():
            assert getattr(superconc, name) is getattr(module, name)
            assert name in names
            exported.add(name)
    assert set(superconc.__all__) == exported
    # `entropy` names both a submodule and the function; the package gives the function
    assert superconc.entropy is importlib.import_module("superconc.entropy").entropy
    assert superconc.certifier.__name__ == "superconc.certifier"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        superconc.no_such_name
    assert not hasattr(superconc, "no_such_name")
    with pytest.raises(ImportError):
        from superconc import no_such_name  # noqa: F401
