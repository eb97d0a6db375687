"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see them as they happen)."""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from superconc.cli import main
from superconc.construction import BuildConfig, build_gamma, verify_superconcentrator
from superconc.entropy import stirling_gap
from superconc.probability import (
    bassalygo_bound,
    boolean_identity_check,
    empirical_expansion_failure,
    exact_plr,
    expansion_fail_bound,
    montecarlo_plr,
)
from superconc.profiles import check_conditions, density253_constants
from superconc.randgraph import complete_bipartite


def _line(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_pair_inequality_certification(tmp_path):
    out = tmp_path / "pair.json"
    t0 = time.perf_counter()
    rc = main(
        [
            "certify-pair", "--delta", "0.325", "--p", "0.45",
            "--x-min", "0.3", "--x-max", "0.3322", "--grid", "1000",
            "--margin", "0.0001", "--output", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    report = json.loads(out.read_text())
    ok = rc == 0 and report["pass"] and report["min_slack"] >= 0.0001 and elapsed <= 120
    _line(
        1,
        ok,
        f"certify-pair on 1000x1000 grid: min slack {report['min_slack']:.8f} "
        f">= 0.0001, {elapsed:.1f}s",
    )
    assert rc == 0
    assert report["pass"] is True
    assert report["min_slack"] >= 0.0001
    assert elapsed <= 120


def test_criterion_2_expansion_inequality_certification(tmp_path):
    out = tmp_path / "expansion.json"
    t0 = time.perf_counter()
    rc = main(
        [
            "certify-expansion", "--delta", "0.325", "--boost", "0.18",
            "--grid", "1000", "--margin", "0.0001", "--output", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    report = json.loads(out.read_text())
    ok = rc == 0 and report["pass"] and report["min_slack"] >= 0.0001 and elapsed <= 300
    _line(
        2,
        ok,
        f"certify-expansion on 4 intervals x 1000x1000: min slack "
        f"{report['min_slack']:.8f} >= 0.0001, {elapsed:.1f}s",
    )
    assert rc == 0
    assert report["pass"] is True
    assert len(report["params"]["x_intervals"]) == 4
    assert report["min_slack"] >= 0.0001
    assert elapsed <= 300


def test_criterion_3_incremental_density_is_exact():
    cfg40 = BuildConfig(base_size=20, d=5, delta=Fraction("0.325"), seed=7)
    cfg80 = BuildConfig(base_size=20, d=5, delta=Fraction("0.325"), seed=7)
    g40 = build_gamma(40, cfg40)
    g80 = build_gamma(80, cfg80)
    diff = g80.edge_count() - g40.edge_count()
    ok = diff == 1012 and Fraction(diff, 40) == Fraction(253, 10)
    _line(3, ok, f"edge_count(G80)-edge_count(G40) = {diff} = 1012, /40 = 25.3 exactly")
    assert diff == 1012
    assert Fraction(diff, 40) == Fraction(253, 10)
    assert 4 * (Fraction(5) + Fraction("0.325") + 1) == Fraction(253, 10)


def test_criterion_4_gamma8_exhaustive_verification():
    cfg = BuildConfig(base_size=4, expanders={8: complete_bipartite(8)})
    dag = build_gamma(8, cfg)
    t0 = time.perf_counter()
    report = verify_superconcentrator(dag, mode="exhaustive")
    elapsed = time.perf_counter() - t0
    expected_pairs = sum(math.comb(8, k) ** 2 for k in range(1, 9))
    ok = report.passed and report.pairs_checked == expected_pairs == 12869 and elapsed <= 300
    _line(
        4,
        ok,
        f"Gamma_8 over complete E_8: {report.pairs_checked} subset pairs by flows, "
        f"{elapsed:.1f}s",
    )
    assert report.passed
    assert report.pairs_checked == 12869
    assert elapsed <= 300

    broken = dag.without_edges((dag.inputs[0], v) for v in range(dag.num_nodes))
    failure = verify_superconcentrator(broken, mode="exhaustive")
    ok2 = (not failure.passed) and failure.counterexample[0] == 1
    _line(4, ok2, f"mutated graph fails with witness k={failure.counterexample[0]}")
    assert not failure.passed
    assert failure.counterexample[0] == 1


def test_criterion_5_exact_probability_and_oracles():
    exact = exact_plr(6, 2, 3, 2)
    # oracle: full enumeration over all 720^2 permutation pairs
    perms = list(itertools.permutations(range(6)))
    masks = [(1 << p[0]) | (1 << p[1]) for p in perms]
    hits = sum(
        1 for a in masks for b in masks if (a | b).bit_count() <= 3
    )
    brute = Fraction(hits, len(masks) ** 2)
    bound = bassalygo_bound(6, 2, 3, 2)
    est, se = montecarlo_plr(6, 2, 3, 2, 100_000, 2026)
    ok = (
        exact == Fraction(3, 5) == brute
        and bound == Fraction(4, 5)
        and bound >= exact
        and abs(est - 0.6) <= 4 * se
    )
    _line(
        5,
        ok,
        f"exact 3/5 == brute force over {len(masks)**2} pairs; bound 4/5 >= 3/5; "
        f"Monte Carlo {est:.4f} within 4se ({4 * se:.4f}) of 0.6",
    )
    assert exact == Fraction(3, 5)
    assert brute == Fraction(3, 5)
    assert bound == Fraction(4, 5)
    assert bound >= exact
    assert abs(est - 0.6) <= 4 * se


def test_criterion_6_boolean_identity_exact():
    qs = [Fraction(1, 3), Fraction(1, 2), Fraction(7, 10)]
    checked = 0
    for n in range(1, 13):
        for r in range(n):
            for q in qs:
                assert boolean_identity_check(n, r, q), (n, r, q)
                checked += 1
    _line(6, True, f"inclusion-exclusion tail identity exact on {checked} cases")


def test_criterion_7_stirling_gap_bound():
    worst = {}
    for n in (128, 512, 2048):
        bound = 2 * math.log(n) / n
        gaps = [stirling_gap(n, k) for k in range(n + 1)]
        worst[n] = (max(gaps), bound)
        assert max(gaps) < bound
    detail = ", ".join(f"n={n}: {g:.5f} < {b:.5f}" for n, (g, b) in worst.items())
    _line(7, True, detail)


def test_criterion_8_bound_soundness_empirical():
    configs = [
        (12, 3, 0, 3, 4),
        (10, 3, 0, 3, 4),
        (12, 4, 0, 3, 5),
    ]
    lines = []
    for N, d, delta, k, m in configs:
        bound = expansion_fail_bound(N, d, delta, k, m)
        assert bound.exact is not None and 0 < bound.exact < Fraction(1, 2)
        freq, failures, samples = empirical_expansion_failure(
            N, d, delta, k, m, samples=200, seed=1234
        )
        se = math.sqrt(freq * (1 - freq) / samples)
        assert freq <= float(bound.exact) + 3 * se
        lines.append(f"({N},{d},{delta},{k},{m}): freq {freq:.3f} <= {float(bound.exact):.5f}+3se")
    _line(8, True, "; ".join(lines))


def test_criterion_9_condition_suite_slacks():
    c = density253_constants()
    report = check_conditions(c, gamma=1, eps1=Fraction(3, 10))
    assert report.all_pass
    assert main(["check-conditions"]) == 0

    # independent float arithmetic from the decimal constants
    c1, c3 = 0.2301, 0.3322
    c2 = 1 - c1 - c3
    c5, c4, c6 = c2, 1 - c2, 1 - c3
    e0 = c2 / c1
    e1 = (1 - c6) / (1 - c5)
    slack_low = 5.325 - (2 + e0)
    slack_high = 5.325 - (1 + 2 / e1)
    slack_pair = 5 - (1 + 1 * (1 - 0.3) / (1 - 2 * 1 * 0.3))

    assert report["degree>2+e'(0)"].slack == pytest.approx(slack_low, abs=1e-9)
    assert report["degree>1+2/e'(1)"].slack == pytest.approx(slack_high, abs=1e-9)
    assert report["pair-degree"].slack == pytest.approx(slack_pair, abs=1e-9)
    assert slack_low == pytest.approx(1.42, abs=5e-3)
    assert slack_high == pytest.approx(0.94, abs=5e-3)
    assert slack_pair == pytest.approx(2.25, abs=1e-12)
    for name in ("c2+c4>=1", "c1+c2+c3<=1", "slope-chain-1",
                 "slope-chain-2", "middle-slope-unit", "final-slope<1"):
        assert report[name].passed
    _line(
        9,
        True,
        f"all conditions pass; slacks {slack_low:.4f} / {slack_high:.4f} / {slack_pair:.2f} "
        "match independent arithmetic to 1e-9",
    )
