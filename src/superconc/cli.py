"""Batch command-line interface.

Every subcommand resolves its parameters (defaults reproduce the density-25.3
checks), runs the corresponding library operation, prints a one-line summary,
and can write a JSON report that echoes the resolved configuration.  Exit
codes: 0 when all checks passed, 1 when a check failed, 2 for usage or
configuration errors (including exceeded enumeration budgets).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import certifier, construction, probability, profiles, randgraph
from .entropy import stirling_gap

_USAGE_ERROR = 2
_CHECK_FAILED = 1


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, Path):
            value = str(value)
        out[key] = value
    return out


_DEFAULT_PATH = object()


def _write_report(args, payload: dict, path=_DEFAULT_PATH) -> None:
    payload = dict(payload)
    payload["config"] = _config_dict(args)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is _DEFAULT_PATH:
        path = getattr(args, "output", None)
    if path:
        Path(path).write_text(text)
    elif getattr(args, "print_json", False):
        sys.stdout.write(text)


def _cmd_certify_pair(args) -> int:
    report = certifier.certify_pair_inequality(
        delta=args.delta,
        gamma=args.gamma,
        p=args.p,
        x_range=(args.x_min, args.x_max),
        grid_n=args.grid,
        margin=args.margin,
        threads=args.threads,
        confirm=args.confirm,
        slack_csv=args.slack_csv,
    )
    _write_report(args, report.to_json_dict())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"certify-pair {status}: min slack {report.min_slack:.8f} "
        f"(margin {report.margin}) over {report.cells_checked} cells"
    )
    return 0 if report.passed else _CHECK_FAILED


def _cmd_certify_expansion(args) -> int:
    constants = profiles.ProfileConstants.from_c1_c3(
        args.c1, args.c3, d=args.d, delta=args.delta
    )
    c1, c3, c5 = float(constants.c1), float(constants.c3), float(constants.c5)
    intervals = [(args.x_min, c1), (c1, c3), (c3, c5), (c5, args.x_max)]
    report = certifier.certify_expansion_inequality(
        delta=float(args.delta),
        boost=args.boost,
        constants=constants,
        x_intervals=intervals,
        grid_n=args.grid,
        margin=args.margin,
        threads=args.threads,
        confirm=args.confirm,
        slack_csv=args.slack_csv,
    )
    _write_report(args, report.to_json_dict())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"certify-expansion {status}: min slack {report.min_slack:.8f} "
        f"(margin {report.margin}) over {report.cells_checked} cells"
    )
    return 0 if report.passed else _CHECK_FAILED


def _cmd_check_conditions(args) -> int:
    constants = profiles.ProfileConstants.from_c1_c3(
        args.c1, args.c3, d=args.d, delta=args.delta
    )
    report = profiles.check_conditions(constants, gamma=args.gamma, eps1=args.eps1)
    _write_report(args, report.as_dict())
    for check in report.checks:
        mark = "ok " if check.passed else "BAD"
        print(f"  [{mark}] {check.name:<22} slack {check.slack:+.9f}  {check.detail}")
    status = "PASS" if report.all_pass else "FAIL"
    print(f"check-conditions {status}: {len(report.checks)} conditions")
    return 0 if report.all_pass else _CHECK_FAILED


def _cmd_sample_expander(args) -> int:
    g = randgraph.sample_g(args.n, args.d, args.delta, args.seed, disjoint=args.disjoint)
    text = randgraph.graph_to_text(g)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(randgraph.graph_to_dot(g))
    print(f"sample-expander: n={g.n} edges={g.edge_count()} seed={args.seed}", file=sys.stderr)
    return 0


def _load_or_sample_graph(args) -> randgraph.BipartiteGraph:
    if args.graph:
        return randgraph.graph_from_text(Path(args.graph).read_text())
    return randgraph.sample_g(args.n, args.d, args.delta, args.seed, disjoint=args.disjoint)


def _cmd_check_expansion(args) -> int:
    g = _load_or_sample_graph(args)
    constants = profiles.density253_constants()
    if args.profile:
        profile = profiles.PiecewiseLinear.from_text(Path(args.profile).read_text())
    else:
        profile = profiles.expansion_profile(constants)
    rep_e = randgraph.check_expander_profile(g, profile, args.k_max, args.budget)
    payload = {"expansion": rep_e.as_dict()}
    passed = rep_e.passed
    if args.pairs:
        rep_p = randgraph.check_pair_profile(g, args.gamma, args.alpha_max, args.budget)
        payload["pair"] = rep_p.as_dict()
        passed = passed and rep_p.passed
    _write_report(args, payload)
    status = "PASS" if passed else "FAIL"
    flags = "" if rep_e.complete else " (partial: budget hit)"
    print(f"check-expansion {status}: n={g.n} k<={args.k_max}{flags}")
    return 0 if passed else _CHECK_FAILED


def _cmd_build_sc(args) -> int:
    cfg = construction.BuildConfig(
        base_size=args.base,
        d=args.d,
        delta=profiles.as_fraction(args.delta),
        seed=args.seed,
        retry_limit=args.retries,
        check_k_max=args.check_k_max,
        check_budget=args.budget,
    )
    if args.expander == "complete":
        sizes = []
        n = args.n
        while n > args.base:
            sizes.append(n)
            n //= 2
        cfg.expanders = {m: randgraph.complete_bipartite(m) for m in sizes}
    dag = construction.build_gamma(args.n, cfg)
    if args.output:
        Path(args.output).write_text(dag.to_json() + "\n")
    if args.dot:
        Path(args.dot).write_text(dag.to_dot())
    manifest = dag.manifest()
    _write_report(args, {"manifest": manifest}, path=args.report)
    per_level = ", ".join(str(r["edges_added"]) for r in manifest["levels"])
    print(
        f"build-sc: n={args.n} edges={manifest['edge_count']} "
        f"density={manifest['density']:.4f} per-level [{per_level}]"
    )
    return 0


def _cmd_verify_sc(args) -> int:
    dag = construction.SuperDag.from_json(Path(args.graph).read_text())
    report = construction.verify_superconcentrator(
        dag, mode=args.mode, trials=args.trials, seed=args.seed, budget=args.budget
    )
    _write_report(args, report.as_dict())
    status = "PASS" if report.passed else "FAIL"
    print(f"verify-sc {status}: mode={report.mode} pairs={report.pairs_checked}")
    if report.counterexample is not None:
        k, S, T, got = report.counterexample
        print(f"  counterexample: k={k} S={list(S)} T={list(T)} achieved={got}")
    return 0 if report.passed else _CHECK_FAILED


def _cmd_prob_bound(args) -> int:
    fn = probability.pair_fail_bound if args.kind == "pair" else probability.expansion_fail_bound
    bound = fn(args.n, args.d, args.delta, args.k, args.m)
    payload = {
        "kind": args.kind,
        "log_value": bound.log_value,
        "regime": bound.regime,
        "exact": None
        if bound.exact is None
        else f"{bound.exact.numerator}/{bound.exact.denominator}",
    }
    _write_report(args, payload)
    shown = f"{bound.exact.numerator}/{bound.exact.denominator}" if bound.exact is not None else ""
    print(f"prob-bound {args.kind}: log={bound.log_value:.6f} value={bound.value:.6g} {shown}")
    return 0


def _cmd_exact_plr(args) -> int:
    value = probability.exact_plr(args.n, args.ell, args.r, args.d, pk_mode=args.pk_mode)
    _write_report(
        args,
        {"exact": f"{value.numerator}/{value.denominator}", "float": float(value)},
    )
    print(f"{value.numerator}/{value.denominator}")
    return 0


def _cmd_mc_plr(args) -> int:
    est, stderr = probability.montecarlo_plr(
        args.n, args.ell, args.r, args.d, args.trials, args.seed
    )
    _write_report(args, {"estimate": est, "stderr": stderr, "trials": args.trials})
    print(f"{est:.6f} {stderr:.6f}")
    return 0


def _cmd_stirling_scan(args) -> int:
    results = []
    ok = True
    for n in args.n:
        worst = max(stirling_gap(n, k) for k in range(n + 1))
        threshold = 2.0 * math.log(n) / n
        good = worst < threshold
        ok = ok and good
        results.append({"n": n, "max_gap": worst, "threshold": threshold, "passed": good})
        mark = "ok " if good else "BAD"
        print(f"  [{mark}] n={n:<6} max gap {worst:.6f} < {threshold:.6f}")
    _write_report(args, {"results": results})
    print(f"stirling-scan {'PASS' if ok else 'FAIL'}")
    return 0 if ok else _CHECK_FAILED


def _add_output(sub):
    sub.add_argument("--output", help="write a JSON report to this path")
    sub.add_argument(
        "--print-json", action="store_true", help="print the JSON report to stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superconc",
        description="Superconcentrator toolkit: sampling, construction, "
        "verification, probabilities and certified inequalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("certify-pair", help="grid-certify the pair-expansion inequality")
    sub.add_argument("--delta", type=float, default=0.325)
    sub.add_argument("--gamma", type=float, default=1.0)
    sub.add_argument("--p", type=float, default=0.45)
    sub.add_argument("--x-min", type=float, default=0.3)
    sub.add_argument("--x-max", type=float, default=0.3322)
    sub.add_argument("--grid", type=int, default=1000)
    sub.add_argument("--margin", type=float, default=0.0001)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--confirm", action="store_true", help="recheck near-margin cells at high precision")
    sub.add_argument("--slack-csv", help="dump per-cell slacks to this CSV path")
    _add_output(sub)
    sub.set_defaults(func=_cmd_certify_pair)

    sub = subs.add_parser("certify-expansion", help="grid-certify the expansion inequality")
    sub.add_argument("--delta", type=float, default=0.325)
    sub.add_argument("--boost", type=float, default=0.18)
    sub.add_argument("--d", type=str, default="5.325")
    sub.add_argument("--c1", type=str, default="0.2301")
    sub.add_argument("--c3", type=str, default="0.3322")
    sub.add_argument("--x-min", type=float, default=0.21)
    sub.add_argument("--x-max", type=float, default=0.48)
    sub.add_argument("--grid", type=int, default=1000)
    sub.add_argument("--margin", type=float, default=0.0001)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--confirm", action="store_true", help="recheck near-margin cells at high precision")
    sub.add_argument("--slack-csv", help="dump per-cell slacks to this CSV path")
    _add_output(sub)
    sub.set_defaults(func=_cmd_certify_expansion)

    sub = subs.add_parser("check-conditions", help="evaluate the profile side conditions")
    sub.add_argument("--d", type=str, default="5.325")
    sub.add_argument("--delta", type=str, default="0.325")
    sub.add_argument("--c1", type=str, default="0.2301")
    sub.add_argument("--c3", type=str, default="0.3322")
    sub.add_argument("--gamma", type=str, default="1")
    sub.add_argument("--eps1", type=str, default="0.3")
    _add_output(sub)
    sub.set_defaults(func=_cmd_check_conditions)

    sub = subs.add_parser("sample-expander", help="sample the random bipartite graph")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, default=5)
    sub.add_argument("--delta", type=str, default="0.325")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--disjoint", action="store_true", help="draw collision-free permutations")
    sub.add_argument("--output", help="write the graph text here (default: stdout)")
    sub.add_argument("--dot", help="also write a DOT rendering to this path")
    sub.set_defaults(func=_cmd_sample_expander)

    sub = subs.add_parser("check-expansion", help="exhaustively check expansion for small sizes")
    sub.add_argument("--graph", help="graph text file (default: sample one)")
    sub.add_argument("--n", type=int, default=20)
    sub.add_argument("--d", type=int, default=5)
    sub.add_argument("--delta", type=str, default="0.325")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--disjoint", action="store_true")
    sub.add_argument("--k-max", type=int, default=5)
    sub.add_argument("--budget", type=int, default=randgraph.DEFAULT_BUDGET)
    sub.add_argument("--profile", help="profile text file (default: density-25.3 profile)")
    sub.add_argument("--pairs", action="store_true", help="also check pair-expansion")
    sub.add_argument("--gamma", type=str, default="1")
    sub.add_argument("--alpha-max", type=str, default="0.3322")
    _add_output(sub)
    sub.set_defaults(func=_cmd_check_expansion)

    sub = subs.add_parser("build-sc", help="build the recursive superconcentrator")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--base", type=int, default=20)
    sub.add_argument("--d", type=int, default=5)
    sub.add_argument("--delta", type=str, default="0.325")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--retries", type=int, default=8)
    sub.add_argument("--check-k-max", type=int, default=2)
    sub.add_argument("--budget", type=int, default=200_000)
    sub.add_argument(
        "--expander",
        choices=["random", "complete"],
        default="random",
        help="expander source per level (complete bipartite is for testing)",
    )
    sub.add_argument("--dot", help="write a DOT rendering to this path")
    sub.add_argument("--output", help="write the graph JSON to this path (input of verify-sc)")
    sub.add_argument("--report", help="write the build manifest report to this path")
    sub.add_argument("--print-json", action="store_true", help="print the manifest to stdout")
    sub.set_defaults(func=_cmd_build_sc)

    sub = subs.add_parser("verify-sc", help="verify the superconcentrator property by flows")
    sub.add_argument("--graph", required=True, help="graph JSON written by build-sc --output")
    sub.add_argument("--mode", choices=["exhaustive", "sampled"], default="sampled")
    sub.add_argument("--trials", type=int, default=500)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=randgraph.DEFAULT_BUDGET)
    _add_output(sub)
    sub.set_defaults(func=_cmd_verify_sc)

    sub = subs.add_parser("prob-bound", help="union bound on an expansion failure probability")
    sub.add_argument("--kind", choices=["pair", "expansion"], required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, default=5)
    sub.add_argument("--delta", type=str, default="0.325")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    _add_output(sub)
    sub.set_defaults(func=_cmd_prob_bound)

    sub = subs.add_parser("exact-plr", help="exact small-neighborhood probability")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--ell", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--pk-mode", choices=["containment", "avoidance"], default="containment")
    _add_output(sub)
    sub.set_defaults(func=_cmd_exact_plr)

    sub = subs.add_parser("mc-plr", help="Monte Carlo estimate of the same probability")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--ell", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--trials", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=0)
    _add_output(sub)
    sub.set_defaults(func=_cmd_mc_plr)

    sub = subs.add_parser("stirling-scan", help="entropy-vs-log-binomial gap scan")
    sub.add_argument("--n", type=int, nargs="+", default=[128, 512, 2048])
    _add_output(sub)
    sub.set_defaults(func=_cmd_stirling_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except randgraph.EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except construction.BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
