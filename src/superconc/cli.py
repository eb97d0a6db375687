"""Batch command-line interface.

Every subcommand resolves its parameters (defaults reproduce the density-25.3
checks), runs the corresponding library operation, prints a one-line summary,
and can write a JSON report that echoes the resolved configuration.  Exit
codes: 0 when all checks passed, 1 when a check failed, 2 for usage or
configuration errors (including exceeded enumeration budgets).
"""

import argparse
import json
import math
import sys
from pathlib import Path

# Each command imports the package modules it runs, so that a cold start
# loads only those: certifier loads numpy, and a flow query numpy and scipy.

_USAGE_ERROR = 2
_CHECK_FAILED = 1


def _finite_or_null(value):
    """JSON has no infinities or NaN: write them as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _write_report(args, payload: dict, path) -> None:
    """Write payload and the resolved configuration as JSON to path, or to
    stdout under --print-json."""
    if not path and not args.print_json:
        return  # nothing asks for the JSON text, so it is not built
    config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    payload = _finite_or_null(dict(payload, config=config))
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(args, payload: dict, passed: bool, summary: str, rows=()) -> int:
    """Write the report, print the rows and the PASS/FAIL status line, and
    return the exit code."""
    _write_report(args, payload, args.output)
    for row in rows:
        print(row)
    print(f"{args.command} {'PASS' if passed else 'FAIL'}{summary}")
    return 0 if passed else _CHECK_FAILED


def _certified(args, report) -> int:
    """The tail of the two certify commands."""
    summary = f": min slack {report.min_slack:.8f} (margin {report.margin})"
    summary += f" over {report.cells_checked} cells"
    return _finish(args, report.to_json_dict(), report.passed, summary)


def _cmd_certify_pair(args) -> int:
    from . import certifier

    report = certifier.certify_pair_inequality(
        delta=args.delta, p=args.p, x_range=(args.x_min, args.x_max), grid_n=args.grid,
        margin=args.margin, confirm=args.confirm, slack_csv=args.slack_csv,
    )
    return _certified(args, report)


def _cmd_certify_expansion(args) -> int:
    from . import certifier, profiles

    constants = profiles.ProfileConstants.from_c1_c3(args.c1, args.c3, d=args.d, delta=args.delta)
    c1, c3, c5 = float(constants.c1), float(constants.c3), float(constants.c5)
    report = certifier.certify_expansion_inequality(
        delta=float(args.delta), boost=args.boost, constants=constants,
        x_intervals=[(args.x_min, c1), (c1, c3), (c3, c5), (c5, args.x_max)],
        grid_n=args.grid, margin=args.margin, confirm=args.confirm, slack_csv=args.slack_csv,
    )
    return _certified(args, report)


def _cmd_check_conditions(args) -> int:
    from . import profiles

    constants = profiles.ProfileConstants.from_c1_c3(args.c1, args.c3, d=args.d, delta=args.delta)
    report = profiles.check_conditions(constants, gamma=args.gamma, eps1=args.eps1)
    rows = [f"  [{'ok ' if c.passed else 'BAD'}] {c.name:<22} slack {c.slack:+.9f}  {c.detail}"
            for c in report.checks]
    return _finish(args, report.as_dict(), report.all_pass, f": {len(rows)} conditions", rows)


def _cmd_sample_expander(args) -> int:
    from . import randgraph

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


def _cmd_check_expansion(args) -> int:
    from . import profiles, randgraph

    if args.k_max < 1:
        raise ValueError(f"--k-max must be >= 1, got {args.k_max}")
    if args.graph:
        g = randgraph.graph_from_text(Path(args.graph).read_text())
    else:
        g = randgraph.sample_g(args.n, args.d, args.delta, args.seed, disjoint=args.disjoint)
    if args.k_max > g.n:
        raise ValueError(f"--k-max must be <= the graph's n = {g.n}, got {args.k_max}")
    if args.profile:
        profile = profiles.PiecewiseLinear.from_text(Path(args.profile).read_text())
    else:
        profile = profiles.expansion_profile(profiles.density253_constants())
    reports = [randgraph.check_expander_profile(g, profile, args.k_max, args.budget)]
    if args.pairs:
        reports.append(randgraph.check_pair_profile(g, args.gamma, args.alpha_max, args.budget))
    payload = {rep.kind: rep.as_dict() for rep in reports}
    flags = "" if all(rep.complete for rep in reports) else " (partial: budget hit)"
    summary = f": n={g.n} k<={args.k_max}{flags}"
    return _finish(args, payload, all(rep.passed for rep in reports), summary)


def _cmd_build_sc(args) -> int:
    from . import construction, profiles, randgraph

    expanders = None
    if args.expander == "complete":
        # the level sizes n, n/2, ... above the base; build_gamma rejects a bad n or base
        halvings = (args.n >> t for t in range(args.n.bit_length()))
        expanders = {m: randgraph.complete_bipartite(m) for m in halvings if m > args.base}
    cfg = construction.BuildConfig(
        base_size=args.base, d=args.d, delta=profiles.as_fraction(args.delta), seed=args.seed,
        retry_limit=args.retries, check_k_max=args.check_k_max, check_budget=args.budget,
        expanders=expanders,
    )
    try:
        dag = construction.build_gamma(args.n, cfg)
    except construction.BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    if args.output:
        Path(args.output).write_text(dag.to_json() + "\n")
    if args.dot:
        Path(args.dot).write_text(dag.to_dot())
    manifest = dag.manifest()
    _write_report(args, {"manifest": manifest}, args.report)
    per_level = ", ".join(str(r["edges_added"]) for r in manifest["levels"])
    print(f"build-sc: n={args.n} edges={manifest['edge_count']} "
          f"density={manifest['density']:.4f} per-level [{per_level}]")
    return 0


def _cmd_verify_sc(args) -> int:
    from . import construction

    dag = construction.SuperDag.from_json(Path(args.graph).read_text())
    report = construction.verify_superconcentrator(
        dag, mode=args.mode, trials=args.trials, seed=args.seed, budget=args.budget
    )
    summary = f": mode={report.mode} pairs={report.pairs_checked}"
    rc = _finish(args, report.as_dict(), report.passed, summary)
    if report.counterexample is not None:
        k, S, T, got = report.counterexample
        print(f"  counterexample: k={k} S={list(S)} T={list(T)} achieved={got}")
    return rc


def _cmd_prob_bound(args) -> int:
    from . import probability

    fn = probability.pair_fail_bound if args.kind == "pair" else probability.expansion_fail_bound
    bound = fn(args.n, args.d, args.delta, args.k, args.m)
    exact = None if bound.exact is None else f"{bound.exact.numerator}/{bound.exact.denominator}"
    payload = {"kind": args.kind, "log_value": bound.log_value, "regime": bound.regime, "exact": exact}
    _write_report(args, payload, args.output)
    print(f"prob-bound {args.kind}: log={bound.log_value:.6f} value={bound.value:.6g} {exact or ''}")
    return 0


def _cmd_exact_plr(args) -> int:
    from . import probability

    value = probability.exact_plr(args.n, args.ell, args.r, args.d)
    exact = f"{value.numerator}/{value.denominator}"
    _write_report(args, {"exact": exact, "float": float(value)}, args.output)
    print(exact)
    return 0


def _cmd_mc_plr(args) -> int:
    from . import probability

    est, stderr = probability.montecarlo_plr(args.n, args.ell, args.r, args.d, args.trials, args.seed)
    _write_report(args, {"estimate": est, "stderr": stderr, "trials": args.trials}, args.output)
    print(f"{est:.6f} {stderr:.6f}")
    return 0


def _cmd_stirling_scan(args) -> int:
    from .entropy import stirling_gap

    # the threshold 2 ln(n)/n is 0 at n = 1, so no gap could pass there
    if min(args.n) < 2:
        raise ValueError(f"--n must be >= 2, got {min(args.n)}")
    results = []
    for n in args.n:
        worst = max(stirling_gap(n, k) for k in range(n + 1))
        threshold = 2.0 * math.log(n) / n
        good = worst < threshold
        results.append({"n": n, "max_gap": worst, "threshold": threshold, "passed": good})
        print(f"  [{'ok ' if good else 'BAD'}] n={n:<6} max gap {worst:.6f} < {threshold:.6f}")
    return _finish(args, {"results": results}, all(r["passed"] for r in results), "")


def _command(subs, name, func, help, output="write a JSON report to this path",
             print_json="print the JSON report to stdout"):
    """Add a subcommand with its function, --output and (unless None) --print-json."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(func=func)
    sub.add_argument("--output", help=output)
    if print_json:
        sub.add_argument("--print-json", action="store_true", help=print_json)
    return sub


def _certify_options(sub, x_min: float, x_max: float) -> None:
    """The pinned-edge fraction --delta and the grid certificate's options."""
    sub.add_argument("--delta", type=float, default=0.325)
    sub.add_argument("--x-min", type=float, default=x_min)
    sub.add_argument("--x-max", type=float, default=x_max)
    sub.add_argument("--grid", type=int, default=1000)
    sub.add_argument("--margin", type=float, default=0.0001)
    sub.add_argument("--confirm", action="store_true", help="enclose the slack of each "
                     "x-interval's lowest leaf in 113-bit interval arithmetic")
    sub.add_argument("--slack-csv", help="write one row per leaf "
                     "(interval,i0,i1,j0,j1,slack,bound) to this CSV path")


def _anchor_options(sub) -> None:
    """The average degree and the profile anchors c1, c3, read exactly."""
    sub.add_argument("--d", type=str, default="5.325")
    sub.add_argument("--c1", type=str, default="0.2301")
    sub.add_argument("--c3", type=str, default="0.3322")


def _model_options(sub, **n) -> None:
    """The random graph's size, whole-number degree and pinned-edge fraction;
    n gives --n its default or makes it required."""
    sub.add_argument("--n", type=int, **n)
    sub.add_argument("--d", type=int, default=5)
    sub.add_argument("--delta", type=str, default="0.325")


def _seed_options(sub, budget=None, disjoint=False) -> None:
    """--seed, and --budget and --disjoint for the commands that take them."""
    sub.add_argument("--seed", type=int, default=0)
    if disjoint:
        sub.add_argument("--disjoint", action="store_true", help="draw collision-free permutations")
    if budget is not None:
        sub.add_argument("--budget", type=int, default=budget)


def _plr_options(sub) -> None:
    """n, ell, r and d of the small-neighborhood probability."""
    for flag in ("--n", "--ell", "--r", "--d"):
        sub.add_argument(flag, type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    from . import DEFAULT_BUDGET

    parser = argparse.ArgumentParser(
        prog="superconc",
        description="Superconcentrator toolkit: sampling, construction, "
        "verification, probabilities and certified inequalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = _command(subs, "certify-pair", _cmd_certify_pair,
                   "grid-certify the pair-expansion inequality")
    _certify_options(sub, 0.3, 0.3322)
    sub.add_argument("--p", type=float, default=0.45)

    sub = _command(subs, "certify-expansion", _cmd_certify_expansion,
                   "grid-certify the expansion inequality")
    _certify_options(sub, 0.21, 0.48)
    sub.add_argument("--boost", type=float, default=0.18)
    _anchor_options(sub)

    sub = _command(subs, "check-conditions", _cmd_check_conditions,
                   "evaluate the profile side conditions")
    _anchor_options(sub)
    sub.add_argument("--delta", type=str, default="0.325")
    sub.add_argument("--gamma", type=str, default="1")
    sub.add_argument("--eps1", type=str, default="0.3")

    sub = _command(subs, "sample-expander", _cmd_sample_expander,
                   "sample the random bipartite graph",
                   output="write the graph text here (default: stdout)", print_json=None)
    _model_options(sub, required=True)
    _seed_options(sub, disjoint=True)
    sub.add_argument("--dot", help="also write a DOT rendering to this path")

    sub = _command(subs, "check-expansion", _cmd_check_expansion,
                   "exhaustively check expansion for small sizes")
    sub.add_argument("--graph", help="graph text file (default: sample one)")
    _model_options(sub, default=20)
    _seed_options(sub, DEFAULT_BUDGET, disjoint=True)
    sub.add_argument("--k-max", type=int, default=5)
    sub.add_argument("--profile", help="profile text file (default: density-25.3 profile)")
    sub.add_argument("--pairs", action="store_true", help="also check pair-expansion")
    sub.add_argument("--gamma", type=str, default="1")
    sub.add_argument("--alpha-max", type=str, default="0.3322")

    sub = _command(subs, "build-sc", _cmd_build_sc, "build the recursive superconcentrator",
                   output="write the graph JSON to this path (input of verify-sc)",
                   print_json="print the manifest to stdout")
    _model_options(sub, required=True)
    sub.add_argument("--base", type=int, default=20)
    _seed_options(sub, 200_000)
    sub.add_argument("--retries", type=int, default=8)
    sub.add_argument("--check-k-max", type=int, default=2)
    sub.add_argument("--expander", choices=["random", "complete"], default="random",
                     help="expander source per level (complete bipartite is for testing)")
    sub.add_argument("--dot", help="write a DOT rendering to this path")
    sub.add_argument("--report", help="write the build manifest report to this path")

    sub = _command(subs, "verify-sc", _cmd_verify_sc, "verify the superconcentrator property by flows")
    sub.add_argument("--graph", required=True, help="graph JSON written by build-sc --output")
    sub.add_argument("--mode", choices=["exhaustive", "sampled"], default="sampled")
    sub.add_argument("--trials", type=int, default=500)
    _seed_options(sub, DEFAULT_BUDGET)

    sub = _command(subs, "prob-bound", _cmd_prob_bound,
                   "union bound on an expansion failure probability")
    sub.add_argument("--kind", choices=["pair", "expansion"], required=True)
    _model_options(sub, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)

    _plr_options(_command(subs, "exact-plr", _cmd_exact_plr, "exact small-neighborhood probability"))

    sub = _command(subs, "mc-plr", _cmd_mc_plr, "Monte Carlo estimate of the same probability")
    _plr_options(sub)
    sub.add_argument("--trials", type=int, default=100_000)
    _seed_options(sub)

    sub = _command(subs, "stirling-scan", _cmd_stirling_scan, "entropy-vs-log-binomial gap scan")
    sub.add_argument("--n", type=int, nargs="+", default=[128, 512, 2048])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
