"""The benchmark workloads.

Each workload turns the workload seed into inputs (``setup``), runs passes
over them (``run_pass``) and reduces the passes to its own figures
(``summary``, named in ``run.STAGE_METRICS``).  A pass times only the
library calls, checks every output outside the timed intervals, and records
each check as an operation.  The library receives only the generated inputs.  ``SIZES`` holds
the full size the benchmark measures and a ``smoke`` size that exercises the
same code in a few seconds.

Why each workload exists:

- build-verify sends permutation sampling, acceptance checks, DAG assembly,
  JSON round-trips and flow queries through the build-sc -> verify-sc
  pipeline; assembly dominates today, and the verify half keeps the flow
  cost visible once assembly shrinks.
- certify runs only the numpy certifier kernel and the entropy envelopes,
  with no graphs; it is deterministic, so the seed is recorded but unused.
- probe runs the subset kernels of randgraph and the probability oracles,
  which build-verify barely touches because acceptance stops at k <= 2.
- cli-cold runs fresh ``python -m superconc.cli`` processes one at a time
  (a closed loop with one client), so the package import every command pays
  shows here and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter


@dataclass
class PassResult:
    wall: float = 0.0  # seconds spent inside timed library calls or commands
    stages: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)  # (operation, ok, detail)

    def check(self, op: str, ok: bool, detail: str = "") -> None:
        self.ops.append((op, bool(ok), "" if ok else detail))

    def crashed(self, op: str) -> None:
        self.ops.append((op, False, traceback.format_exc(limit=3)))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so the stream is stable across processes
    return random.Random(f"{workload}:{seed}")


def _seed63(rng: random.Random) -> int:
    return rng.getrandbits(63)


# Build parameters shared with the density-25.3 defaults of build-sc.
BASE, D, DELTA = 20, 5, Fraction(13, 40)


def expected_edges(n: int) -> int:
    """Edge count of build_gamma(n): 2*(d*m + floor(delta*m)) + 2m per
    expander level m, plus base^2 for the complete bipartite base block."""
    total = 0
    m = n
    while m > BASE:
        total += 2 * (D * m + math.floor(DELTA * m)) + 2 * m
        m //= 2
    return total + m * m


def _checked_sizes(level_records) -> int:
    """Subset sizes the build's acceptance checks covered, over all levels."""
    total = 0
    for rec in level_records:
        for side in ("lambda_x", "lambda_y"):
            checks = rec.get(side, {}).get("checks", {})
            for report in checks.values():
                total += len(report.get("checked_sizes", ()))
    return total


class BuildVerify:
    name = "build-verify"
    SIZES = {
        "full": {"ladder": (320, 640, 1280), "trials": 200},
        "smoke": {"ladder": (40, 80), "trials": 20},
    }

    def setup(self, seed: int, size: str) -> dict:
        from superconc import construction

        params = self.SIZES[size]
        rng = _rng(self.name, seed)
        jobs = [(n, _seed63(rng), _seed63(rng)) for n in params["ladder"]]
        return {"construction": construction, "jobs": jobs, "trials": params["trials"]}

    def run_pass(self, inp: dict, tr) -> PassResult:
        construction = inp["construction"]
        trials = inp["trials"]
        res = PassResult()
        build_s = verify_s = 0.0
        queries = 0
        for n, build_seed, verify_seed in inp["jobs"]:
            try:
                cfg = construction.BuildConfig(base_size=BASE, d=D, delta=DELTA, seed=build_seed)
                t0 = perf_counter()
                with tr.span("construction.build_gamma", n=n):
                    dag = construction.build_gamma(n, cfg)
                with tr.span("construction.json"):
                    text = dag.to_json()
                t1 = perf_counter()
                with tr.span("construction.json"):
                    back = construction.SuperDag.from_json(text)
                with tr.span("construction.verify", n=n):
                    report = construction.verify_superconcentrator(
                        back, mode="sampled", trials=trials, seed=verify_seed
                    )
                t2 = perf_counter()
            except Exception:
                res.crashed(f"build-verify n={n}")
                continue
            build_s += t1 - t0
            verify_s += t2 - t1
            queries += report.pairs_checked
            want = expected_edges(n)
            res.check(f"edges n={n}", dag.edge_count() == want, f"{dag.edge_count()} != {want}")
            res.check(f"json n={n}", back.edges == dag.edges, "round trip changed the edges")
            res.check(
                f"verify n={n}",
                report.passed and report.pairs_checked == trials,
                f"passed={report.passed} pairs={report.pairs_checked}",
            )
            tr.count("randgraph.check_profile.sizes", _checked_sizes(dag.level_records))
            tr.count("construction.flow_queries", report.pairs_checked)
        res.wall = build_s + verify_s
        res.stages = {"build_s": build_s, "verify_s": verify_s, "flow_queries": queries}
        return res

    @staticmethod
    def summary(passes) -> dict:
        return {
            "build_s": statistics.median(p.stages["build_s"] for p in passes),
            "verify_s": statistics.median(p.stages["verify_s"] for p in passes),
            "flow_queries_per_s": statistics.median(
                p.stages["flow_queries"] / p.stages["verify_s"] for p in passes
            ),
        }


class Certify:
    name = "certify"
    SIZES = {"full": {"grid": 2000}, "smoke": {"grid": 40}}
    # Minimum slacks of the stock certificates when this benchmark was
    # written, per grid.  A rigorous-rounding refactor may
    # move them by far less than SLACK_TOL; a broken formula moves them more.
    REFERENCE_MIN_SLACK = {
        2000: {"pair": 0.0016281484823325472, "expansion": 0.006835312231822968},
        40: {"pair": 0.001184416421563349, "expansion": 0.006584539751420561},
    }
    SLACK_TOL = 1e-6

    def setup(self, seed: int, size: str) -> dict:
        import inspect

        from superconc import certifier

        grid = self.SIZES[size]["grid"]
        calls = []
        for lemma, fn in (
            ("pair", certifier.certify_pair_inequality),
            ("expansion", certifier.certify_expansion_inequality),
        ):
            kwargs = {"grid_n": grid, "confirm": True}
            if "threads" in inspect.signature(fn).parameters:
                kwargs["threads"] = 1
            calls.append((lemma, fn, kwargs))
        return {"grid": grid, "calls": calls}

    def run_pass(self, inp: dict, tr) -> PassResult:
        grid = inp["grid"]
        res = PassResult()
        cells = 0
        for lemma, fn, kwargs in inp["calls"]:
            try:
                t0 = perf_counter()
                with tr.span(f"certifier.{lemma}"):
                    report = fn(**kwargs)
                res.wall += perf_counter() - t0
            except Exception:
                res.crashed(f"certify {lemma}")
                continue
            want_cells = grid * grid * (4 if lemma == "expansion" else 1)
            ref = self.REFERENCE_MIN_SLACK.get(grid, {}).get(lemma)
            res.check(f"{lemma} pass", report.passed, "certificate failed")
            res.check(
                f"{lemma} cells",
                report.cells_checked == want_cells,
                f"{report.cells_checked} != {want_cells}",
            )
            res.check(
                f"{lemma} min slack",
                ref is not None and abs(report.min_slack - ref) <= self.SLACK_TOL,
                f"{report.min_slack!r} vs reference {ref!r}",
            )
            cells += report.cells_checked
            tr.count("certifier.corners", report.corners_evaluated)
            recheck = report.recheck or {}
            tr.count("certifier.recheck_cells", recheck.get("cells", 0))
        res.stages = {"cells": cells}
        return res

    @staticmethod
    def summary(passes) -> dict:
        return {"cells_per_s": statistics.median(p.stages["cells"] / p.wall for p in passes)}


class Probe:
    name = "probe"
    SIZES = {
        "full": {
            "descent_n": (640, 1280),
            "overlay_n": 48,
            "overlay_k": 8,
            "mc_trials": 20_000,
            "exact_n": 200,
            "exact_ell": (10, 20, 30, 40, 50, 60),
        },
        "smoke": {
            "descent_n": (80, 160),
            "overlay_n": 24,
            "overlay_k": 4,
            "mc_trials": 2_000,
            "exact_n": 60,
            "exact_ell": (5, 10),
        },
    }
    MC = (40, 8, 20, 5)  # (n, ell, r, d) of montecarlo_plr

    def setup(self, seed: int, size: str) -> dict:
        from superconc import probability, profiles, randgraph

        params = self.SIZES[size]
        rng = _rng(self.name, seed)
        consts = profiles.density253_constants()
        descents = []
        for n in params["descent_n"]:
            g = randgraph.sample_g(n, D, DELTA, _seed63(rng), disjoint=True)
            for c in (consts.c1, consts.c3):
                descents.append((g, math.floor(c * n), _seed63(rng)))
        overlay = randgraph.sample_g(params["overlay_n"], D, DELTA, _seed63(rng))
        n = params["exact_n"]
        return {
            "randgraph": randgraph,
            "probability": probability,
            "descents": descents,
            "overlay": overlay,
            "overlay_k": params["overlay_k"],
            "budget": math.comb(params["overlay_n"], params["overlay_k"]),
            "mc_trials": params["mc_trials"],
            "mc_seed": _seed63(rng),
            "exact_n": n,
            # (ell, r) rows of exact_plr and (k, m) rows of the union bounds,
            # all inside the exact-rational regime
            "plr_rows": [(ell, min(3 * ell, n - 1)) for ell in params["exact_ell"]],
            "bound_rows": [(k, math.ceil(Fraction(19, 10) * k), k) for k in params["exact_ell"]],
        }

    def run_pass(self, inp: dict, tr) -> PassResult:
        rg = inp["randgraph"]
        prob = inp["probability"]
        res = PassResult()

        for g, k, seed in inp["descents"]:
            op = f"descent n={g.n} k={k}"
            try:
                t0 = perf_counter()
                with tr.span("randgraph.descent"):
                    value, witness = rg.sampled_min_expansion(g, k, 1, seed)
                res.wall += perf_counter() - t0
            except Exception:
                res.crashed(op)
                continue
            got = len(rg.neighborhood(g, witness))
            res.check(op, len(witness) == k and got == value, f"|S|={len(witness)} |N(S)|={got} reported {value}")

        g = inp["overlay"]
        for k in range(1, inp["overlay_k"] + 1):
            for kind, fn, recount in (
                ("expansion", rg.min_expansion, lambda w: len(rg.neighborhood(g, w))),
                ("pair", rg.min_pair_expansion, lambda w: rg.pair_count(g, w)),
            ):
                op = f"exhaustive {kind} n={g.n} k={k}"
                try:
                    t0 = perf_counter()
                    with tr.span("randgraph.exhaustive"):
                        value, witness = fn(g, k, inp["budget"])
                    res.wall += perf_counter() - t0
                except Exception:
                    res.crashed(op)
                    continue
                got = recount(witness)
                res.check(op, len(witness) == k and got == value, f"|S|={len(witness)} recount {got} reported {value}")

        n_mc, ell, r, d = self.MC
        trials = inp["mc_trials"]
        try:
            t0 = perf_counter()
            with tr.span("probability.montecarlo"):
                est, _ = prob.montecarlo_plr(n_mc, ell, r, d, trials, inp["mc_seed"])
            res.wall += perf_counter() - t0
            exact = float(prob.exact_plr(n_mc, ell, r, d))
            # the stderr of the true value, so a run with zero hits is judged fairly
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            res.check("montecarlo", abs(est - exact) <= 5 * sigma, f"estimate {est} vs exact {exact}")
        except Exception:
            res.crashed("montecarlo")

        n = inp["exact_n"]
        for ell, r in inp["plr_rows"]:
            op = f"exact_plr n={n} ell={ell} r={r}"
            try:
                t0 = perf_counter()
                with tr.span("probability.exact"):
                    exact = prob.exact_plr(n, ell, r, D)
                    bound = prob.bassalygo_bound(n, ell, r, D)
                res.wall += perf_counter() - t0
            except Exception:
                res.crashed(op)
                continue
            res.check(op, 0 <= exact <= bound, f"exact {float(exact)} bound {float(bound)}")
        for k, m_exp, m_pair in inp["bound_rows"]:
            for kind, fn, m in (
                ("expansion", prob.expansion_fail_bound, m_exp),
                ("pair", prob.pair_fail_bound, m_pair),
            ):
                op = f"{kind}_fail_bound n={n} k={k} m={m}"
                try:
                    t0 = perf_counter()
                    with tr.span("probability.exact"):
                        b = fn(n, D, DELTA, k, m, regime="exact")
                    res.wall += perf_counter() - t0
                except Exception:
                    res.crashed(op)
                    continue
                res.check(op, b.regime == "exact" and b.exact is not None and b.exact > 0, f"{b}")
        return res

    @staticmethod
    def summary(passes) -> dict:
        return {"probe_s": statistics.median(p.wall for p in passes)}


def _percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class CliCold:
    name = "cli-cold"
    SIZES = {"full": {"per_kind": 5}, "smoke": {"per_kind": 1}}
    TIMEOUT_S = 120

    @staticmethod
    def _commands(rng: random.Random, per_kind: int) -> list:
        def exact_plr():
            ell = rng.randint(10, 20)
            return ["exact-plr", "--n", "200", "--ell", str(ell), "--r", str(3 * ell), "--d", "5"]

        def bound_exact():
            k = rng.randint(10, 40)
            if rng.random() < 0.5:
                return ["prob-bound", "--kind", "expansion", "--n", "200", "--k", str(k), "--m", str(2 * k)]
            return ["prob-bound", "--kind", "pair", "--n", "200", "--k", str(k), "--m", str(k)]

        def bound_log():
            k = rng.randint(200, 600)
            return ["prob-bound", "--kind", "expansion", "--n", "4000", "--k", str(k), "--m", str(2 * k)]

        def seeded(*argv):
            return lambda: list(argv) + ["--seed", str(rng.randint(0, 10**6))]

        kinds = [
            exact_plr,
            bound_exact,
            bound_log,
            lambda: ["check-conditions"],
            lambda: ["stirling-scan"],
            seeded("check-expansion", "--n", "40", "--pairs"),
            seeded("sample-expander", "--n", "400"),
            seeded("mc-plr", "--n", "40", "--ell", "8", "--r", "20", "--d", "5", "--trials", "2000"),
        ]
        commands = [make() for make in kinds for _ in range(per_kind)]
        rng.shuffle(commands)
        return commands

    def setup(self, seed: int, size: str) -> dict:
        from superconc import cli

        src = os.path.abspath(os.path.dirname(os.path.dirname(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        commands = self._commands(_rng(self.name, seed), self.SIZES[size]["per_kind"])
        return {"cli": cli, "env": env, "commands": commands, "reference": {}}

    def _reference(self, inp: dict, argv: list):
        """Return code and stdout of the same command run in-process."""
        key = tuple(argv)
        if key not in inp["reference"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = inp["cli"].main(list(argv))
            inp["reference"][key] = (rc, out.getvalue())
        return inp["reference"][key]

    def run_pass(self, inp: dict, tr) -> PassResult:
        res = PassResult()
        latencies = []
        runs = []
        for argv in inp["commands"]:
            try:
                t0 = perf_counter()
                with tr.span(f"cli.{argv[0]}"):
                    proc = subprocess.run(
                        [sys.executable, "-m", "superconc.cli", *argv],
                        env=inp["env"],
                        capture_output=True,
                        text=True,
                        timeout=self.TIMEOUT_S,
                    )
                latencies.append(perf_counter() - t0)
            except Exception:
                res.crashed(" ".join(argv))
                continue
            runs.append((argv, proc))
        for argv, proc in runs:
            op = " ".join(argv)
            try:
                ref_rc, ref_out = self._reference(inp, argv)
            except Exception:
                res.crashed(op)
                continue
            res.check(
                op,
                proc.returncode == 0 and ref_rc == 0 and proc.stdout == ref_out,
                f"exit {proc.returncode} (in-process {ref_rc}); stderr {proc.stderr[-300:]!r}",
            )
        res.wall = sum(latencies)
        res.stages = {"latencies": latencies}
        return res

    @staticmethod
    def summary(passes) -> dict:
        lat = [t * 1000.0 for p in passes for t in p.stages["latencies"]]
        return {"cmd_p50_ms": _percentile(lat, 50), "cmd_p75_ms": _percentile(lat, 75)}


WORKLOADS = {w.name: w for w in (BuildVerify(), Certify(), Probe(), CliCold())}
