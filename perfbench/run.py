"""Benchmark of the superconc toolkit.

Run from the root of a checkout; the package is imported from ``src/``, so
nothing needs installing::

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload build-verify --seed 3 --seconds 25 --trace 1

Workloads are described in ``perfbench/workloads.py``.  A run sets the
workload up, then repeats untraced passes while the next one is expected to
end within ``--seconds`` (always at least one), and reports medians over the
passes.  Every output is checked; an operation whose check fails or that
raises counts into ``failed``.

End-to-end metrics (``--trace 0``), reported on every workload:

- ``setup_s``: imports plus input generation, the median of SETUP_SAMPLES
  set-ups (this process plus fresh child processes);
- ``wall_s``: the timed library calls (or commands) of one pass;
- ``peak_rss_mb``: peak resident memory of this process after the untraced
  passes, or of its largest child when that is larger (cli-cold).

With ``--trace 1`` the run also makes one traced pass that wraps the library
functions listed in ``perfbench/tracing.py`` and reports the per-layer
metrics of ``layer_metrics``, plus the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, the
workload's own figures and any failed operation.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import NULL, Tracer, instrument
from workloads import WORKLOADS, PassResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
IMPORTS = ("superconc", "scipy", "scipy.special", "mpmath", "numpy")
CLI_SUBCOMMANDS = (
    "exact-plr",
    "prob-bound",
    "check-conditions",
    "stirling-scan",
    "check-expansion",
    "sample-expander",
    "mc-plr",
)
# Units of the workloads' own figures (each workload's ``summary``).  They are
# printed by every run and reported in the traced run of every workload; a
# workload without that stage reports 0.
STAGE_METRICS = {
    "build_s": "s",
    "verify_s": "s",
    "flow_queries_per_s": "1/s",
    "cells_per_s": "1/s",
    "probe_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p75_ms": "ms",
}
CHILD_TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _last_json_line(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _run_child(argv: list, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        **kwargs,
    )


def environment(seed: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def child_setup_samples(args, count: int) -> list:
    """Set-up times of ``count`` fresh processes running ``--setup-only``."""
    samples = []
    for _ in range(count):
        proc = _run_child(
            [os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--setup-only"]
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        samples.append(_last_json_line(proc.stdout)["setup_s"])
    return samples


def import_breakdown() -> dict:
    """Cumulative import ms of IMPORTS, the median over IMPORT_SAMPLES runs of
    ``python -X importtime -c "import superconc.cli"``."""
    samples: dict = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        proc = _run_child(["-X", "importtime", "-c", "import superconc.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr[-500:]}")
        seen = set()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in samples and name not in seen and parts[1].strip().isdigit():
                seen.add(name)
                samples[name].append(int(parts[1]) / 1000.0)
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest waited-for child
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def safe_pass(workload, inputs, tracer):
    try:
        return workload.run_pass(inputs, tracer)
    except Exception:
        res = PassResult()
        res.crashed(f"{workload.name} pass")
        return res


def safe_summary(workload, passes) -> dict:
    try:
        return workload.summary(passes)
    except (ArithmeticError, KeyError, statistics.StatisticsError):
        return {}  # no pass produced the figures; the failed operations say why


def layer_metrics(tracer, summary, imports, overhead_s) -> dict:
    """Per-layer metrics of one traced pass, keyed by name: (value, unit)."""
    totals = tracer.totals()
    counters = tracer.counters

    def total(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    queries = counters.get("construction.flow_queries", 0)
    verify_s = total("construction.verify")
    out = {
        "randgraph.sample_g.calls": (total("randgraph.sample_g", "calls"), "count"),
        "randgraph.sample_g.s": (total("randgraph.sample_g"), "s"),
        "randgraph.check_profile.s": (total("randgraph.check_profile"), "s"),
        "randgraph.check_profile.sizes": (counters.get("randgraph.check_profile.sizes", 0), "count"),
        "randgraph.adjacency.calls": (total("randgraph.adjacency", "calls"), "count"),
        "randgraph.adjacency.s": (total("randgraph.adjacency"), "s"),
        "randgraph.descent.s": (total("randgraph.descent"), "s"),
        "randgraph.exhaustive.s": (total("randgraph.exhaustive"), "s"),
        "construction.build_gamma.s": (total("construction.build_gamma"), "s"),
        # build_gamma minus the sampling and acceptance-check spans, which in
        # a traced pass only occur inside it; the adjacency decode stays in
        "construction.assemble_self.s": (
            total("construction.build_gamma") - total("randgraph.sample_g") - total("randgraph.check_profile"),
            "s",
        ),
        "construction.json.s": (total("construction.json"), "s"),
        "construction.verify.s": (verify_s, "s"),
        "construction.flow_queries": (queries, "count"),
        # mean per query, solver set-up included
        "construction.flow_query.ms": (1000.0 * verify_s / queries if queries else 0.0, "ms"),
        "certifier.pair.s": (total("certifier.pair"), "s"),
        "certifier.expansion.s": (total("certifier.expansion"), "s"),
        "certifier.self.s": (total("certifier.pair", "self_s") + total("certifier.expansion", "self_s"), "s"),
        "certifier.corners": (counters.get("certifier.corners", 0), "count"),
        "certifier.recheck_cells": (counters.get("certifier.recheck_cells", 0), "count"),
        "entropy.chord.calls": (total("entropy.chord", "calls"), "count"),
        "entropy.chord.s": (total("entropy.chord"), "s"),
        "entropy.tangent.calls": (total("entropy.tangent", "calls"), "count"),
        "entropy.tangent.s": (total("entropy.tangent"), "s"),
        "probability.montecarlo.s": (total("probability.montecarlo"), "s"),
        "probability.exact.s": (total("probability.exact"), "s"),
    }
    for name in IMPORTS:
        out[f"import.{name}.ms"] = (imports.get(name, 0.0), "ms")
    for sub in CLI_SUBCOMMANDS:
        each = totals.get(f"cli.{sub}", {}).get("each_s", [])
        out[f"cli.{sub}.ms"] = (1000.0 * statistics.median(each) if each else 0.0, "ms")
    for name, unit in STAGE_METRICS.items():
        out[name] = (summary.get(name, 0.0), unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    t0 = perf_counter()
    try:
        inputs = workload.setup(args.seed, args.size)
    except ImportError as exc:
        _fail(f"cannot import the package from {SRC}: {exc}")
    own_setup = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(safe_pass(workload, inputs, NULL))
        last = perf_counter() - t0
        if perf_counter() - start + last > args.seconds:
            break
    rss = peak_rss_mb()
    wall = statistics.median(p.wall for p in passes)
    summary = safe_summary(workload, passes)

    traced = None
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = safe_pass(workload, inputs, tracer)

    setups = [own_setup] + child_setup_samples(args, SETUP_SAMPLES - 1)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics = end_to_end
    if traced is not None:
        metrics = layer_metrics(tracer, summary, import_breakdown(), traced.wall - wall)

    all_passes = passes + ([traced] if traced is not None else [])
    ops = [op for p in all_passes for op in p.ops]
    failed = [op for op in ops if not op[1]]
    env = environment(args.seed)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload {workload.name} size={args.size} seed={args.seed} passes={len(passes)} "
        f"(medians over passes; setup_s over {len(setups)} set-ups)"
    )
    shown = {**end_to_end, **{name: (v, STAGE_METRICS[name]) for name, v in summary.items()}}
    for name, (value, unit) in shown.items():
        print(f"  {name:<20} {value:>14.6g} {unit}")
    print(f"  {'ops_failed':<20} {len(failed):>14d} count, of {len(ops)} ops_attempted")
    if traced is not None:
        for name, (value, unit) in metrics.items():
            print(f"  layer {name:<32} {value:>14.6g} {unit}")
        for line in tracer.labelled():
            print(f"  span {line}")
        if tracer.missing_targets:
            print("  not traced (missing in the package): " + ", ".join(tracer.missing_targets))
    for op, _, detail in failed[:20]:
        print(f"FAILED {op}: {detail}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples_s": setups,
        "passes": [{"wall_s": p.wall, "ops": len(p.ops)} for p in passes],
        "summary": summary,
        "failed_ops": failed,
        "result": result,
    }
    if traced is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Run every workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = _last_json_line(proc.stdout)
        except json.JSONDecodeError:
            result = None
        if proc.returncode != 0 or not result:
            status = 1
            merged["correct"] = False
        if not result:
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superconc", "__init__.py")):
        _fail(f"no superconc package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
