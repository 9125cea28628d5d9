"""Closed-loop benchmark harness for sgcorona.

One caller in one process sends each operation as soon as the previous
one has finished, cycling through the workload's size classes until
`--seconds` have passed (the last cycle is always completed, so every
run holds whole cycles).  Results are checked by the workload's oracles
after the timed window.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the same
window untraced, replays exactly the same operations with a span around
every public library call, and prints the per-layer metrics; the spans
are written to bench/out/.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
POOL_CYCLES = 8
MIN_SPAN_COVERAGE = 0.9

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


def _layer(group: str, *quantities: str) -> dict[str, tuple[str, str, str]]:
    """Per-layer metric name -> (key in tracing.aggregate, unit, better)."""
    units = {
        "busy_s": ("busy_s", "s", "lower"),
        "self_s": ("self_s", "s", "lower"),
        "calls": ("calls", "count", "higher"),
        "dim_sum": ("dim_sum", "count", "higher"),
        "dim_max": ("dim_max", "count", "lower"),
        "coeff_bits_max": ("coeff_bits_max", "bit", "lower"),
        "degree_sum": ("degree_sum", "count", "higher"),
        "roots": ("roots_sum", "count", "higher"),
        "pairs_found": ("pairs_found_sum", "count", "higher"),
        "vertices": ("vertices_sum", "count", "higher"),
        "edges": ("edges_sum", "count", "higher"),
        "triples": ("triples_sum", "count", "higher"),
        "bytes": ("bytes_sum", "bytes", "higher"),
    }
    out = {}
    for q in quantities:
        key, unit, better = units[q]
        out[f"{group}.{q}"] = (f"{group}.{key}", unit, better)
    return out


PER_LAYER = {
    **_layer("exactpoly.char_poly", "busy_s", "calls", "dim_sum", "dim_max", "coeff_bits_max"),
    **_layer("exactpoly.product_char_poly", "busy_s", "self_s", "calls", "degree_sum",
             "coeff_bits_max"),
    **_layer("exactpoly.coronal_pair", "busy_s", "calls"),
    **_layer("exactpoly.coronal", "busy_s", "self_s", "calls"),
    **_layer("exactpoly.graph_coronal", "busy_s", "calls"),
    **_layer("exactpoly.real_roots", "busy_s", "self_s", "calls", "roots"),
    **_layer("spectra.eigensolve", "busy_s", "self_s", "calls", "dim_sum"),
    **_layer("spectra.energy", "busy_s"),
    **_layer("spectra.corollary", "busy_s", "self_s", "calls"),
    **_layer("spectra.integrality", "busy_s", "self_s"),
    **_layer("spectra.equienergetic_search", "busy_s", "self_s", "pairs_found"),
    **_layer("spectra.equienergetic_product_pair", "busy_s", "self_s", "calls"),
    **_layer("products.add_vertex_corona", "busy_s", "vertices", "edges"),
    **_layer("products.switching_iso_witness", "busy_s", "self_s"),
    **_layer("structure.enumerate_triads", "busy_s", "triples"),
    **_layer("structure.edge_stats_formula", "busy_s"),
    **_layer("structure.triad_stats_formula", "busy_s"),
    **_layer("structure.unbalance_criteria", "busy_s"),
    **_layer("core.balance", "busy_s"),
    **_layer("core.regularity", "busy_s"),
    **_layer("cli.parse_graph", "busy_s", "bytes"),
    **_layer("cli.write_graph", "busy_s", "bytes"),
    "bench.check.busy_s": ("", "s", "lower"),
    "bench.op_wall_s": ("", "s", "lower"),
    "bench.ops": ("", "count", "higher"),
    "bench.unattributed_frac": ("", "fraction", "lower"),
    "bench.trace_overhead_frac": ("", "fraction", "lower"),
}


@dataclass
class Op:
    inp: object
    result: object
    error: str | None
    latency: float


def run_op(wl, inp) -> Op:
    start = perf_counter()
    try:
        result = wl.run(inp)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, f"raised {exc!r}"
    return Op(inp, result, error, perf_counter() - start)


def closed_loop(wl, pool: list[list], seconds: float) -> tuple[list[Op], float]:
    """The prelude, then whole cycles until `seconds` have passed after it.

    The cycles get their own `seconds` so that a prelude's duration does
    not change how many cycles fit in the window."""
    start = perf_counter()
    ops = [run_op(wl, inp) for inp in wl.prelude()]
    deadline = perf_counter() + seconds
    cycle = 0
    while True:
        ops.extend(run_op(wl, inp) for inp in pool[cycle % len(pool)])
        cycle += 1
        if perf_counter() >= deadline:
            break
    return ops, perf_counter() - start


def check_ops(wl, ops: list[Op]) -> list[tuple[int, str]]:
    failures = []
    for i, op in enumerate(ops):
        reason = op.error
        if reason is None:
            try:
                reason = wl.check(op.inp, op.result)
            except Exception as exc:  # an oracle crash is a failed check
                reason = f"oracle raised {exc!r}"
        if reason is not None:
            failures.append((i, reason))
    return failures


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args) -> dict:
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": pkg("networkx"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(name: str, seed: int, smoke: bool):
    """Build the workload, its input pool, and run one warm-up operation."""
    wl = WORKLOADS[name](seed, smoke)
    pool = [wl.make_cycle(i) for i in range(1 if smoke else POOL_CYCLES)]
    wl.run(wl.warmup_input())
    return wl, pool


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 import_s: float = 0.0) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl, pool = set_up(name, seed, smoke)
        setup_times.append(perf_counter() - start)
    ops, wall = closed_loop(wl, pool, seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run = {"workload": wl, "ops": ops, "wall": wall, "peak_rss_mib": peak_rss_mib,
           "setup_s": import_s + statistics.median(setup_times), "import_s": import_s}
    checked = ops
    if trace:
        tracer = tracing.Tracer()
        traced = []
        with tracing.installed(tracer):
            for i, op in enumerate(ops):
                tracer.op_id = i
                traced.append(run_op(wl, op.inp))
        run["tracer"], run["traced"] = tracer, traced
        checked = ops + traced
    start = perf_counter()
    failures = check_ops(wl, checked)
    run["check_s"] = perf_counter() - start
    run["failures"] = failures
    run["attempted"] = len(checked)
    return run


def end_to_end_metrics(run: dict) -> dict[str, float]:
    lat_ms = np.array([op.latency for op in run["ops"]]) * 1000.0
    return {
        "ops_per_s": len(run["ops"]) / run["wall"],
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_tail_ms": float(np.percentile(lat_ms, run["workload"].tail_pct)),
        "setup_s": run["setup_s"],
        "peak_rss_mib": run["peak_rss_mib"],
    }


def per_layer_metrics(run: dict) -> dict[str, float]:
    tracer = run["tracer"]
    agg = tracing.aggregate(tracer)
    out = {name: float(agg.get(key, 0.0)) for name, (key, _, _) in PER_LAYER.items() if key}
    op_wall = sum(op.latency for op in run["traced"])
    covered = sum(tracing.top_level_time(tracer).values())
    out["bench.check.busy_s"] = run["check_s"]
    out["bench.op_wall_s"] = op_wall
    out["bench.ops"] = float(len(run["traced"]))
    out["bench.unattributed_frac"] = 1.0 - covered / op_wall
    out["bench.trace_overhead_frac"] = op_wall / sum(op.latency for op in run["ops"]) - 1.0
    return out


def write_trace(run: dict, env: dict) -> Path:
    tracer = run["tracer"]
    t0 = tracer.start[0] if tracer.start else 0.0
    spans = tracer.spans()
    for s in spans:
        s["start"] -= t0
        s["end"] -= t0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{env['workload']}-seed{env['seed']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "op_latency_s": [op.latency for op in run["traced"]],
                   "spans": spans}, fh, separators=(",", ":"))
    return path


def report(run: dict, metrics: dict, units: dict, args) -> None:
    ops = run["ops"]
    wl = run["workload"]
    print(f"workload {wl.name}: seed {args.seed}, {len(ops)} operations in {run['wall']:.2f} s, "
          "closed loop, 1 caller")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            beyond = sum(1 for op in ops if op.latency * 1000.0 > value)
            note = f"  (p{wl.tail_pct:g}, {beyond} of {len(ops)} operations beyond)"
        elif name == "setup_s":
            note = f"  (import {run['import_s']:.3f} s + median of {SETUP_REPEATS} set-ups)"
        print(f"  {name:<42} {value:>14.6g} {units[name]}{note}")
    if not args.trace:
        if wl.name == "search":
            print(f"  {'search_s':<42} {ops[0].latency:>14.6g} s  (the single search call)")
        failed = len(run["failures"])
        print(f"  {'error_rate':<42} {failed / run['attempted']:>14.6g} 1  "
              f"({failed} of {run['attempted']} operations)")
    for i, reason in run["failures"][:20]:
        print(f"FAILED operation {i}: {reason}", file=sys.stderr)


def print_shares(metrics: dict) -> None:
    """Busy and self time per layer group as shares of traced operation time."""
    wall = metrics["bench.op_wall_s"]
    groups = sorted((metrics[k], k.removesuffix(".busy_s")) for k in metrics
                    if k.endswith(".busy_s") and not k.startswith("bench."))
    print("  share of traced operation time (busy / self):")
    for busy, group in reversed(groups[-10:]):
        own = metrics.get(f"{group}.self_s")
        own_text = f"{own / wall:7.1%}" if own is not None else "      -"
        print(f"    {group:<40} {busy / wall:7.1%} {own_text}")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once at its smallest size, traced, and check it")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def smoke(args) -> int:
    status = 0
    for name in WORKLOADS:
        start = perf_counter()
        run = run_workload(name, args.seed, 0.0, trace=True, smoke=True)
        metrics = per_layer_metrics(run)
        ok = not run["failures"] and metrics["bench.unattributed_frac"] <= 1 - MIN_SPAN_COVERAGE
        status |= not ok
        print(f"smoke {name}: {run['attempted']} operations, {len(run['failures'])} failed, "
              f"span coverage {1 - metrics['bench.unattributed_frac']:.1%}, "
              f"{perf_counter() - start:.1f} s: {'ok' if ok else 'FAILED'}")
        for i, reason in run["failures"]:
            print(f"FAILED {name} operation {i}: {reason}", file=sys.stderr)
    return status


def main(argv=None, import_s: float = 0.0) -> int:
    args = parse_args(argv)
    # unbalance_criteria warns on unbalanced second factors by design
    warnings.filterwarnings("ignore", message="second factor is unbalanced")
    if args.smoke:
        return smoke(args)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       import_s=import_s)
    env = environment(args)
    status = 1 if run["failures"] else 0
    if args.trace:
        metrics = per_layer_metrics(run)
        units = {k: u for k, (_, u, _) in PER_LAYER.items()}
        report(run, metrics, units, args)
        print_shares(metrics)
        print(f"  spans written to {write_trace(run, env).relative_to(ROOT)}")
        coverage = 1.0 - metrics["bench.unattributed_frac"]
        if coverage < MIN_SPAN_COVERAGE:
            print(f"error: spans cover {coverage:.1%} of operation time, "
                  f"below {MIN_SPAN_COVERAGE:.0%}", file=sys.stderr)
            status = 1
    else:
        metrics = end_to_end_metrics(run)
        units = {k: u for k, (u, _) in END_TO_END.items()}
        report(run, metrics, units, args)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return status
