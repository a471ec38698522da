"""Benchmark of cogflow's generate, experiment and polarize commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run starts three single-threaded child processes (BLAS pinned to
one thread) one after the other; each sets up and then measures for a
third of --seconds. With --trace 0 the end-to-end metrics of
BENCHMARK.json are printed; with --trace 1 a separate traced run prints
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --workload all it
maps each workload name to such an object.

The program is run from its source tree (`src/`); the benchmark exits
with code 2 when the tree is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("gen_stochastic_n4", "exp_vertex_n2", "polarize_n6")
# Each run uses this many fresh processes. Each one sets up (timed) and
# then measures for its share of --seconds, so set-up is timed several
# times and the measured operations come from stretches of time spread
# over the whole run rather than from one stretch.
PROCESSES = 3
DEADLINE_S = 170.0
SAMPLES = 2048


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_work" / "pycache")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline: float) -> dict:
    """Run one child to its end; returns its JSON result with its set-up time."""
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / PROCESSES),
        "--trace", str(args.trace),
    ]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise SystemExit(f"{args.workload}: a benchmark process did not finish in time")
    if child.returncode != 0 or not out.strip():
        raise SystemExit(f"{args.workload}: a benchmark process exited {child.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def layer_values(results) -> tuple[dict, list]:
    """Median of each per-layer figure over all traced operations, and the
    tracing overhead: median traced minus median untraced time."""
    layers = [entry for r in results for entry in r["layers"]]
    if not layers:
        return {}, []
    values = {
        name: statistics.median(entry[name] for entry in layers)
        for name in layers[0]
        if name != "inseparable"
    }
    untraced = statistics.median(t for r in results for t in r["op_times"])
    overhead = statistics.median(t for r in results for t in r["traced_times"]) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / untraced
    inseparable = sorted({layer for entry in layers for layer in entry["inseparable"]})
    values["trace.inseparable_layers"] = len(inseparable)
    return values, inseparable


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    results = [spawn(args, deadline) for _ in range(PROCESSES)]
    problems = list(dict.fromkeys(p for r in results for p in r["problems"]))
    notes = list(dict.fromkeys(n for r in results for n in r["notes"]))
    times = [t for r in results for t in r["op_times"]]
    if args.trace:
        values, inseparable = layer_values(results)
        if inseparable:
            notes.append(f"not separable: {', '.join(inseparable)}")
    else:
        values = {
            "op_s": statistics.median(times) if times else 0.0,
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        }
    units = declared_metrics()[args.trace]
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"{args.workload}: no value for {sorted(missing)}")
    for line in problems:
        print(f"{args.workload}: CHECK FAILED: {line}")
    for line in notes:
        print(f"{args.workload}: {line}")
    if times and not args.trace:
        parts = {k: [v for r in results for v in r["parts"].get(k, [])] for k in ("cold", "warm")}
        print(summary_line(args.workload, values, len(times), parts))
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def summary_line(workload: str, values: dict, ops: int, parts: dict) -> str:
    """The end-to-end figure in the terms of each workload."""
    op_s = values["op_s"]
    if workload.startswith("gen_"):
        headline = f"samples_per_s={SAMPLES / op_s:.1f} samples/s"
    elif workload.startswith("exp_"):
        headline = f"experiment_s={op_s:.4f} s"
    else:
        headline = (
            f"polarize_cold_s={statistics.median(parts['cold']):.5f} s, "
            f"polarize_warm_s={statistics.median(parts['warm']):.5f} s per base prompt"
        )
    return (
        f"{workload}: {headline} (median of {ops} operations), op_s={op_s:.5f} s, "
        f"setup_s={values['setup_s']:.3f} s, peak_rss_mb={values['peak_rss_mb']:.1f} MB"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cogflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cogflow" / "__init__.py").is_file():
        print("perfbench: no cogflow source tree at ./src/cogflow; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(json.dumps({name: results[name]}))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
