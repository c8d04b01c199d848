#!/usr/bin/env python3
"""kSPR benchmark: builds kspr_perfbench from this checkout, runs one
workload and prints the metrics as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload analyst-lpcta --seed 1 \
        --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of one untraced run. --trace 1
runs the same seed untraced and then traced, and reports the per-layer
metrics, the tracing overhead between the two, and fails the check when
their work counts or result digests differ. Everything the benchmark
writes goes under .bench_build/ at the checkout root. See
perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("analyst-lpcta", "serving-mixed", "sharded-socket")
# A run must end within 180 s; leave room for set-up and teardown.
RUN_BUDGET_S = 170.0

PER_LAYER_UNITS = {
    "core.solve_ms": "ms", "core.finalize_ms": "ms",
    "core.lookahead_yield": "ratio",
    "lp.bound_lps": "count", "lp.feasibility_lps": "count",
    "lp.finalize_lps": "count", "lp.warm_start_ratio": "ratio",
    "cell_tree.nodes": "count", "cell_tree.witness_hit_ratio": "ratio",
    "engine.cache_hit_ratio": "ratio", "engine.queue_wait_ms": "ms",
    "engine.cache_retained_ratio": "ratio",
    "engine.sub_irrelevant_ratio": "ratio",
    "engine.amortized_reuse_ratio": "ratio",
    "shard.scatter_ms": "ms", "shard.merge_ms": "ms", "shard.solve_ms": "ms",
    "shard.solve_yield": "ratio", "net.transport_ms": "ms",
    "net.response_bytes": "B", "net.retries": "count",
    "net.failures": "count", "shard.cache_retained_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "loadavg": os.getloadavg()}


def build():
    """Configures (once) and builds kspr_perfbench; returns its path."""
    cmake_dir = BUILD / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                  "--target", "kspr_perfbench"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                raise RuntimeError("build failed:\n" + "\n".join(tail))
    return cmake_dir / "kspr_perfbench"


def run_binary(binary, args, trace, deadline):
    out = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(trace), "--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the traced run")
    proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"kspr_perfbench exited {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    queries = run["query_ms"]
    correct_queries = len(queries) - run["failed_queries"]
    return {
        "query_p50_ms": metric(stats.percentile(queries, 50), "ms"),
        "query_p90_ms": metric(stats.percentile(queries, 90), "ms"),
        "queries_per_s": metric(
            stats.ratio(correct_queries, run["measured_ms"] / 1e3), "1/s"),
        "update_p50_ms": metric(stats.percentile(run["update_ms"], 50), "ms"),
        "setup_s": metric(stats.percentile(run["setup_s"], 50), "s"),
    }


def per_layer(plain, traced):
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(stats.count_metrics(traced["counts"]))
    values.update(stats.span_metrics(traced["spans"]))
    if traced["queue_wait_ms"]:
        values["engine.queue_wait_ms"] = (sum(traced["queue_wait_ms"]) /
                                          len(traced["queue_wait_ms"]))
    values["trace.overhead_ratio"] = (traced["measured_ms"] /
                                      plain["measured_ms"] - 1.0)
    return {name: metric(values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}


def summarize(args, runs, fp_start, fp_end):
    """Writes the run summary (fingerprint, counts, self times) next to
    the raw output and echoes the essentials to stderr."""
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "machine_start": fp_start, "machine_end": fp_end,
               "counts": runs[-1]["counts"],
               "failures": [r["failures"] for r in runs]}
    if args.trace:
        summary["self_ms"] = stats.self_times(runs[-1]["spans"])
    path = BUILD / "runs" / f"{args.workload}-seed{args.seed}-summary.json"
    with open(path, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    log(f"machine nproc={fp_start['nproc']} affinity={fp_start['affinity']} "
        f"cpu={fp_start['cpu_model']!r} load_start={fp_start['loadavg']} "
        f"load_end={fp_end['loadavg']}")
    log("counts " + json.dumps(runs[-1]["counts"], sort_keys=True))
    if args.trace:
        log("self_ms " + json.dumps(summary["self_ms"], sort_keys=True))
    log(f"summary written to {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()):
        log(f"no kSPR sources at {ROOT} (CMakeLists.txt and src/ missing)")
        return 2

    fp_start = fingerprint()
    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        runs = [run_binary(binary, args, 0, deadline)]
        if args.trace:
            runs.append(run_binary(binary, args, 1, deadline))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    fp_end = fingerprint()

    failed = sum(sum(r["failures"].values()) for r in runs)
    correct = failed == 0
    if args.trace:
        # Same seed, same work: the traced run must repeat the untraced
        # run's work counts and results exactly.
        plain, traced = runs
        if plain["counts"] != traced["counts"]:
            log("work counts differ between the untraced and traced runs")
            correct = False
        if plain["digests"] != traced["digests"]:
            log("results differ between the untraced and traced runs")
            correct = False
    try:
        metrics = (per_layer(*runs) if args.trace else end_to_end(runs[0]))
    except stats.TooFewSamples as e:
        log(f"too few samples: {e}")
        return 1
    summarize(args, runs, fp_start, fp_end)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
