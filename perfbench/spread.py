#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serving-mixed --seeds 1-10 \
        --seconds 15

Runs perfbench/run.py once per seed (untraced) and prints, per metric, the
median and the quartile spread (Q3 - Q1) / median of the values, with the
quartiles taken as statistics.quantiles(values, n=4) gives them. The
bounds in BENCHMARK.json follow from these spreads (see README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {out.stderr}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}"
                                          for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        print(f"{k:16s} median={statistics.median(vs):.6g} "
              f"spread={stats.quartile_spread(vs):.4f} n={len(vs)}")


if __name__ == "__main__":
    main()
