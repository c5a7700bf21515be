#!/usr/bin/env python3
"""Repeat bench/run.py over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads ablate mask swap_cold --seeds 1 2 3 --seconds 20

For every workload and metric it prints the median of the runs and the
distance between their first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), plus the failed share of the
attempted operations.  The runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["ablate", "mask", "swap_cold"])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=BENCH.parent,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
            ), flush=True)
        print(f"{workload}: {len(args.seeds)} runs, failed {failed}/{attempted}")
        for name, series in values.items():
            median = statistics.median(series)
            shown = f"{checks.spread(series):.4f}" if median and len(series) > 1 else "-"
            print(f"  {name:45s} median {median:12.5g}  spread {shown}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
