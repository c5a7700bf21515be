#!/usr/bin/env python3
"""Run the mask-variant ablation over seeded pairs and print a comparison.

Reproduces the headline comparison: the orthogonal-projection edit map
against the naive prediction difference and the unprojected difference,
scored as mask IoU against the rendered ground-truth edit region.

    python scripts/run_ablation.py --pairs 50 --seed 7 [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from headswap.experiment import RunConfig, run_experiment, summarize
from headswap.iomask import VARIANTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--w", type=float, default=3.0, help="guidance scale")
    parser.add_argument("--out", default=None, help="optional artifact directory")
    args = parser.parse_args()

    cfg = RunConfig(
        seed=args.seed,
        pairs=args.pairs,
        w=args.w,
        out_dir=Path(args.out) if args.out else None,
    )
    records = run_experiment(cfg, variants=VARIANTS)

    summary = summarize(records)
    print(f"{args.pairs} pairs, seed {args.seed}, guidance {args.w}")
    print(f"{'variant':10s} {'IoU':>8s} {'mse_head':>10s} {'probe':>7s}")
    for variant in VARIANTS:
        entry = summary[variant]
        print(
            f"{variant:10s} {entry['iou']:8.4f} {entry['mse_head']:10.6f} "
            f"{entry['probe_fraction']:6.0%}"
        )

    by_pair = {}
    for record in records:
        by_pair.setdefault(record["pair_id"], {})[record["variant"]] = record["iou"]
    wins = np.mean([p["full"] > p["naive"] for p in by_pair.values()])
    print(f"\nfull beats naive on {wins:.0%} of individual pairs")


if __name__ == "__main__":
    main()
