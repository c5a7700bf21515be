#!/usr/bin/env python3
"""Sweep the guidance scale and report swap quality per setting.

For each guidance value the same seeded pairs are swapped with the full
mask variant; the table reports how often the output moves closer to the
rendered oracle than the unedited body image, the attribute-probe rate,
and the mean masked-region error.

    python scripts/guidance_sweep.py --pairs 25 --seed 7 --scales 1 3 7.5
"""

import argparse

import numpy as np

from headswap import (
    EmpiricalNoisePredictor,
    enumerate_dataset,
    make_schedule,
    sample_pairs,
    swap_pairs,
)
from headswap.experiment import RunConfig, evaluate_swap
from headswap.metrics import swap_reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0, 3.0, 7.5])
    args = parser.parse_args()

    sched = make_schedule(RunConfig().T)
    predictor = EmpiricalNoisePredictor.from_renders(enumerate_dataset(), sched)
    pairs = sample_pairs(args.seed, args.pairs)

    print(f"{args.pairs} pairs, seed {args.seed}, full variant")
    print(f"{'w':>5s} {'improved':>9s} {'probe>=2/3':>11s} {'mse_head':>10s}")
    for w in args.scales:
        cfg = RunConfig(seed=args.seed, pairs=args.pairs, w=w)
        improved, probed, errors = 0, 0, []
        for (body, head), [result] in zip(pairs, swap_pairs(pairs, cfg, ("full",), predictor)):
            ref = swap_reference(body, head)
            record = evaluate_swap("sweep", ref, "full", result)
            oracle = ref.oracle.image
            improved += np.mean((result.output - oracle) ** 2) < np.mean(
                (ref.body_image - oracle) ** 2
            )
            probed += record["attr_probe"]["matched"] >= 2
            errors.append(record["mse_head"])
        print(
            f"{w:5.1f} {improved / args.pairs:9.0%} {probed / args.pairs:11.0%} "
            f"{np.mean(errors):10.6f}"
        )


if __name__ == "__main__":
    main()
