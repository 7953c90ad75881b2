#!/usr/bin/env python3
"""Excess-risk curves for all learners on the staircase family.

Sweeps the source sample size with the target budget held fixed, so the
output shows where transfer starts to beat learning from the target alone.
"""
from __future__ import annotations

import argparse

from transel.harness import ExperimentConfig, run_experiment, write_outputs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--rhos", type=float, nargs="+", default=[1.0, 2.0, 4.0],
                   help="per-level transfer exponents of the staircase")
    p.add_argument("--n-source", type=int, nargs="+",
                   default=[100, 300, 1000, 3000, 10000])
    p.add_argument("--n-target", type=int, default=50)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out/rate_curves")
    args = p.parse_args()

    cfg = ExperimentConfig(
        kind="rate_curve",
        family="threshold_nn",
        params={"rhos": list(args.rhos)},
        n_source_grid=tuple(args.n_source),
        n_target_grid=(args.n_target,),
        replicates=args.replicates,
        base_seed=args.seed,
    )
    records, summary = run_experiment(cfg)
    write_outputs(args.out, records, summary)
    for key, cell in sorted(summary["cells"].items()):
        print(f"{key}: mean={cell['mean_excess']:.6g} p90={cell['p90_excess']:.6g}")
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()
