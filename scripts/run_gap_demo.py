#!/usr/bin/env python3
"""Adaptivity-gap demonstration on the four-instance gap family.

With a fast and a slow transfer level hidden behind the instance index, the
oracle that knows the index keeps the fast rate on every instance while any
fixed adaptive choice is forced onto the slow rate somewhere.  The summary
reports worst-case means per learner and the resulting gap ratio.
"""
from __future__ import annotations

import argparse

from transel.harness import ExperimentConfig, run_experiment, write_outputs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--rho-a", type=float, default=4.0, help="slow-level exponent")
    p.add_argument("--rho-b", type=float, default=1.0, help="fast-level exponent")
    p.add_argument("--n-source", type=int, default=10_000)
    p.add_argument("--n-target", type=int, default=10)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out/gap_demo")
    p.add_argument("--enforce-regime", action="store_true",
                   help="reject sample sizes outside the certified regime")
    args = p.parse_args()

    cfg = ExperimentConfig(
        kind="gap_demo",
        family="gap",
        params={
            "rho_a": args.rho_a,
            "rho_b": args.rho_b,
            "enforce_regime": args.enforce_regime,
        },
        n_source_grid=(args.n_source,),
        n_target_grid=(args.n_target,),
        replicates=args.replicates,
        base_seed=args.seed,
    )
    records, summary = run_experiment(cfg)
    write_outputs(args.out, records, summary)
    for learner, mean in sorted(summary["worst_sigma_mean"].items()):
        print(f"worst-case mean excess {learner}: {mean:.6g}")
    print(f"adaptive/oracle ratio: {summary['ratio_adaptive_over_oracle']:.6g}")
    t = summary["targets"]
    print(f"reference rates: fast={t['fast']:.6g} slow={t['slow']:.6g}")
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()
