#!/usr/bin/env python3
"""Run the built-in property suites over every distribution family.

Each family's certified claims (realizability, exponent coefficients, rate
identities, event probabilities) are rechecked from scratch; any failure is
listed and the exit code is nonzero.
"""
from __future__ import annotations

import argparse
import sys

from transel.harness import ExperimentConfig, verify_construction

SUITES = (
    ("threshold_nn", {"rhos": [1.0, 2.0, 4.0]}, 1000, 100),
    ("shifted_target", {"rhos": [1.0, 1.0, 2.0]}, 1000, 100),
    ("gap", {"rho_a": 2.0, "rho_b": 1.0}, 32, 1),
    ("extended_gap", {"rho_a": 4.0, "rho_b": 2.0}, 32768, 1),
    ("two_point", {"alpha": 0.01}, 10, 50),
    ("fixed_class", {"d": 9, "beta_p": 0.5, "beta_q": 0.5, "rho": 2.0, "alpha": 0.1}, 1000, 100),
)


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    bad = 0
    for family, params, n_p, n_q in SUITES:
        cfg = ExperimentConfig(
            kind="verify",
            family=family,
            params=params,
            n_source_grid=(n_p,),
            n_target_grid=(n_q,),
        )
        report = verify_construction(cfg)
        status = "PASS" if report["all_pass"] else "FAIL"
        print(f"{family}: {report['checks']} checks {status}")
        for name in report["failures"]:
            print(f"  failed: {name}")
        bad += not report["all_pass"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
