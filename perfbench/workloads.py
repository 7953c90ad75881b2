"""The benchmark's workloads: configs, one round of work, and output checks.

Each workload stresses a different transel layer:

- ``gap_demo``: many tiny fits on the four-instance gap family, bound by
  sampling and per-fit overhead; almost no intersection search.
- ``deep_scan``: a rate curve on a 6-level staircase with one large source
  sample per fit, bound by the best-first search and its O(n) probes.
- ``certify``: ``verify`` on the staircase and extended-gap families; no
  sampling and no fits, bound by the exact-risk and disagreement kernels.

A round runs the workload once through the public ``transel.harness`` API and
serializes what the CLI would write.  The workload seed only moves the
experiments' ``base_seed``; it is folded into a pool of ``SEED_POOL`` input
sets so that every seed has a committed reference digest of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from transel import harness

SIZES = ("full", "tiny")
SEED_POOL = 32

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_GAP_PARAMS = {"rho_a": 4.0, "rho_b": 1.0, "enforce_regime": False}
_STAIRCASE_6 = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0]


def input_seed(seed: int) -> int:
    return seed % SEED_POOL


def _configs(workload: str, size: str, base_seed: int) -> dict:
    """Named experiment configs of one round, as ``ExperimentConfig`` dicts."""
    tiny = size == "tiny"
    if workload == "gap_demo":
        return {"gap_demo": {
            "kind": "gap_demo", "family": "gap", "params": _GAP_PARAMS,
            "n_source_grid": [10000], "n_target_grid": [10],
            "replicates": 2 if tiny else 50, "base_seed": base_seed,
        }}
    if workload == "deep_scan":
        return {"deep_scan": {
            "kind": "rate_curve", "family": "threshold_nn", "params": {"rhos": _STAIRCASE_6},
            "n_source_grid": [1000 if tiny else 100000], "n_target_grid": [50],
            "replicates": 1 if tiny else 8, "base_seed": base_seed,
        }}
    if workload == "certify":
        # Verification is exact: the seed has nothing to move here.
        if tiny:
            return {
                "shifted_target": {"kind": "verify", "family": "shifted_target"},
                "two_point": {"kind": "verify", "family": "two_point",
                              "params": {"alpha": 0.1}, "n_target_grid": [5]},
            }
        return {
            "staircase": {"kind": "verify", "family": "threshold_nn",
                          "params": {"rhos": [1.0]}},
            "extended_gap": {"kind": "verify", "family": "extended_gap",
                             "params": {"rho_a": 4.0, "rho_b": 2.0},
                             "n_source_grid": [32768], "n_target_grid": [1]},
        }
    raise ValueError(f"unknown workload {workload!r}")


def config_digest(configs: dict) -> str:
    return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()


@dataclass
class Round:
    """What one round produced: serialized outputs and its operations."""

    outputs: dict[str, str]
    fit_seconds: list[float] = field(default_factory=list)
    verify_seconds: list[float] = field(default_factory=list)
    replicate_cells: int = 0
    checks: int = 0
    failed_checks: int = 0


class Workload:
    """A workload's built configs and the digest of its inputs, which keys the
    reference digests of its outputs."""

    def __init__(self, name: str, size: str, seed: int):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.name = name
        raw = _configs(name, size, input_seed(seed))
        self.digest = config_digest(raw)
        self.configs = {k: harness.ExperimentConfig.from_dict(v) for k, v in raw.items()}
        # The harness builds its own instances; building each family once here
        # fails a bad config early and puts construction in setup_s.
        for cfg in self.configs.values():
            harness.build_family(cfg.family, cfg.params,
                                 cfg.n_source_grid[0], cfg.n_target_grid[0])

    def run_round(self) -> Round:
        """One pass over the workload, from built configs to serialized outputs."""
        if self.name == "certify":
            outputs = {}
            rnd = Round(outputs)
            for key, cfg in self.configs.items():
                t0 = time.perf_counter()
                _, summary = harness.run_experiment(cfg)
                outputs[f"{key}/summary.json"] = harness.summary_json_text(summary)
                rnd.verify_seconds.append(time.perf_counter() - t0)
                rnd.checks += summary["checks"]
                rnd.failed_checks += len(summary["failures"])
            return rnd
        (cfg,) = self.configs.values()
        records, summary = harness.run_experiment(cfg)
        outputs = {"records.csv": harness.records_csv_text(records),
                   "summary.json": harness.summary_json_text(summary)}
        return Round(outputs, fit_seconds=[r.wall_time for r in records],
                     replicate_cells=len(records) // len(cfg.learners))


def output_digests(outputs: dict[str, str]) -> dict[str, str]:
    return {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in sorted(outputs.items())}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
