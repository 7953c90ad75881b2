"""Command-line front-end for the experiment harness.

Subcommands map one-to-one onto experiment kinds; a JSON config file mirrors
ExperimentConfig field for field, and a few flags override it in place;
--seed overrides the config's base_seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .harness import ExperimentConfig, run_experiment, write_outputs

_COMMAND_KINDS = {
    "run": "rate_curve",
    "gap-demo": "gap_demo",
    "verify": "verify",
    "erm-check": "erm_check",
    "calibrate": "calibrate",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transel",
        description="Adaptive source-to-target model selection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _COMMAND_KINDS.items():
        p = sub.add_parser(name, help=f"run a {kind} experiment")
        p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
        p.add_argument("--out", default=None, help="output directory for records/summary")
        p.add_argument(
            "--replicates", type=int, default=None, help="replicate count (overrides config)"
        )
    return parser


def _load_config(args) -> ExperimentConfig:
    kind = _COMMAND_KINDS[args.command]
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}")
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
        data["kind"] = kind
        cfg = ExperimentConfig.from_dict(data)
    elif args.command == "erm-check":
        cfg = ExperimentConfig(kind=kind, family="threshold_nn", params={"rhos": [1.0]})
    else:
        raise SystemExit(f"{args.command} needs --config pointing at a JSON experiment file")

    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if args.replicates is not None:
        cfg = replace(cfg, replicates=args.replicates)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _report(cfg: ExperimentConfig, summary: dict) -> int:
    kind = summary.get("kind")
    if kind == "verify":
        status = "PASS" if summary["all_pass"] else "FAIL"
        print(f"verify {cfg.family}: {summary['checks']} checks {status}")
        for name in summary["failures"]:
            print(f"  failed: {name}")
        return 0 if summary["all_pass"] else 1
    if kind == "erm_check":
        if summary["ok"]:
            print(f"erm-check: {summary['cases']} cases, all matched")
            return 0
        print(f"erm-check: {len(summary['mismatches'])} mismatches")
        for m in summary["mismatches"]:
            print(f"  case={m['case']} seed={m['seed']} solver={m['solver']} oracle={m['bruteforce']}")
        return 1
    if kind == "gap_demo":
        worst = summary["worst_sigma_mean"]
        print(
            "gap-demo: worst-case mean excess "
            + ", ".join(f"{k}={v:.6g}" for k, v in sorted(worst.items()))
        )
        print(f"  adaptive/oracle ratio: {summary['ratio_adaptive_over_oracle']:.6g}")
        print(
            f"  targets: fast={summary['targets']['fast']:.6g} "
            f"slow={summary['targets']['slow']:.6g}"
        )
        return 0
    if kind == "calibrate":
        rec = summary["recommended"]
        print(
            f"calibrate: recommended C={rec['C']} c={rec['c']} "
            f"(qualified={summary['recommendation_qualified']})"
        )
        return 0
    cells = summary.get("cells", {})
    print(f"run: {len(cells)} aggregate cells")
    for key, cell in sorted(cells.items()):
        print(f"  {key}: mean={cell['mean_excess']:.6g} (n={cell['count']})")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        records, summary = run_experiment(cfg)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    paths = {}
    if cfg.out_dir:
        paths = write_outputs(cfg.out_dir, records, summary)
    code = _report(cfg, summary)
    for path in paths.values():
        print(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
