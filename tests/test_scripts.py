"""The experiment scripts write what the CLI writes for the same config."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from transel.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, name, argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.mark.parametrize(
    "script, argv, command, config",
    [
        (
            "run_gap_demo.py",
            ["--rho-a", "2", "--rho-b", "1", "--n-source", "32", "--n-target", "1",
             "--replicates", "3", "--seed", "4"],
            "gap-demo",
            {"family": "gap",
             "params": {"rho_a": 2.0, "rho_b": 1.0, "enforce_regime": False},
             "n_source_grid": [32], "n_target_grid": [1], "replicates": 3, "base_seed": 4},
        ),
        (
            "run_rate_curves.py",
            ["--rhos", "1", "2", "--n-source", "40", "80", "--n-target", "20",
             "--replicates", "2", "--seed", "5"],
            "run",
            {"family": "threshold_nn", "params": {"rhos": [1.0, 2.0]},
             "n_source_grid": [40, 80], "n_target_grid": [20], "replicates": 2, "base_seed": 5},
        ),
    ],
    ids=["gap_demo", "rate_curves"],
)
def test_script_outputs_match_cli(tmp_path, monkeypatch, capsys, script, argv, command, config):
    script_out, cli_out = tmp_path / "script", tmp_path / "cli"
    _run_script(monkeypatch, script, [*argv, "--out", str(script_out)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(cli_out)]) == 0
    assert sorted(p.name for p in script_out.iterdir()) == ["records.csv", "summary.json"]
    for name in ("records.csv", "summary.json"):
        assert (script_out / name).read_bytes() == (cli_out / name).read_bytes(), name
    assert f"outputs in {script_out}" in capsys.readouterr().out
