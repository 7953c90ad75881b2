"""Smoke test of the benchmark at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # Self times are reported as percentages of the traced round.
        wall = result["metrics"]["trace.wall_s"]["value"]
        self_times = {k: v["value"] * wall / 100.0 for k, v in result["metrics"].items()
                      if v["unit"] == "%" and not k.startswith("trace.")}
        assert all(v >= 0.0 for v in self_times.values()), self_times
        assert sum(self_times.values()) <= wall


@pytest.mark.parametrize("workload, command", [("gap_demo", "gap-demo"), ("certify", "verify")])
def test_outputs_match_what_the_cli_writes(tmp_path, workload, command):
    """The reference digests are those of the bytes the ``transel`` CLI writes."""
    wl = workloads.Workload(workload, "tiny", 5)
    expected = workloads.load_reference()[wl.digest]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for key, cfg in wl.configs.items():
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / key
        subprocess.run([sys.executable, "-m", "transel.cli", command, "--config", str(cfg_path),
                        "--out", str(out)], cwd=ROOT, env=env, check=True, capture_output=True,
                       timeout=170)
        for name in sorted(os.listdir(out)):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            ref_key = name if len(wl.configs) == 1 else f"{key}/{name}"
            assert expected[ref_key] == digest, ref_key
