"""The benchmark's rounds still write the bytes of its committed reference.

``perfbench/workloads.py`` runs each workload through the public harness and
``perfbench/reference.json`` holds the sha256 of every output; a change that
moves one byte fails here as well as in the benchmark.  The module is loaded
from its source, without writing anything next to it.
"""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    # Dataclasses resolve their annotations through the module's entry in
    # sys.modules, so it is there while the source runs.
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("name, size", [("certify", "full"), ("gap_demo", "tiny"),
                                        ("deep_scan", "tiny")])
def test_round_matches_reference(workloads, name, size):
    wl = workloads.Workload(name, size, 0)
    rnd = wl.run_round()
    assert rnd.failed_checks == 0
    assert workloads.output_digests(rnd.outputs) == workloads.load_reference()[wl.digest]
