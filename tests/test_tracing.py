"""The benchmark's span tracer finds every name it wraps and puts each back.

``perfbench/tracing.py`` patches public transel functions and methods by
name, so renaming or deleting one of them breaks the benchmark; these tests
load the tracer from its source, without writing anything next to it.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from transel import analysis, families, harness
from transel.classifiers import BoundaryHypothesis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _targets(tracing):
    """(owner, attribute) of every traced name: a module for a function, or
    each class named for a method."""
    for _, module_name, classes, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        for owner in [getattr(module, c) for c in classes] if classes else [module]:
            yield owner, attr


def _namespaces(tracing) -> dict:
    """A copy of every namespace the tracer may patch: the loaded transel
    modules and the classes it names."""
    spaces = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "transel" or n.startswith("transel."))]
    spaces += [owner for owner, _ in _targets(tracing) if isinstance(owner, type)]
    return {space: dict(vars(space)) for space in spaces}


def test_install_wraps_every_target_and_uninstall_restores(tracing):
    before = _namespaces(tracing)
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in _targets(tracing)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), orig in originals.items():
            assert getattr(owner, attr).__wrapped__ is orig, (owner, attr)
        inst = families.build_gap_family(2.0, 1.0, 32, 1)[0]
        h = BoundaryHypothesis((0.5,), 1)
        analysis.excess_risk(inst, "Q", h)
        inst.target.expected_risk(h)
        inst.target.disagreement_mass(h, BoundaryHypothesis())
        _, calls, _ = tracer.collect()
    finally:
        tracer.uninstall()
    assert _namespaces(tracing) == before
    layers = ("families.build", "analysis.excess", "distributions.risk",
              "distributions.disagreement")
    assert [calls.get(layer) for layer in layers] == [1, 1, 1, 1]


@pytest.mark.parametrize("config", [
    dict(kind="gap_demo", family="gap",
         params={"rho_a": 4.0, "rho_b": 1.0, "enforce_regime": False},
         n_source_grid=(1000,), n_target_grid=(10,), replicates=1),
    dict(kind="rate_curve", family="threshold_nn", params={"rhos": [1.0, 2.0]},
         n_source_grid=(200,), n_target_grid=(20,), replicates=1),
], ids=["gap_demo", "threshold_nn_rate_curve"])
def test_traced_layers_see_every_fit(tracing, config):
    """Fits reach the hierarchies and learners through the traced names, so a
    refactor that builds workspaces or ERMs around them shows up here."""
    cfg = harness.ExperimentConfig.from_dict(config)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_experiment(cfg)
        _, calls, _ = tracer.collect()
    finally:
        tracer.uninstall()
    layers = ("erm.workspace", "erm.erm", "selection.algorithm1", "selection.arbitration")
    assert all(calls.get(layer, 0) > 0 for layer in layers), calls
