"""Span tracing of transel's layers from outside the package.

The tracer wraps public functions and methods of each transel module in
place and records one span per call: id, parent id, layer name, start and
end on the ``perf_counter_ns`` clock.  A layer's self time is the length of
its spans minus the part covered by their child spans.  Spans stay in memory
until :meth:`Tracer.collect` folds them into per-layer totals, which the
benchmark does once per round.

Names are patched wherever they are looked up: a module-level function is
replaced in every loaded ``transel`` module that holds it (``harness`` binds
the ``selection`` functions by name), and a method is replaced on each public
class that exposes it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import defaultdict


from transel.erm import SEARCH_FOUND, SEARCH_INCONCLUSIVE


def _count_sample(counts, sample):
    counts["distributions.sample_points"] += len(sample)


def _count_eval(counts, labels):
    counts["classifiers.eval_points"] += len(labels)


def _count_search(counts, result):
    counts["erm.search_pops"] += result.pops
    counts["erm.search_found"] += result.status == SEARCH_FOUND
    counts["erm.search_inconclusive"] += result.status == SEARCH_INCONCLUSIVE


_DISTRIBUTIONS = ("PiecewiseDistribution", "DiscreteDistribution")
_HYPOTHESES = ("BoundaryHypothesis", "TabularHypothesis")
_HIERARCHIES = ("BoundaryClassHierarchy", "OneSidedThresholdHierarchy", "FiniteClassHierarchy")

# (layer, module, class names or None for module functions, attribute, counter)
TARGETS = (
    ("distributions.sample", "transel.distributions", _DISTRIBUTIONS, "sample", _count_sample),
    ("distributions.risk", "transel.distributions", _DISTRIBUTIONS, "expected_risk", None),
    ("distributions.disagreement", "transel.distributions", _DISTRIBUTIONS,
     "disagreement_mass", None),
    ("classifiers.eval", "transel.classifiers", _HYPOTHESES, "evaluate_many", _count_eval),
    ("erm.workspace", "transel.erm", _HIERARCHIES, "make_workspace", None),
    ("erm.erm", "transel.erm", _HIERARCHIES, "erm", None),
    ("erm.search", "transel.erm", _HIERARCHIES, "search_min_mistakes", _count_search),
    ("selection.algorithm1", "transel.selection", None, "algorithm1", None),
    ("selection.arbitration", "transel.selection", None, "algorithm2", None),
    ("selection.oracle", "transel.selection", None, "oracle_learner", None),
    ("selection.target_only", "transel.selection", None, "target_only_srm", None),
    ("analysis.grid", "transel.analysis", None, "default_ratio_grid", None),
    ("analysis.grid", "transel.analysis", None, "extended_gap_witness_grid", None),
    ("analysis.minimizer", "transel.analysis", None, "level_risk_minimizer", None),
    ("analysis.exponent", "transel.analysis", None, "estimate_transfer_exponent", None),
    ("analysis.bcc", "transel.analysis", None, "verify_bcc", None),
    ("analysis.excess", "transel.analysis", None, "excess_risk", None),
    ("analysis.rate_profile", "transel.analysis", None, "rate_profile", None),
    ("families.build", "transel.families", None, "build_threshold_nn", None),
    ("families.build", "transel.families", None, "build_shifted_target", None),
    ("families.build", "transel.families", None, "build_gap_family", None),
    ("families.build", "transel.families", None, "build_extended_gap_family", None),
    ("families.build", "transel.families", None, "build_two_point_family", None),
    ("families.build", "transel.families", None, "build_fixed_class_family", None),
    ("harness.experiment", "transel.harness", None, "run_experiment", None),
    ("harness.replicates", "transel.harness", None, "run_replicates", None),
    ("harness.serialize", "transel.harness", None, "records_csv_text", None),
    ("harness.serialize", "transel.harness", None, "summary_json_text", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

COUNTERS = (
    "distributions.sample_points",
    "classifiers.eval_points",
    "erm.search_pops",
    "erm.search_found",
    "erm.search_inconclusive",
)


class Tracer:
    """In-memory span recorder; spans of one thread nest strictly.

    Finished spans are kept column-wise in integer arrays, which the garbage
    collector does not scan, so a round with many spans stays cheap to trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids, self._parents, self._kinds = array("q"), array("q"), array("q")
        self._starts, self._ends = array("q"), array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[tuple[int, int, int, int]] = []
        self._next_id = 1
        self._restore: list = []

    def __len__(self) -> int:
        """Spans recorded since the last collect."""
        return len(self._ids)

    def open(self, name: str) -> None:
        kind = self._name_index.get(name)
        if kind is None:
            kind = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((self._next_id, parent, kind, time.perf_counter_ns()))
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter_ns()
        sid, parent, kind, start = self._stack.pop()
        self._ids.append(sid)
        self._parents.append(parent)
        self._kinds.append(kind)
        self._starts.append(start)
        self._ends.append(end)

    def collect(self):
        """Self time in ns per span name, calls per layer and counts since the
        last collect; clears them.  Call it with no span open."""
        covered: dict[int, int] = defaultdict(int)
        for parent, start, end in zip(self._parents, self._starts, self._ends):
            covered[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for sid, kind, start, end in zip(self._ids, self._kinds, self._starts, self._ends):
            self_ns[self.names[kind]] += end - start - covered[sid]
        calls, counts = dict(self.calls), dict(self.counts)
        for column in (self._ids, self._parents, self._kinds, self._starts, self._ends):
            del column[:]
        self.calls.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)
        return dict(self_ns), calls, counts

    def _wrap(self, layer: str, fn, counter):
        tracer = self

        def traced_iter(gen):
            while True:
                tracer.open(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                counter(tracer.counts, result)
            if isinstance(result, types.GeneratorType):
                # Lazy families build their instances as the caller iterates.
                return traced_iter(result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target by its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "transel" or n.startswith("transel."))]
        for layer, module_name, classes, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            if classes is None:
                orig = getattr(module, attr)
                wrapped = self._wrap(layer, orig, counter)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, name, orig, True))
                            setattr(mod, name, wrapped)
                continue
            for cls_name in classes:
                cls = getattr(module, cls_name)
                own = attr in vars(cls)
                orig = getattr(cls, attr)
                self._restore.append((cls, attr, orig, own))
                setattr(cls, attr, self._wrap(layer, orig, counter))

    def uninstall(self) -> None:
        for owner, name, orig, own in reversed(self._restore):
            if own:
                setattr(owner, name, orig)
            else:
                delattr(owner, name)
        self._restore.clear()
