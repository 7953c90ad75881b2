"""Adaptive level selection over nested hierarchies from source and target samples.

The pieces, bottom up: a VC-style complexity term; empirical minimal sets
(all classifiers whose empirical risk is within a data-dependent slack of the
level ERM); the smallest level whose minimal sets at all higher levels still
share a member, found by scanning intersections; a holdout comparison that
arbitrates between a source-selected candidate and the target's own pick; and
the top-level adaptive procedure, its semi-oracle variant that is told which
level to trust, and the target-only baseline.  The three learners take one
``Fit`` per replicate, which builds the source context and the target scan
once for all of them.

All routines are deterministic: ties inherit the canonical hypothesis order
of the ERM layer, and the enumeration budget makes every search outcome one
of found / empty / inconclusive, with inconclusive conservatively read as
empty (pushing the chosen level up, never down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .classifiers import BoundaryHypothesis, disagreement_count
from .distributions import LabeledSample
from .erm import SEARCH_FOUND, SearchResult, empirical_risk, mistake_count

BRANCH_SOURCE = "source-accepted"
BRANCH_TARGET = "target-fallback"


def complexity_term(n: int, delta: float, d: int) -> float:
    """(d * ln(n/d) + ln(1/delta)) / n with the log term clamped at zero."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("need delta in (0, 1)")
    return (d * max(0.0, math.log(n / d)) + math.log(1.0 / delta)) / n


def level_confidence(delta: float, level: int, min_level: int) -> float:
    """Per-level confidence share; the shares over all levels sum to delta.

    Levels >= 2 get delta/(i(i+1)).  Level 1 keeps the remaining delta/2
    unless a level 0 exists, in which case levels 0 and 1 split it evenly.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("need delta in (0, 1)")
    if level < min_level:
        raise ValueError("level below the hierarchy floor")
    if level >= 2:
        return delta / (level * (level + 1))
    if min_level <= 0:
        return delta / 4.0
    return delta / 2.0


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs of the selection machinery.

    C scales the root term and c the flat term of the minimal-set slack; c is
    also the flat-term multiplier of the holdout test.  L_max truncates the
    hierarchy (None = use all levels); budget caps candidates probed per
    intersection search.
    """

    C: float = 1.0
    c: float = 1.0
    delta: float = 0.05
    L_max: int | None = None
    budget: int = 1_000_000
    level_weights: str = "split-harmonic"

    def __post_init__(self):
        if self.C <= 0 or self.c <= 0:
            raise ValueError("C and c must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.level_weights != "split-harmonic":
            raise ValueError(f"unknown level_weights rule {self.level_weights!r}")

    def to_dict(self) -> dict:
        return {"C": self.C, "c": self.c, "delta": self.delta,
                "L_max": self.L_max, "budget": self.budget,
                "level_weights": self.level_weights}

    @staticmethod
    def from_dict(d: dict) -> "SelectionConfig":
        unknown = sorted(set(d) - _SELECTION_KEYS)
        if unknown:
            raise ValueError(f"unknown selection keys: {', '.join(unknown)}")
        return SelectionConfig(**d)


_SELECTION_KEYS = frozenset(SelectionConfig.__dataclass_fields__)


@dataclass(frozen=True)
class SelectionTrace:
    branch: str
    chosen_hypothesis: object
    chosen_level: int | None = None
    source_level: int | None = None
    target_level: int | None = None
    candidate: object | None = None
    target_hypothesis: object | None = None
    test_lhs: float | None = None
    test_rhs: float | None = None
    holdout_size: int = 0
    diagnostics: dict = field(default_factory=dict)


def _labeling(h, sample: LabeledSample):
    """How h labels the sorted sample: its run cuts if it is a boundary
    classifier (O(k log n)), else its label array (O(n))."""
    if isinstance(h, BoundaryHypothesis):
        return h.cut_indices(sample.xs)
    return h.evaluate_many(sample.xs)


def _disagreement(h, h_labeling, g, g_labeling, sample: LabeledSample) -> float:
    """Share of the nonempty sample where h and g differ, from their ``_labeling``."""
    if isinstance(h_labeling, tuple) and isinstance(g_labeling, tuple):
        n = len(sample)
        return disagreement_count(h_labeling, h.first_sign, g_labeling, g.first_sign, n) / n
    if isinstance(h_labeling, tuple):
        h_labeling = h.evaluate_many(sample.xs)
    if isinstance(g_labeling, tuple):
        g_labeling = g.evaluate_many(sample.xs)
    return float(np.mean(h_labeling != g_labeling))


def _top_level(hierarchy, cfg: SelectionConfig) -> int:
    top = hierarchy.max_level if cfg.L_max is None else min(cfg.L_max, hierarchy.max_level)
    if top < hierarchy.min_level:
        raise ValueError("L_max truncates below the hierarchy floor")
    return top


class _LevelContext:
    """Per-sample cache: level ERMs, how each labels the sample, complexity terms."""

    def __init__(self, hierarchy, sample: LabeledSample, cfg: SelectionConfig):
        self.hierarchy = hierarchy
        self.sample = sample
        self.cfg = cfg
        self.n = len(sample)
        self.top = _top_level(hierarchy, cfg)
        self.workspace = hierarchy.make_workspace(sample)
        self.erms = {}
        self.comp = {}
        self._erm_labelings = {}
        for j in range(hierarchy.min_level, self.top + 1):
            self.erms[j] = hierarchy.erm(sample, j, workspace=self.workspace)
            if self.n >= 1:
                self.comp[j] = complexity_term(
                    self.n,
                    level_confidence(cfg.delta, j, hierarchy.min_level),
                    hierarchy.vc_dim(j),
                )

    def slack(self, level: int, disagreement: float) -> float:
        a = self.comp[level]
        return self.cfg.C * math.sqrt(disagreement * a) + self.cfg.c * a

    def disagreement(self, h, labeling, level: int) -> float:
        """Share of the sample where h and the level ERM differ.

        ``labeling`` is ``_labeling(h, sample)``, made once by the caller.
        """
        erm = self.erms[level].hypothesis
        if level not in self._erm_labelings:
            self._erm_labelings[level] = _labeling(erm, self.sample)
        return _disagreement(h, labeling, erm, self._erm_labelings[level], self.sample)

    def is_member(self, h, mistakes: int, level: int) -> bool:
        gap = (mistakes - self.erms[level].mistakes) / self.n
        dis = self.disagreement(h, _labeling(h, self.sample), level)
        return gap <= self.slack(level, dis)

    def in_all_sets(self, h, mistakes: int, from_level: int) -> bool:
        labeling = None
        for j in range(from_level, self.top + 1):
            gap = (mistakes - self.erms[j].mistakes) / self.n
            if gap <= self.cfg.c * self.comp[j]:
                continue
            if labeling is None:
                labeling = _labeling(h, self.sample)
            if gap > self.slack(j, self.disagreement(h, labeling, j)):
                return False
        return True

    def mistake_cap(self, from_level: int) -> int:
        cap = min(
            self.erms[j].mistakes + self.n * self.slack(j, 1.0)
            for j in range(from_level, self.top + 1)
        )
        return int(math.floor(cap + 1e-9))

    def intersection(self, from_level: int) -> SearchResult:
        if self.n == 0:
            h = self.erms[from_level].hypothesis
            return SearchResult(SEARCH_FOUND, h, 0, 0)
        # fast path: level ERMs that fit in the class at from_level
        tried = []
        for j in range(from_level, self.top + 1):
            h = self.erms[j].hypothesis
            if any(h == t for t in tried):
                continue
            tried.append(h)
            if not self.hierarchy.contains(h, from_level):
                continue
            m = self.erms[j].mistakes if j == from_level else mistake_count(h, self.sample)
            if self.in_all_sets(h, m, from_level):
                return SearchResult(SEARCH_FOUND, h, m, len(tried))
        return self.hierarchy.search_min_mistakes(
            self.sample,
            from_level,
            lambda h, m: self.in_all_sets(h, m, from_level),
            mistake_cap=self.mistake_cap(from_level),
            pop_cap=self.cfg.budget,
            workspace=self.workspace,
        )

    def scan(self):
        """Smallest level whose higher-level minimal sets share a member."""
        diagnostics = {}
        for i in range(self.hierarchy.min_level, self.top + 1):
            if self.n == 0:
                return i, self.erms[i].hypothesis, diagnostics
            res = self.intersection(i)
            diagnostics[i] = {
                "erm_risk": self.erms[i].mistakes / self.n,
                "status": res.status,
                "probes": res.pops,
            }
            if res.status == SEARCH_FOUND:
                return i, res.hypothesis, diagnostics
        raise AssertionError("top level intersection cannot be empty")


def minimal_set_contains(hierarchy, h, sample, level, cfg) -> bool:
    """Membership in the level's empirical minimal set.

    True iff the empirical risk gap to the level ERM is at most
    C*sqrt(disagreement * A) + c*A for that level's complexity term A.
    """
    ctx = _LevelContext(hierarchy, sample, cfg)
    if level not in ctx.erms:
        raise ValueError(f"level {level} outside the configured range")
    if len(sample) == 0:
        return True
    return ctx.is_member(h, mistake_count(h, sample), level)


def intersection_representative(hierarchy, sample, from_level, cfg) -> SearchResult:
    """A member of every minimal set at levels from_level..top, if one exists.

    Search order: level ERMs first, then all of the class at from_level in
    increasing-mistake order under a branch-and-bound cap.  Status is
    ``inconclusive`` when the budget runs out before a verdict.
    """
    ctx = _LevelContext(hierarchy, sample, cfg)
    if from_level not in ctx.erms:
        raise ValueError(f"level {from_level} outside the configured range")
    return ctx.intersection(from_level)


def lepski_min_level(hierarchy, sample, cfg) -> tuple[int, object]:
    """Smallest level with a nonempty minimal-set intersection above it.

    The top level always qualifies, so the scan is total.  Inconclusive
    searches count as empty, which can only push the level upward.
    """
    level, h, _ = _LevelContext(hierarchy, sample, cfg).scan()
    return level, h


@dataclass(eq=False)
class Fit:
    """One replicate's samples and the work every learner on them shares.

    The source level context (DP workspace, level ERMs, complexity terms) and
    the target level scan ``(level, hypothesis, diagnostics)`` are built on
    first use and then kept, so the adaptive learner, the oracle and the
    target-only baseline fitted on one ``Fit`` build each of them once.
    """

    hierarchy: object
    source_sample: LabeledSample
    target_sample: LabeledSample
    holdout_sample: LabeledSample
    cfg: SelectionConfig

    @cached_property
    def source(self) -> _LevelContext:
        return _LevelContext(self.hierarchy, self.source_sample, self.cfg)

    @cached_property
    def target_scan(self):
        return _LevelContext(self.hierarchy, self.target_sample, self.cfg).scan()


def algorithm2(fit: Fit, candidate):
    """Holdout arbitration between a source candidate and the target's pick.

    Takes the target's own hypothesis from the target level scan, then
    accepts the candidate iff its holdout risk exceeds the target pick's by
    at most sqrt(disagreement * A) + c*A with A = complexity_term(n', delta, 1).
    An empty holdout accepts the candidate outright.
    """
    target_level, target_h, diagnostics = fit.target_scan
    holdout_sample, cfg = fit.holdout_sample, fit.cfg
    n_hold = len(holdout_sample)
    if n_hold == 0:
        trace = SelectionTrace(
            branch=BRANCH_SOURCE,
            chosen_hypothesis=candidate,
            target_level=target_level,
            candidate=candidate,
            target_hypothesis=target_h,
            holdout_size=0,
            diagnostics={"target": diagnostics},
        )
        return candidate, trace
    a = complexity_term(n_hold, cfg.delta, 1)
    lhs = empirical_risk(candidate, holdout_sample) - empirical_risk(target_h, holdout_sample)
    dis = _disagreement(
        candidate, _labeling(candidate, holdout_sample),
        target_h, _labeling(target_h, holdout_sample),
        holdout_sample,
    )
    rhs = math.sqrt(dis * a) + cfg.c * a
    accepted = lhs <= rhs
    trace = SelectionTrace(
        branch=BRANCH_SOURCE if accepted else BRANCH_TARGET,
        chosen_hypothesis=candidate if accepted else target_h,
        chosen_level=None if accepted else target_level,
        target_level=target_level,
        candidate=candidate,
        target_hypothesis=target_h,
        test_lhs=lhs,
        test_rhs=rhs,
        holdout_size=n_hold,
        diagnostics={"target": diagnostics},
    )
    return (candidate, trace) if accepted else (target_h, trace)


def algorithm1(fit: Fit):
    """Full adaptive procedure: source level scan, then holdout arbitration."""
    source_level, rep, source_diag = fit.source.scan()
    chosen, trace = algorithm2(fit, rep)
    diagnostics = dict(trace.diagnostics)
    diagnostics["source"] = source_diag
    trace = replace(
        trace,
        source_level=source_level,
        chosen_level=source_level if trace.branch == BRANCH_SOURCE else trace.chosen_level,
        diagnostics=diagnostics,
    )
    return chosen, trace


def oracle_learner(fit: Fit, level: int):
    """Arbitrated learner that is told which source level to trust.

    The candidate is the source ERM at that level (always a member of its own
    minimal set); the holdout test then decides as in the adaptive procedure.
    """
    erms = fit.source.erms
    if level not in erms:
        raise ValueError(f"level {level} outside the configured range")
    chosen, _ = algorithm2(fit, erms[level].hypothesis)
    return chosen


def target_only_srm(fit: Fit):
    """Baseline that ignores the source entirely: the target's own level scan."""
    return fit.target_scan[1]
