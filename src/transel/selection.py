"""Adaptive level selection over nested hierarchies from source and target samples.

The pieces, bottom up: a VC-style complexity term; empirical minimal sets
(all classifiers whose empirical risk is within a data-dependent slack of the
level ERM); the smallest level whose minimal sets at all higher levels still
share a member, found by scanning intersections; a holdout comparison that
arbitrates between a source-selected candidate and the target's own pick; and
the top-level adaptive procedure, its semi-oracle variant that is told which
level to trust, and the target-only baseline.  A sample's minimal sets,
intersections and level scan are all read through one ``LevelContext``; the
three learners take one ``Fit`` per replicate, which builds the source
context and the target scan once for all of them.

All routines are deterministic: ties inherit the canonical hypothesis order
of the ERM layer, and the enumeration budget makes every search outcome one
of found / empty / inconclusive, with inconclusive conservatively read as
empty (pushing the chosen level up, never down).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

from .classifiers import disagreement_count
from .distributions import LabeledSample
from .erm import DEFAULT_POP_CAP, SEARCH_FOUND, ErmResult, SearchResult

BRANCH_SOURCE = "source-accepted"
BRANCH_TARGET = "target-fallback"


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return abs(v) < 2**1024  # the float range, compared exactly: NaN, inf and huge ints fail


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
    budget: int = DEFAULT_POP_CAP

    def __post_init__(self):
        if not all(_is_number(v) for v in (self.C, self.c, self.delta)):
            raise ValueError("C, c and delta must be numbers")
        if not (_is_finite(self.C) and _is_finite(self.c)):
            raise ValueError("C and c must be finite")
        if not _is_int(self.budget) or not (self.L_max is None or _is_int(self.L_max)):
            raise ValueError("budget and L_max must be integers")
        if self.C <= 0 or self.c <= 0:
            raise ValueError("C and c must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    def to_dict(self) -> dict:
        return {"C": self.C, "c": self.c, "delta": self.delta,
                "L_max": self.L_max, "budget": self.budget}

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


def _top_level(hierarchy, cfg: SelectionConfig) -> int:
    top = hierarchy.max_level if cfg.L_max is None else min(cfg.L_max, hierarchy.max_level)
    if top < hierarchy.min_level:
        raise ValueError("L_max truncates below the hierarchy floor")
    return top


class LevelContext:
    """One sample's minimal sets, their intersections and its level scan.

    Builds, once, the DP workspace's tables over the sample's label runs, the
    ERM of every level from the floor to the configured top, each level
    ERM's ``runs`` on the sample and each level's complexity term.
    ``is_member``, ``intersection`` and ``scan`` all read these, so any
    number of questions about one sample share one workspace; its
    point-level tables are built only by a search that can pop.  A
    hypothesis is read on the sample only through its runs: its mistakes and
    its disagreement with a level ERM both count from them.
    """

    def __init__(self, hierarchy, sample: LabeledSample, cfg: SelectionConfig):
        self.hierarchy = hierarchy
        self.sample = sample
        self.cfg = cfg
        self.n = len(sample)
        self.top = _top_level(hierarchy, cfg)
        self.workspace = hierarchy.make_workspace(sample)
        self.erms = {}
        self.erm_runs = {}
        self.comp = {}
        for j in range(hierarchy.min_level, self.top + 1):
            self.erms[j] = hierarchy.erm(sample, j, workspace=self.workspace)
            self.erm_runs[j] = self.erms[j].hypothesis.runs(sample.xs)
            if self.n >= 1:
                self.comp[j] = complexity_term(
                    self.n,
                    level_confidence(cfg.delta, j, hierarchy.min_level),
                    hierarchy.vc_dim(j),
                )

    def erm(self, level: int) -> ErmResult:
        """The level's ERM; a level outside the configured range is a ValueError."""
        if level not in self.erms:
            raise ValueError(f"level {level} outside the configured range")
        return self.erms[level]

    def slack(self, level: int, disagreement: float) -> float:
        a = self.comp[level]
        return self.cfg.C * math.sqrt(disagreement * a) + self.cfg.c * a

    def disagreement(self, runs, level: int) -> float:
        """Share of the nonempty sample where the hypothesis with ``runs``
        and the level ERM differ."""
        return disagreement_count(runs, self.erm_runs[level], self.n) / self.n

    def is_member(self, h, level: int) -> bool:
        """Membership in the level's empirical minimal set.

        True iff the empirical risk gap to the level ERM is at most
        C*sqrt(disagreement * A) + c*A for that level's complexity term A;
        everything is a member on an empty sample.
        """
        erm = self.erm(level)
        if self.n == 0:
            return True
        runs = h.runs(self.sample.xs)
        gap = (self.sample.mistakes(runs) - erm.mistakes) / self.n
        return gap <= self.slack(level, self.disagreement(runs, level))

    def in_all_sets(self, h, mistakes: int, from_level: int) -> bool:
        runs = None
        for j in range(from_level, self.top + 1):
            gap = (mistakes - self.erms[j].mistakes) / self.n
            if gap <= self.cfg.c * self.comp[j]:
                continue
            if runs is None:
                runs = h.runs(self.sample.xs)
            if gap > self.slack(j, self.disagreement(runs, j)):
                return False
        return True

    def mistake_cap(self, from_level: int) -> int:
        """Most mistakes a member of every minimal set from from_level up can make.

        Per level j there are two bounds.  Disagreement is at most 1, so
        m_h <= m_j + n*slack(j, 1).  And h and the level ERM can disagree
        only on sample points where one of them errs, so n*dis <= m_h + m_j;
        membership then makes sqrt(m_h + m_j) at most the root s of
        s**2 - C*sqrt(nA)*s - (2*m_j + c*nA), i.e. m_h <= s**2 - m_j.
        """
        big_c, small_c = self.cfg.C, self.cfg.c
        cap = math.inf
        for j in range(from_level, self.top + 1):
            m_j, na = self.erms[j].mistakes, self.n * self.comp[j]
            s = (big_c * math.sqrt(na)
                 + math.sqrt(big_c * big_c * na + 4.0 * (2 * m_j + small_c * na))) / 2.0
            cap = min(cap, m_j + self.n * self.slack(j, 1.0), s * s - m_j)
        return int(math.floor(cap + 1e-9))

    def intersection(self, from_level: int) -> SearchResult:
        """A member of every minimal set at levels from_level..top, if one exists.

        Search order: the level ERM first, then all of the class at from_level
        in increasing-mistake order, pruned above ``mistake_cap``.  Status is
        ``inconclusive`` when the budget runs out before a verdict.
        """
        erm = self.erm(from_level)
        if self.n == 0:
            return SearchResult(SEARCH_FOUND, erm.hypothesis, 0, 0)
        # Fast path: the level ERM.  A higher level's ERM that lies in this
        # class is this level's ERM (nested classes, one canonical order), so
        # no other level ERM can pass where this one fails.
        if self.in_all_sets(erm.hypothesis, erm.mistakes, from_level):
            return SearchResult(SEARCH_FOUND, erm.hypothesis, erm.mistakes, 1)
        return self.hierarchy.search_min_mistakes(
            self.sample,
            from_level,
            lambda h, m: self.in_all_sets(h, m, from_level),
            mistake_cap=self.mistake_cap(from_level),
            pop_cap=self.cfg.budget,
            workspace=self.workspace,
        )

    def scan(self):
        """Smallest level whose higher-level minimal sets share a member.

        Returns ``(level, hypothesis, diagnostics)``.  The top level always
        qualifies, so the scan is total; inconclusive searches count as
        empty, which can only push the level upward.
        """
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
    def source(self) -> LevelContext:
        return LevelContext(self.hierarchy, self.source_sample, self.cfg)

    @cached_property
    def target_scan(self):
        return LevelContext(self.hierarchy, self.target_sample, self.cfg).scan()


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
    lhs = rhs = None
    accepted = True
    if n_hold:
        a = complexity_term(n_hold, cfg.delta, 1)
        runs_c, runs_t = candidate.runs(holdout_sample.xs), target_h.runs(holdout_sample.xs)
        lhs = holdout_sample.mistakes(runs_c) / n_hold - holdout_sample.mistakes(runs_t) / n_hold
        dis = disagreement_count(runs_c, runs_t, n_hold) / n_hold
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
    chosen, _ = algorithm2(fit, fit.source.erm(level).hypothesis)
    return chosen


def target_only_srm(fit: Fit):
    """Baseline that ignores the source entirely: the target's own level scan."""
    return fit.target_scan[1]
