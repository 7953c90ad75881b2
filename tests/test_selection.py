"""Minimal sets, the level scan, and the adaptive source/target procedures."""

import functools
import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from transel.classifiers import BoundaryHypothesis, TabularHypothesis
from transel.distributions import LabeledSample
from transel.families import build_gap_family, build_threshold_nn, build_two_point_family
from transel.erm import (
    SEARCH_EMPTY,
    SEARCH_FOUND,
    BoundaryClassHierarchy,
    FiniteClassHierarchy,
    OneSidedThresholdHierarchy,
    hypothesis_sort_key,
    mistake_count,
)
from transel.selection import (
    BRANCH_SOURCE,
    BRANCH_TARGET,
    Fit,
    LevelContext,
    SelectionConfig,
    SelectionTrace,
    algorithm1,
    algorithm2,
    complexity_term,
    level_confidence,
    oracle_learner,
    target_only_srm,
)

from point_oracle import points


def _sample(xs, ys) -> LabeledSample:
    return LabeledSample.of_points(xs, ys)


def _labeled_by(truth: BoundaryHypothesis, n: int, seed: int, flip=0.0) -> LabeledSample:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=n)
    ys = truth.evaluate_many(xs).astype(np.int8)
    if flip > 0.0:
        swap = rng.random(n) < flip
        ys = np.where(swap, -ys, ys).astype(np.int8)
    return _sample(xs, ys)


class TestComplexityTerm:
    def test_hand_value(self):
        want = (2.0 * math.log(50.0) + math.log(10.0)) / 100.0
        assert complexity_term(100, 0.1, 2) == pytest.approx(want, rel=1e-15)

    def test_log_clamped_when_d_exceeds_n(self):
        assert complexity_term(3, 0.5, 10) == pytest.approx(math.log(2.0) / 3.0)

    @pytest.mark.parametrize("n,delta,d", [(0, 0.1, 1), (10, 0.0, 1), (10, 1.0, 1), (10, 0.1, 0)])
    def test_validation(self, n, delta, d):
        with pytest.raises(ValueError):
            complexity_term(n, delta, d)

    def test_decreasing_in_n(self):
        vals = [complexity_term(n, 0.05, 3) for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLevelConfidence:
    def test_values_with_level_zero_floor(self):
        assert level_confidence(0.2, 0, 0) == pytest.approx(0.05)
        assert level_confidence(0.2, 1, 0) == pytest.approx(0.05)
        assert level_confidence(0.2, 5, 0) == pytest.approx(0.2 / 30.0)

    def test_values_with_level_one_floor(self):
        assert level_confidence(0.2, 1, 1) == pytest.approx(0.1)

    @pytest.mark.parametrize("floor", [0, 1])
    def test_shares_sum_below_delta(self, floor):
        delta = 0.3
        total = sum(level_confidence(delta, i, floor) for i in range(floor, 200))
        assert total <= delta + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            level_confidence(0.0, 1, 0)
        with pytest.raises(ValueError):
            level_confidence(0.1, 0, 1)


class TestSelectionConfig:
    def test_round_trip(self):
        cfg = SelectionConfig(C=2.0, c=0.5, delta=0.1, L_max=3, budget=100)
        assert SelectionConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"C": 0.0},
            {"c": -1.0},
            {"delta": 1.0},
            {"budget": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)


class TestMinimalSets:
    def test_erm_is_always_a_member(self):
        hierarchy = BoundaryClassHierarchy(max_level=3)
        cfg = SelectionConfig()
        sample = _labeled_by(BoundaryHypothesis((0.4,), 1), 200, seed=5, flip=0.1)
        ctx = LevelContext(hierarchy, sample, cfg)
        for level in range(4):
            erm = hierarchy.erm(sample, level).hypothesis
            assert ctx.is_member(erm, level)

    def test_bad_hypothesis_excluded_at_large_n(self):
        truth = BoundaryHypothesis((0.5,), 1)
        hierarchy = BoundaryClassHierarchy(max_level=2)
        cfg = SelectionConfig()
        sample = _labeled_by(truth, 5000, seed=1)
        wrong = BoundaryHypothesis((0.5,), -1)
        assert not LevelContext(hierarchy, sample, cfg).is_member(wrong, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pointwise_slack_test(self, seed):
        hierarchy, cfg = BoundaryClassHierarchy(max_level=3), SelectionConfig(C=0.5, c=0.5)
        truth = BoundaryHypothesis((0.3, 0.6), 1)
        rng = np.random.default_rng(seed)
        xs = np.round(rng.uniform(0.0, 1.0, size=14), 1)
        ys = np.where(rng.random(14) < 0.2, -1, 1) * truth.evaluate_many(xs)
        sample = _sample(xs, ys)
        n = len(sample)
        ctx = LevelContext(hierarchy, sample, cfg)
        point_xs, point_ys = points(sample)
        for level in range(4):
            erm = hierarchy.erm(sample, level)
            a = complexity_term(n, level_confidence(cfg.delta, level, 0), hierarchy.vc_dim(level))
            for h in hierarchy.enumerate_on(np.unique(sample.xs), 3):
                gap = (int(np.sum(h.evaluate_many(point_xs) != point_ys)) - erm.mistakes) / n
                dis = float(np.mean(
                    h.evaluate_many(point_xs) != erm.hypothesis.evaluate_many(point_xs)
                ))
                want = gap <= cfg.C * math.sqrt(dis * a) + cfg.c * a
                assert ctx.is_member(h, level) == want

    def test_everything_is_member_of_empty_sample_set(self):
        hierarchy = BoundaryClassHierarchy(max_level=1)
        cfg = SelectionConfig()
        s = _sample([], [])
        assert LevelContext(hierarchy, s, cfg).is_member(BoundaryHypothesis((), -1), 1)

    def test_empty_sample_cap_and_sets_answer(self):
        hierarchy = BoundaryClassHierarchy(max_level=2)
        ctx = LevelContext(hierarchy, _sample([], []), SelectionConfig())
        for level in (0, 1, 2):
            assert ctx.mistake_cap(level) == 0
            assert ctx.in_all_sets(BoundaryHypothesis((0.5,), -1), 0, level)

    def test_level_out_of_range(self):
        hierarchy = BoundaryClassHierarchy(max_level=1)
        for sample in (_sample([0.0], [1]), _sample([], [])):
            ctx = LevelContext(hierarchy, sample, SelectionConfig())
            with pytest.raises(ValueError, match="level 2 outside the configured range"):
                ctx.is_member(BoundaryHypothesis((), 1), 2)
            with pytest.raises(ValueError, match="level 2 outside the configured range"):
                ctx.intersection(2)


class TestIntersectionScan:
    def test_representative_found_on_clean_data(self):
        truth = BoundaryHypothesis((0.3, 0.7), 1)
        hierarchy = BoundaryClassHierarchy(max_level=4)
        sample = _labeled_by(truth, 3000, seed=2)
        res = LevelContext(hierarchy, sample, SelectionConfig()).intersection(2)
        assert res.status == SEARCH_FOUND
        assert res.mistakes == 0

    def test_scan_recovers_true_complexity(self):
        truth = BoundaryHypothesis((0.3, 0.7), 1)
        hierarchy = BoundaryClassHierarchy(max_level=4)
        sample = _labeled_by(truth, 3000, seed=3)
        level, h, _ = LevelContext(hierarchy, sample, SelectionConfig()).scan()
        assert level == 2
        xs, ys = points(sample)
        assert np.array_equal(h.evaluate_many(xs), ys)

    def test_scan_on_constant_data_stops_at_floor(self):
        hierarchy = BoundaryClassHierarchy(max_level=3)
        sample = _labeled_by(BoundaryHypothesis((), -1), 500, seed=4)
        level, h, _ = LevelContext(hierarchy, sample, SelectionConfig()).scan()
        assert level == 0
        assert h == BoundaryHypothesis((), -1)

    def test_empty_sample_returns_floor(self):
        hierarchy = BoundaryClassHierarchy(max_level=3)
        level, h, _ = LevelContext(hierarchy, _sample([], []), SelectionConfig()).scan()
        assert level == 0
        assert h == BoundaryHypothesis((), 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_tiny_budget_never_selects_lower(self, seed):
        hierarchy = BoundaryClassHierarchy(max_level=3)
        sample = _labeled_by(BoundaryHypothesis((0.4, 0.6), 1), 300, seed=seed, flip=0.05)
        lo, _, _ = LevelContext(hierarchy, sample, SelectionConfig()).scan()
        hi, _, _ = LevelContext(hierarchy, sample, SelectionConfig(budget=1)).scan()
        assert hi >= lo

    def test_l_max_truncates(self):
        truth = BoundaryHypothesis((0.3, 0.7), 1)
        hierarchy = BoundaryClassHierarchy(max_level=4)
        sample = _labeled_by(truth, 1000, seed=8)
        level, _, _ = LevelContext(hierarchy, sample, SelectionConfig(L_max=1)).scan()
        assert level <= 1


_BOUNDARY_HIERARCHIES = (BoundaryClassHierarchy(max_level=3), OneSidedThresholdHierarchy(max_level=3))


def _coarse_sample(rng, n: int) -> LabeledSample:
    """n points on a 0.1 grid, so that some coincide, with fair-coin labels."""
    return _sample(np.round(rng.random(n), 1), np.where(rng.random(n) < 0.5, 1, -1))


class TestIntersectionSearch:
    """``LevelContext.intersection`` and ``mistake_cap`` against exhaustive
    ``is_member`` checks, at slacks small enough that many intersections are
    empty."""

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(1, 12),
        which=st.integers(0, 1),
        coef=st.sampled_from([0.25, 0.05]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_scan(self, seed, n, which, coef):
        hierarchy = _BOUNDARY_HIERARCHIES[which]
        ctx = LevelContext(hierarchy, _coarse_sample(np.random.default_rng(seed), n),
                           SelectionConfig(C=coef, c=coef))
        member = functools.cache(ctx.is_member)
        for i in range(hierarchy.min_level, ctx.top + 1):
            ranked = sorted(
                hierarchy.enumerate_on(np.unique(ctx.sample.xs), i),
                key=lambda h: (mistake_count(h, ctx.sample), hypothesis_sort_key(h)),
            )
            members = [h for h in ranked if all(member(h, j) for j in range(i, ctx.top + 1))]
            res = ctx.intersection(i)
            assert res.status == (SEARCH_FOUND if members else SEARCH_EMPTY)
            assert res.hypothesis == (members[0] if members else None)
            cap = ctx.mistake_cap(i)
            loose = min(ctx.erm(j).mistakes + n * ctx.slack(j, 1.0) for j in range(i, ctx.top + 1))
            assert cap <= math.floor(loose + 1e-9)
            assert all(mistake_count(h, ctx.sample) <= cap for h in members)

    def test_cap_keeps_a_member_at_equality(self):
        # ERM: the threshold at 7.5 with one mistake.  The constant +1 errs on
        # 1..7 and disagrees with it on 0..7, so with A = 1/8 its gap 6/16
        # equals the slack sqrt(8/16 * A) + A exactly, and s**2 - m_1 = 7
        # evaluates to 6.999999999999998.
        xs = np.arange(16.0)
        ys = np.where(xs < 8, -1, 1)
        ys[0] = 1
        hierarchy = OneSidedThresholdHierarchy(max_level=1)
        ctx = LevelContext(hierarchy, _sample(xs, ys), SelectionConfig())
        ctx.comp[1] = 0.125
        const = BoundaryHypothesis((), 1)
        assert ctx.erm(1) == hierarchy.erm(ctx.sample, 1)
        assert ctx.erm(1).mistakes == 1
        assert mistake_count(const, ctx.sample) == 7 and ctx.is_member(const, 1)
        assert ctx.mistake_cap(1) == 7

        def search(mistakes):
            return hierarchy.search_min_mistakes(
                ctx.sample, 1, lambda h, m: m == mistakes and ctx.in_all_sets(h, m, 1),
                mistake_cap=ctx.mistake_cap(1), workspace=ctx.workspace,
            )

        assert search(7).hypothesis == const
        assert search(8).status == SEARCH_EMPTY


@functools.cache
def _erm_invariant_hierarchies():
    """Both boundary hierarchies, the gap family's and the two-point family's classes."""
    gap = build_gap_family(2.0, 1.0, 1000, 10, enforce_regime=False)[0]
    two_point = build_two_point_family(0.01, 10)[0]
    return (*((h, None) for h in _BOUNDARY_HIERARCHIES),
            (gap.hierarchy, gap.source), (two_point.hierarchy, two_point.target))


@given(index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_contained_higher_erm_is_the_level_erm(index, seed, n):
    """Why ``intersection`` tries only the level ERM before searching: a
    higher level's ERM that lies in a lower class is that class's ERM."""
    hierarchy, dist = _erm_invariant_hierarchies()[index]
    rng = np.random.default_rng(seed)
    sample = _coarse_sample(rng, n) if dist is None else dist.sample(n, rng)
    ctx = LevelContext(hierarchy, sample, SelectionConfig())
    for i in range(hierarchy.min_level, ctx.top + 1):
        for j in range(i + 1, ctx.top + 1):
            if hierarchy.contains(ctx.erm(j).hypothesis, i):
                assert ctx.erm(j).hypothesis == ctx.erm(i).hypothesis


class TestHoldoutArbitration:
    def _setup(self, n_target=60, n_hold=400, seed=10):
        truth = BoundaryHypothesis((0.5,), 1)
        hierarchy = BoundaryClassHierarchy(max_level=3)
        target = _labeled_by(truth, n_target, seed=seed)
        hold = _labeled_by(truth, n_hold, seed=seed + 1)
        return truth, hierarchy, target, hold

    def test_good_candidate_accepted(self):
        truth, hierarchy, target, hold = self._setup()
        chosen, trace = algorithm2(Fit(hierarchy, None, target, hold, SelectionConfig()), truth)
        assert trace.branch == BRANCH_SOURCE
        assert chosen == truth
        assert trace.test_lhs <= trace.test_rhs

    def test_bad_candidate_rejected(self):
        truth, hierarchy, target, hold = self._setup()
        bad = BoundaryHypothesis((0.5,), -1)
        chosen, trace = algorithm2(Fit(hierarchy, None, target, hold, SelectionConfig()), bad)
        assert trace.branch == BRANCH_TARGET
        assert chosen == trace.target_hypothesis
        assert trace.chosen_level == trace.target_level

    def test_empty_holdout_accepts(self):
        truth, hierarchy, target, _ = self._setup()
        bad = BoundaryHypothesis((0.5,), -1)
        fit = Fit(hierarchy, None, target, _sample([], []), SelectionConfig())
        chosen, trace = algorithm2(fit, bad)
        assert trace.branch == BRANCH_SOURCE
        assert chosen == bad
        assert trace.holdout_size == 0
        # The test's sides stay None and no level is chosen.
        target_level, target_h, diagnostics = fit.target_scan
        assert trace == SelectionTrace(
            branch=BRANCH_SOURCE, chosen_hypothesis=bad, target_level=target_level,
            candidate=bad, target_hypothesis=target_h, holdout_size=0,
            diagnostics={"target": diagnostics})


class TestAdaptiveProcedure:
    def test_source_branch_on_shared_truth(self):
        truth = BoundaryHypothesis((0.25, 0.75), 1)
        hierarchy = BoundaryClassHierarchy(max_level=4)
        source = _labeled_by(truth, 4000, seed=20)
        target = _labeled_by(truth, 40, seed=21)
        hold = _labeled_by(truth, 40, seed=22)
        chosen, trace = algorithm1(Fit(hierarchy, source, target, hold, SelectionConfig()))
        assert trace.branch == BRANCH_SOURCE
        assert trace.source_level == 2
        assert trace.chosen_level == 2
        xs, ys = points(source)
        assert np.array_equal(chosen.evaluate_many(xs), ys)
        assert set(trace.diagnostics) == {"source", "target"}

    def test_target_branch_on_flipped_source(self):
        hierarchy = BoundaryClassHierarchy(max_level=2)
        source = _labeled_by(BoundaryHypothesis((0.5,), -1), 4000, seed=30)
        target = _labeled_by(BoundaryHypothesis((0.5,), 1), 300, seed=31)
        hold = _labeled_by(BoundaryHypothesis((0.5,), 1), 300, seed=32)
        chosen, trace = algorithm1(Fit(hierarchy, source, target, hold, SelectionConfig()))
        assert trace.branch == BRANCH_TARGET
        assert chosen.evaluate(0.25) == 1 and chosen.evaluate(0.8) == -1

    def test_deterministic_given_samples(self):
        truth = BoundaryHypothesis((0.4,), 1)
        hierarchy = BoundaryClassHierarchy(max_level=3)
        source = _labeled_by(truth, 500, seed=40, flip=0.05)
        target = _labeled_by(truth, 50, seed=41, flip=0.05)
        hold = _labeled_by(truth, 50, seed=42, flip=0.05)
        first = algorithm1(Fit(hierarchy, source, target, hold, SelectionConfig()))
        second = algorithm1(Fit(hierarchy, source, target, hold, SelectionConfig()))
        assert first == second


class TestOracleAndBaseline:
    def test_oracle_uses_requested_level(self):
        truth = BoundaryHypothesis((0.3, 0.7), 1)
        hierarchy = BoundaryClassHierarchy(max_level=4)
        source = _labeled_by(truth, 3000, seed=50)
        target = _labeled_by(truth, 30, seed=51)
        hold = _labeled_by(truth, 30, seed=52)
        h = oracle_learner(Fit(hierarchy, source, target, hold, SelectionConfig()), 2)
        assert h == hierarchy.erm(source, 2).hypothesis

    def test_oracle_level_validated(self):
        hierarchy = BoundaryClassHierarchy(max_level=2)
        s = _sample([0.0], [1])
        with pytest.raises(ValueError):
            oracle_learner(Fit(hierarchy, s, s, s, SelectionConfig()), 3)

    def test_target_only_matches_level_scan(self):
        truth = BoundaryHypothesis((0.6,), -1)
        hierarchy = BoundaryClassHierarchy(max_level=3)
        target = _labeled_by(truth, 400, seed=60)
        cfg = SelectionConfig()
        assert target_only_srm(Fit(hierarchy, None, target, None, cfg)) == LevelContext(
            hierarchy, target, cfg
        ).scan()[1]


_SUPPORT = (0.0, 0.25, 0.5, 0.75, 1.0)
_TABULAR_CFG = SelectionConfig(C=0.3, c=0.3)
# source scan at level 1, source scan at level 2, a target fallback, and a
# level-1 pick that the search finds past the level ERMs
_TABULAR_SEEDS = (0, 7, 60, 161)


def _tabular_hierarchy() -> FiniteClassHierarchy:
    """Every labeling of five points; level i holds those with <= i sign changes."""
    levels = {1: [], 2: [], 3: []}
    for labels in itertools.product((1, -1), repeat=len(_SUPPORT)):
        changes = sum(a != b for a, b in zip(labels, labels[1:]))
        for level, members in levels.items():
            if changes <= level or level == 3:
                members.append(TabularHypothesis(_SUPPORT, labels))
    return FiniteClassHierarchy(levels, vc_dims=(2, 3, 5))


def _tabular_samples(seed: int):
    """Source, target and holdout samples, each from its own random law on the support."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        n = int(rng.integers(10, 120))
        mass, p_plus = rng.dirichlet(np.ones(len(_SUPPORT))), rng.uniform(0, 1, len(_SUPPORT))
        idx = rng.choice(len(_SUPPORT), size=n, p=mass)
        out.append(_sample(np.asarray(_SUPPORT)[idx], np.where(rng.random(n) < p_plus[idx], 1, -1)))
    return out


def _exhaustive_scan(hierarchy, sample, cfg):
    """The level scan from first principles: at each level, the level ERMs
    and then the whole class in increasing-mistake order, each checked by
    ``LevelContext.is_member`` at every level above."""
    top = hierarchy.max_level
    member = functools.cache(LevelContext(hierarchy, sample, cfg).is_member)

    for i in range(hierarchy.min_level, top + 1):
        erms = [hierarchy.erm(sample, j).hypothesis for j in range(i, top + 1)]
        ranked = sorted(
            hierarchy.levels[i], key=lambda h: (mistake_count(h, sample), hypothesis_sort_key(h))
        )
        for h in [e for e in erms if hierarchy.contains(e, i)] + ranked:
            if all(member(h, j) for j in range(i, top + 1)):
                return i, h
    raise AssertionError("the top level always has a member")


class TestTabularFallback:
    """Tabular classes are read through their runs, as boundary classes are."""

    @pytest.mark.parametrize("seed", _TABULAR_SEEDS)
    def test_algorithm1_matches_exhaustive(self, seed):
        hierarchy, cfg = _tabular_hierarchy(), _TABULAR_CFG
        source, target, hold = _tabular_samples(seed)
        source_level, rep = _exhaustive_scan(hierarchy, source, cfg)
        target_level, target_h = _exhaustive_scan(hierarchy, target, cfg)
        assert LevelContext(hierarchy, source, cfg).scan()[:2] == (source_level, rep)

        chosen, trace = algorithm1(Fit(hierarchy, source, target, hold, cfg))
        assert (trace.source_level, trace.candidate) == (source_level, rep)
        assert (trace.target_level, trace.target_hypothesis) == (target_level, target_h)
        a = complexity_term(len(hold), cfg.delta, 1)
        hold_xs, hold_ys = points(hold)
        dis = float(np.mean(rep.evaluate_many(hold_xs) != target_h.evaluate_many(hold_xs)))
        lhs = (float(np.mean(rep.evaluate_many(hold_xs) != hold_ys))
               - float(np.mean(target_h.evaluate_many(hold_xs) != hold_ys)))
        rhs = math.sqrt(dis * a) + cfg.c * a
        assert (trace.test_lhs, trace.test_rhs) == (lhs, rhs)
        assert chosen == (rep if lhs <= rhs else target_h)

    def test_boundary_candidate_against_tabular_pick(self):
        hierarchy, cfg = _tabular_hierarchy(), _TABULAR_CFG
        _, target, hold = _tabular_samples(60)
        candidate = BoundaryHypothesis((0.6,), -1)
        _, trace = algorithm2(Fit(hierarchy, None, target, hold, cfg), candidate)
        target_h = trace.target_hypothesis
        a = complexity_term(len(hold), cfg.delta, 1)
        hold_xs = points(hold)[0]
        dis = float(np.mean(candidate.evaluate_many(hold_xs) != target_h.evaluate_many(hold_xs)))
        assert trace.test_rhs == math.sqrt(dis * a) + cfg.c * a

    def test_seeds_cover_levels_search_and_both_branches(self):
        hierarchy, cfg = _tabular_hierarchy(), _TABULAR_CFG
        levels, branches, past_erms = set(), set(), False
        for seed in _TABULAR_SEEDS:
            source, target, hold = _tabular_samples(seed)
            _, trace = algorithm1(Fit(hierarchy, source, target, hold, cfg))
            erms = {hierarchy.erm(source, j).hypothesis for j in (1, 2, 3)}
            levels.add(trace.source_level)
            branches.add(trace.branch)
            past_erms |= trace.candidate not in erms
        assert levels == {1, 2}
        assert branches == {BRANCH_SOURCE, BRANCH_TARGET}
        assert past_erms


@functools.cache
def _shared_fit_instances():
    """The four gap instances and a 3-level staircase."""
    return (*build_gap_family(2.0, 1.0, 1000, 10, enforce_regime=False),
            build_threshold_nn((1.0, 2.0, 4.0)))


class TestSharedFit:
    """Learners on one shared ``Fit`` against each on a fresh ``Fit`` of its own.

    The fresh side follows the code paths of separate fits: the oracle's
    candidate is a workspace-free ``hierarchy.erm``, and each scan runs on
    a context of its own.
    """

    @given(
        index=st.integers(0, 4),
        seed=st.integers(0, 2 ** 32 - 1),
        n_p=st.integers(0, 400),
        n_q=st.integers(0, 40),
        coef=st.sampled_from([0.25, 1.0]),
        level=st.integers(0, 3),
    )
    @example(index=4, seed=0, n_p=5, n_q=40, coef=0.25, level=2)  # target fallback
    @settings(max_examples=40, deadline=None)
    def test_every_order_matches_fresh_fits(self, index, seed, n_p, n_q, coef, level):
        instance = _shared_fit_instances()[index]
        hierarchy = instance.hierarchy
        level = min(max(level, hierarchy.min_level), hierarchy.max_level)
        rng = np.random.default_rng(seed)
        s_p = instance.source.sample(n_p, rng)
        s_q, s_hold = instance.target.sample(n_q, rng), instance.target.sample(n_q, rng)
        cfg = SelectionConfig(C=coef, c=coef)

        def fresh():
            return Fit(hierarchy, s_p, s_q, s_hold, cfg)

        candidate = hierarchy.erm(s_p, level).hypothesis
        expected = {
            "algorithm1": algorithm1(fresh()),
            "oracle": algorithm2(fresh(), candidate)[0],
            "target_only": LevelContext(hierarchy, s_q, cfg).scan()[1],
        }
        assert expected["algorithm1"][1].source_level == LevelContext(hierarchy, s_p, cfg).scan()[0]
        learners = {
            "algorithm1": algorithm1,
            "oracle": lambda fit: oracle_learner(fit, level),
            "target_only": target_only_srm,
        }
        for order in itertools.permutations(learners):
            fit = fresh()
            for name in order:
                assert learners[name](fit) == expected[name], (order, name)
