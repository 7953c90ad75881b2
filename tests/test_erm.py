"""Exact ERM: dynamic program vs exhaustive search, and best-first enumeration."""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from transel.classifiers import BoundaryHypothesis, TabularHypothesis
from transel.distributions import LabeledSample
from transel.erm import (
    DEFAULT_POP_CAP,
    SEARCH_EMPTY,
    SEARCH_FOUND,
    SEARCH_INCONCLUSIVE,
    BoundaryClassHierarchy,
    ErmResult,
    FiniteClassHierarchy,
    OneSidedThresholdHierarchy,
    SearchResult,
    _DpWorkspace,
    erm_bruteforce,
    hypothesis_sort_key,
    mistake_count,
)
from transel.families import build_gap_family, build_threshold_nn, build_two_point_family
from transel.selection import LevelContext, SelectionConfig

from point_oracle import points


def _sample(xs, ys) -> LabeledSample:
    return LabeledSample.of_points(xs, ys)


def _random_case(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 13))
    # one-decimal grid forces duplicate x values with conflicting labels
    xs = np.round(rng.uniform(0.0, 1.0, size=n), 1)
    ys = rng.choice([-1, 1], size=n)
    if rng.random() < 0.5:
        hierarchy = BoundaryClassHierarchy(max_level=int(rng.integers(0, 5)))
    else:
        hierarchy = OneSidedThresholdHierarchy(max_level=int(rng.integers(1, 5)))
    level = int(rng.integers(hierarchy.min_level, hierarchy.max_level + 1))
    return _sample(xs, ys), hierarchy, level


class TestCounting:
    def test_mistake_count(self):
        s = _sample([0.0, 0.5, 1.0], [1, -1, 1])
        assert mistake_count(BoundaryHypothesis((), 1), s) == 1
        assert mistake_count(BoundaryHypothesis((0.25, 0.75), 1), s) == 0
        assert mistake_count(TabularHypothesis((0.0, 0.5, 1.0), (1, 1, -1)), s) == 2

    def test_empty_sample(self):
        s = _sample([], [])
        assert mistake_count(BoundaryHypothesis((), 1), s) == 0
        assert mistake_count(BoundaryHypothesis((0.5,), -1), s) == 0
        assert mistake_count(TabularHypothesis((0.0,), (1,)), s) == 0


class TestSortKey:
    def test_orders_by_count_then_cuts_then_sign(self):
        hs = [
            BoundaryHypothesis((0.5,), -1),
            BoundaryHypothesis((), -1),
            BoundaryHypothesis((0.5,), 1),
            BoundaryHypothesis((), 1),
            BoundaryHypothesis((0.25,), 1),
        ]
        ordered = sorted(hs, key=hypothesis_sort_key)
        assert ordered == [
            BoundaryHypothesis((), 1),
            BoundaryHypothesis((), -1),
            BoundaryHypothesis((0.25,), 1),
            BoundaryHypothesis((0.5,), 1),
            BoundaryHypothesis((0.5,), -1),
        ]

    def test_tabular_and_unknown(self):
        t = TabularHypothesis((0.0,), (1,))
        assert hypothesis_sort_key(t)[0] == 1
        with pytest.raises(TypeError):
            hypothesis_sort_key(object())


class TestDpAgainstBruteforce:
    @pytest.mark.parametrize("seed", range(80))
    def test_random_cases(self, seed):
        sample, hierarchy, level = _random_case(seed)
        budgets = hierarchy.flip_budgets(level)
        got = hierarchy.erm(sample, level)
        want = erm_bruteforce(sample, budgets)
        assert got.mistakes == want.mistakes
        assert got.hypothesis == want.hypothesis
        assert hierarchy.contains(got.hypothesis, level)
        assert mistake_count(got.hypothesis, sample) == got.mistakes

    def test_duplicate_points_with_conflicts(self):
        # each site carries a conflicting label, so one mistake per site is forced
        s = _sample([0.1, 0.1, 0.1, 0.7, 0.7], [1, 1, -1, -1, 1])
        h = BoundaryClassHierarchy(max_level=2)
        res = h.erm(s, 1)
        assert res.mistakes == erm_bruteforce(s, {1: 1, -1: 1}).mistakes == 2

    def test_separable_data_is_fit_exactly(self):
        truth = BoundaryHypothesis((0.3, 0.6), -1)
        xs = np.linspace(0.0, 1.0, 11)
        s = _sample(xs, truth.evaluate_many(xs))
        res = BoundaryClassHierarchy(max_level=3).erm(s, 2)
        assert res.mistakes == 0
        assert np.array_equal(res.hypothesis.evaluate_many(xs), points(s)[1])

    def test_empty_sample_constant(self):
        s = _sample([], [])
        res = BoundaryClassHierarchy(max_level=2).erm(s, 1)
        assert res.hypothesis == BoundaryHypothesis((), 1)
        assert res.mistakes == 0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_mistakes_match_property(self, seed):
        sample, hierarchy, level = _random_case(seed)
        got = hierarchy.erm(sample, level)
        want = erm_bruteforce(sample, hierarchy.flip_budgets(level))
        assert got.mistakes == want.mistakes

    def test_bruteforce_size_guard(self):
        s = _sample(np.arange(21.0), np.ones(21))
        with pytest.raises(ValueError):
            erm_bruteforce(s, {1: 1, -1: 1})


_HIERARCHIES = (BoundaryClassHierarchy(max_level=4), OneSidedThresholdHierarchy(max_level=4))


@st.composite
def _labeled_samples(draw, max_n=20):
    """Up to ``max_n`` points with repeated xs on a coarse grid or distinct
    ones, labeled by fair coins, by a noisy few-boundary rule or by one label."""
    n = draw(st.integers(0, max_n))
    grid = draw(st.sampled_from((4, 10, 1000)))
    xs = np.asarray(draw(st.lists(st.integers(0, grid), min_size=n, max_size=n)), float) / grid
    kind = draw(st.sampled_from(("bernoulli", "rule", "single")))
    if kind == "bernoulli":
        ys = np.asarray(draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)))
    elif kind == "rule":
        cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=3)))
        ys = np.where(np.searchsorted(cuts, xs) % 2 == 0, 1, -1)
        flip = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)) if n else []
        ys[flip] *= -1
    else:
        ys = np.full(n, draw(st.sampled_from((-1, 1))))
    return _sample(xs, ys)


def _max_flips(hierarchy) -> int:
    return max(hierarchy.flip_budgets(hierarchy.max_level).values())


class TestRunLevelTables:
    """Level ERMs come from tables over label runs; the point-level tables
    over distinct xs and brute force are their oracles."""

    @given(sample=_labeled_samples(), which=st.integers(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_level_erm_matches_points_and_bruteforce(self, sample, which):
        hierarchy = _HIERARCHIES[which]
        runs = hierarchy.make_workspace(sample).runs
        points = _DpWorkspace.of_points(sample, _max_flips(hierarchy))
        for level in range(hierarchy.min_level, hierarchy.max_level + 1):
            budgets = hierarchy.flip_budgets(level)
            got = runs.canonical_erm(budgets)
            assert got == points.canonical_erm(budgets)
            assert got == erm_bruteforce(sample, budgets)

    @given(sample=_labeled_samples(max_n=40), which=st.integers(0, 1),
           level=st.integers(1, 4), cap=st.integers(-1, 12), accept_at=st.integers(1, 30),
           pop_cap=st.sampled_from((3, 20, DEFAULT_POP_CAP)))
    @settings(max_examples=300, deadline=None)
    def test_search_matches_a_fresh_point_level_workspace(
        self, sample, which, level, cap, accept_at, pop_cap
    ):
        hierarchy = _HIERARCHIES[which]
        budgets = hierarchy.flip_budgets(level)

        def run(ws):
            popped = []

            def predicate(h, m):
                popped.append((h, m))
                return len(popped) == accept_at

            return ws.search(budgets, predicate, cap, pop_cap), popped

        shared = hierarchy.make_workspace(sample)
        got, got_popped = run(shared)
        want, want_popped = run(_DpWorkspace.of_points(sample, _max_flips(hierarchy)))
        assert got == want
        assert got_popped == want_popped
        if cap < shared.canonical_erm(budgets).mistakes:
            assert got.pops == 0 and got.status == SEARCH_EMPTY
            assert "points" not in shared.__dict__

    def test_runs_of_a_mixed_sample(self):
        # 0.1 and 0.7 each hold both labels and are runs of their own
        s = _sample([0.0, 0.1, 0.1, 0.2, 0.3, 0.7, 0.7, 0.9], [1, -1, 1, 1, 1, 1, -1, -1])
        runs = _DpWorkspace.of_runs(s, 1)
        assert runs.left.tolist() == [0.0, 0.1, 0.2, 0.7, 0.9]
        assert runs.right.tolist() == [0.0, 0.1, 0.3, 0.7, 0.9]
        # mistakes of a constant +1 (the -1 labels) and -1 tail from each run on
        assert runs.cs[:, 0].tolist() == [3, 3, 2, 2, 1, 0]
        assert runs.cs[:, 1].tolist() == [5, 4, 3, 1, 0, 0]

    @pytest.mark.parametrize(
        "xs, ys, m",
        [([], [], 0), ([0.5], [-1], 1), ([0.1, 0.2, 0.3], [1, 1, 1], 1),
         ([0.3, 0.3, 0.3], [1, -1, 1], 1)],
        ids=["empty", "one_point", "single_label", "one_mixed_x"],
    )
    def test_degenerate_samples(self, xs, ys, m):
        s = _sample(xs, ys)
        ws = BoundaryClassHierarchy(max_level=2).make_workspace(s)
        assert ws.runs.m == m
        for level in range(3):
            budgets = {1: level, -1: level}
            assert ws.canonical_erm(budgets) == erm_bruteforce(s, budgets)

    @given(sample=_labeled_samples(max_n=40), which=st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_point_tables_replace_the_run_tables(self, sample, which):
        hierarchy = _HIERARCHIES[which]
        levels = range(hierarchy.min_level, hierarchy.max_level + 1)
        ws = hierarchy.make_workspace(sample)
        before = [ws.canonical_erm(hierarchy.flip_budgets(level)) for level in levels]
        res = ws.search(hierarchy.flip_budgets(hierarchy.max_level), lambda h, m: True)
        assert res.status == SEARCH_FOUND and res.pops >= 1
        assert ws.runs is ws.points
        assert [ws.canonical_erm(hierarchy.flip_budgets(level)) for level in levels] == before

    def test_point_tables_are_int32(self):
        rng = np.random.default_rng(0)
        s = _sample(rng.random(1000), rng.choice([-1, 1], 1000))
        points = BoundaryClassHierarchy(max_level=3).make_workspace(s).points
        points.search({1: 3, -1: 3}, lambda h, m: m > 400)
        assert {t.dtype for t in points.tables} == {np.dtype(np.int32)}
        assert {a.dtype for aux in points._aux_cache.values() for a in aux} == {
            np.dtype(np.int32)
        }

    def test_staircase_scan_leaves_the_point_tables_unbuilt(self):
        instance = build_threshold_nn([1.0, 1.25, 1.5, 2.0, 3.0, 4.0])
        sample = instance.source.sample(100_000, np.random.default_rng(0))
        ctx = LevelContext(instance.hierarchy, sample, SelectionConfig())
        ctx.scan()
        assert ctx.workspace.runs.m <= 5
        assert "points" not in ctx.workspace.__dict__


class TestBestFirstSearch:
    def test_accept_all_returns_canonical_erm(self):
        for seed in range(25):
            sample, hierarchy, level = _random_case(seed)
            res = hierarchy.search_min_mistakes(sample, level, lambda h, m: True)
            erm = hierarchy.erm(sample, level)
            assert res.status == SEARCH_FOUND
            assert res.hypothesis == erm.hypothesis
            assert res.mistakes == erm.mistakes

    def test_completions_in_nondecreasing_mistake_order(self):
        sample, _, _ = _random_case(3)
        hierarchy = BoundaryClassHierarchy(max_level=3)
        seen = []

        def log_all(h, m):
            seen.append(m)
            return False

        res = hierarchy.search_min_mistakes(sample, 2, log_all)
        assert res.status == SEARCH_EMPTY
        assert seen == sorted(seen)

    def test_targets_specific_hypothesis(self):
        xs = np.asarray([0.0, 0.25, 0.5, 0.75, 1.0])
        sample = _sample(xs, [1, -1, 1, -1, 1])
        hierarchy = BoundaryClassHierarchy(max_level=4)
        target = BoundaryHypothesis((0.125, 0.375), 1)
        res = hierarchy.search_min_mistakes(
            sample, 3, lambda h, m: h == target
        )
        assert res.status == SEARCH_FOUND
        assert res.hypothesis == target
        assert res.mistakes == mistake_count(target, sample)

    def test_mistake_cap_prunes_to_empty(self):
        sample = _sample([0.0, 1.0], [1, -1])
        hierarchy = BoundaryClassHierarchy(max_level=0)
        res = hierarchy.search_min_mistakes(
            sample, 0, lambda h, m: False, mistake_cap=0
        )
        assert res.status == SEARCH_EMPTY

    def test_pop_cap_reports_inconclusive(self):
        sample, _, _ = _random_case(11)
        hierarchy = BoundaryClassHierarchy(max_level=2)
        res = hierarchy.search_min_mistakes(
            sample, 2, lambda h, m: False, pop_cap=1
        )
        assert res.status == SEARCH_INCONCLUSIVE
        assert res.pops == 2

    def test_empty_sample_search(self):
        s = _sample([], [])
        hierarchy = BoundaryClassHierarchy(max_level=1)
        res = hierarchy.search_min_mistakes(s, 1, lambda h, m: h.first_sign == -1)
        assert res.status == SEARCH_FOUND
        assert res.hypothesis == BoundaryHypothesis((), -1)


class TestHierarchies:
    def test_boundary_budgets_and_dims(self):
        h = BoundaryClassHierarchy(max_level=3)
        assert h.flip_budgets(2) == {1: 2, -1: 2}
        assert [h.vc_dim(i) for i in range(4)] == [1, 2, 3, 4]

    def test_one_sided_budgets_and_dims(self):
        h = OneSidedThresholdHierarchy(max_level=3)
        assert h.flip_budgets(1) == {-1: 1, 1: 0}
        assert h.flip_budgets(2) == {-1: 2, 1: 1}
        assert [h.vc_dim(i) for i in (1, 2, 3)] == [1, 2, 3]

    def test_one_sided_containment(self):
        h = OneSidedThresholdHierarchy(max_level=3)
        threshold = BoundaryHypothesis((0.5,), -1)
        reversed_threshold = BoundaryHypothesis((0.5,), 1)
        assert h.contains(threshold, 1)
        assert not h.contains(reversed_threshold, 1)
        assert h.contains(reversed_threshold, 2)

    def test_nesting(self):
        h = BoundaryClassHierarchy(max_level=4)
        pts = tuple(np.linspace(0.0, 1.0, 5))
        for level in range(4):
            for hyp in h.enumerate_on(pts, level):
                assert h.contains(hyp, level + 1)

    def test_enumerate_respects_class(self):
        h = OneSidedThresholdHierarchy(max_level=2)
        pts = (0.0, 0.5, 1.0)
        for hyp in h.enumerate_on(pts, 1):
            assert h.contains(hyp, 1)

    def test_level_range_validation(self):
        h = BoundaryClassHierarchy(max_level=2)
        with pytest.raises(ValueError):
            h.flip_budgets(3)
        with pytest.raises(ValueError):
            OneSidedThresholdHierarchy(max_level=0)


class TestFiniteClassHierarchy:
    def _build(self):
        a = BoundaryHypothesis((), 1)
        b = BoundaryHypothesis((), -1)
        c = BoundaryHypothesis((0.5,), 1)
        return FiniteClassHierarchy({1: (a, b), 2: (a, b, c)}, vc_dims=(1, 2)), (a, b, c)

    def test_erm_uses_sort_key_ties(self):
        hier, (a, b, c) = self._build()
        s = _sample([0.25, 0.75], [1, -1])
        # a and b each make one mistake, c none at level 2
        assert hier.erm(s, 1).hypothesis == a
        assert hier.erm(s, 2).hypothesis == c

    def test_search_and_contains(self):
        hier, (a, b, c) = self._build()
        s = _sample([0.25, 0.75], [1, -1])
        res = hier.search_min_mistakes(s, 2, lambda h, m: h == b)
        assert res.status == SEARCH_FOUND and res.hypothesis == b
        assert hier.contains(c, 2) and not hier.contains(c, 1)

    def test_nesting_validation(self):
        a = BoundaryHypothesis((), 1)
        c = BoundaryHypothesis((0.5,), 1)
        with pytest.raises(ValueError):
            FiniteClassHierarchy({1: (a, c), 2: (a,)}, vc_dims=(1, 1))
        with pytest.raises(ValueError):
            FiniteClassHierarchy({1: (a,), 3: (a, c)}, vc_dims=(1, 2))


def _mixed_finite_class():
    """Boundary and tabular classifiers on the support (0, 0.5, 1), listed out
    of canonical order, where behaviourally equal members tie on every sample."""
    support = (0.0, 0.5, 1.0)
    table = [TabularHypothesis(support, labels)
             for labels in itertools.product((1, -1), repeat=3)]
    level1 = (table[2], BoundaryHypothesis((), -1), BoundaryHypothesis((), 1))
    level2 = (BoundaryHypothesis((0.75,), -1), *level1, table[0], BoundaryHypothesis((0.25,), 1))
    level3 = (*table[::-1], BoundaryHypothesis((0.25, 0.75), 1), *level2[::-1])
    levels = {1: level1, 2: level2, 3: tuple(dict.fromkeys(level3))}
    return FiniteClassHierarchy(levels, vc_dims=(1, 2, 3)), support


_GAP_POINTS = (0.2, 1 / 3, 0.4, 4 / 9, 0.5, 5 / 9, 0.6, 2 / 3, 0.8, 1.0)
_FINITE_CLASSES = {
    "gap": (build_gap_family(4.0, 1.0, 10_000, 10, enforce_regime=False)[0].hierarchy,
            _GAP_POINTS),
    "two_point": (build_two_point_family(0.01, 10)[0].hierarchy, (0.0, 1.0)),
    "mixed": _mixed_finite_class(),
}


class TestFiniteRankingAgainstPerLevelSort:
    """A finite class ranks its top level once per sample; each level's ranking
    must stay the per-level sort by (mistakes, canonical key)."""

    @staticmethod
    def _oracle(hierarchy, sample, level):
        return sorted(((mistake_count(h, sample), h) for h in hierarchy.levels[level]),
                      key=lambda t: (t[0], hypothesis_sort_key(t[1])))

    @pytest.mark.parametrize("name", sorted(_FINITE_CLASSES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_erm_and_search_match(self, name, data):
        hierarchy, support = _FINITE_CLASSES[name]
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(support), st.sampled_from((-1, 1))), max_size=12))
        sample = _sample([x for x, _ in pairs], [y for _, y in pairs])
        ws = hierarchy.make_workspace(sample)
        for level in range(hierarchy.min_level, hierarchy.max_level + 1):
            ranking = self._oracle(hierarchy, sample, level)
            best_m, best_h = ranking[0]
            for workspace in (ws, None):
                assert hierarchy.erm(sample, level, workspace=workspace) == (
                    ErmResult(best_h, best_m))
            mistake_cap = data.draw(st.sampled_from((None, best_m, best_m + 1)))
            pop_cap = data.draw(st.sampled_from((1, 3, DEFAULT_POP_CAP)))
            accept = data.draw(st.sampled_from((None, *hierarchy.levels[level])))
            seen = []

            def record(h, m):
                seen.append((h, m))
                return h == accept

            res = hierarchy.search_min_mistakes(sample, level, record, mistake_cap=mistake_cap,
                                                pop_cap=pop_cap, workspace=ws)
            allowed = [(h, m) for m, h in ranking if mistake_cap is None or m <= mistake_cap]
            stop = next((i for i, (h, _) in enumerate(allowed) if h == accept), None)
            if stop is not None and stop < pop_cap:
                assert seen == allowed[:stop + 1]
                assert res == SearchResult(SEARCH_FOUND, accept, allowed[stop][1], stop + 1)
            elif len(allowed) > pop_cap:
                assert seen == allowed[:pop_cap]
                assert res == SearchResult(SEARCH_INCONCLUSIVE, None, None, pop_cap + 1)
            else:
                assert seen == allowed
                assert res == SearchResult(SEARCH_EMPTY, None, None, len(allowed))

    def test_one_count_per_top_level_member(self, monkeypatch):
        hierarchy, support = _FINITE_CLASSES["gap"]
        sample = _sample(support, [1, -1] * 5)
        calls = []
        monkeypatch.setattr("transel.erm.mistake_count",
                            lambda h, s: calls.append(h) or mistake_count(h, s))
        ws = hierarchy.make_workspace(sample)
        for level in (1, 2):
            hierarchy.erm(sample, level, workspace=ws)
            hierarchy.search_min_mistakes(sample, level, lambda h, m: False, workspace=ws)
        assert sorted(calls, key=hypothesis_sort_key) == sorted(
            hierarchy.levels[2], key=hypothesis_sort_key)
