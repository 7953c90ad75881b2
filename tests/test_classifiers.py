"""Boundary classifiers, their enumeration and VC dimension."""

import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from transel.classifiers import (
    BoundaryGrid,
    BoundaryHypothesis,
    TabularHypothesis,
    midpoints,
)
from transel.distributions import LabeledSample
from transel.erm import BoundaryClassHierarchy, FiniteClassHierarchy

from point_oracle import points
from risk_oracle import sign_on_interval_right_of


class TestBoundaryHypothesis:
    def test_constant_classifier(self):
        h = BoundaryHypothesis((), -1)
        assert list(h.evaluate_many(np.asarray([-10.0, 0.0, 10.0]))) == [-1, -1, -1]
        assert h.boundary_count == 0

    def test_alternation_table(self):
        h = BoundaryHypothesis((-1.0, 2.0, 5.5), first_sign=-1)
        xs = np.asarray([-5.0, -1.0, 0.0, 2.0, 3.0, 5.5, 6.0])
        assert list(h.evaluate_many(xs)) == [-1, -1, 1, 1, -1, -1, 1]

    def test_boundary_point_takes_left_label(self):
        h = BoundaryHypothesis((0.5,), 1)
        assert h.evaluate(0.5) == 1
        assert h.evaluate(0.5 + 1e-9) == -1
        assert sign_on_interval_right_of(h, 0.5) == -1

    @pytest.mark.parametrize("bad", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_unsorted_boundaries(self, bad):
        with pytest.raises(ValueError):
            BoundaryHypothesis(bad, 1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            BoundaryHypothesis((), 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoundaryHypothesis((math.inf,), 1)


# a coarse grid makes repeated xs and points exactly on a boundary common
_GRID_POINTS = tuple(i / 4.0 for i in range(9))
_GRID = st.sampled_from(_GRID_POINTS)
_BOUNDARY_CLASSIFIERS = st.builds(
    lambda cuts, sign: BoundaryHypothesis(tuple(sorted(cuts)), sign),
    st.sets(_GRID, max_size=4),
    st.sampled_from([-1, 1]),
)
_TABULAR_CLASSIFIERS = st.builds(
    lambda labels: TabularHypothesis(_GRID_POINTS, labels),
    st.lists(st.sampled_from([-1, 1]), min_size=len(_GRID_POINTS), max_size=len(_GRID_POINTS)),
)
_CLASSIFIERS = st.one_of(_BOUNDARY_CLASSIFIERS, _TABULAR_CLASSIFIERS)


def _labels_from_runs(runs, n: int) -> list[int]:
    """Point i carries the first label flipped once per cut <= i."""
    cuts, label = runs
    return [label * (-1) ** sum(c <= i for c in cuts) for i in range(n)]


class TestDisagreementCount:
    """``LabeledSample.mistakes``/``disagreements`` read group prefix counts;
    the expanded points are their oracle."""

    def test_cut_indices_put_boundary_points_left(self):
        xs = np.asarray([0.0, 0.5, 0.5, 1.0])
        assert BoundaryHypothesis((0.5,), 1).runs(xs) == ((3,), 1)
        assert BoundaryHypothesis((-1.0, 2.0), -1).runs(xs) == ((0, 4), -1)
        assert BoundaryHypothesis((), 1).runs(xs) == ((), 1)
        assert TabularHypothesis((0.0, 0.5, 1.0), (-1, 1, 1)).runs(xs) == ((1,), -1)

    def test_hand_value(self):
        sample = LabeledSample.of_points([0.0, 1.0, 2.0, 3.0], [1, 1, 1, 1])
        xs = sample.xs
        h1, h2 = BoundaryHypothesis((), 1), BoundaryHypothesis((1.5,), 1)
        assert sample.disagreements(h1.runs(xs), h2.runs(xs)) == 2
        h3 = TabularHypothesis((0.0, 1.0, 2.0, 3.0), (1, -1, -1, 1))
        assert sample.disagreements(h1.runs(xs), h3.runs(xs)) == 2

    @given(
        st.lists(st.tuples(_GRID, st.sampled_from([-1, 1])), max_size=12),
        _CLASSIFIERS,
        _CLASSIFIERS,
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_pointwise_count(self, pairs, h1, h2):
        sample = LabeledSample.of_points(
            np.asarray([x for x, _ in pairs], dtype=float),
            np.asarray([y for _, y in pairs], dtype=np.int8),
        )
        xs, (point_xs, point_ys), n = sample.xs, points(sample), len(sample)
        assert point_xs.size == n
        for h in (h1, h2):
            assert _labels_from_runs(h.runs(xs), len(xs)) == h.evaluate_many(xs).tolist()
            labels = h.evaluate_many(point_xs)
            assert _labels_from_runs(h.runs(point_xs), n) == labels.tolist()
            assert sample.mistakes(h.runs(xs)) == int(np.sum(labels != point_ys))
        differ = h1.evaluate_many(point_xs) != h2.evaluate_many(point_xs)
        got = sample.disagreements(h1.runs(xs), h2.runs(xs))
        assert got == int(np.sum(differ))
        if n > 0:
            assert got / n == float(np.mean(differ))

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_tiny_samples(self, n, signs):
        sample = LabeledSample.of_points(np.full(n, 0.5), np.full(n, signs[0], dtype=np.int8))
        xs, (point_xs, point_ys) = sample.xs, points(sample)
        hyps = (
            BoundaryHypothesis((), signs[0]),
            BoundaryHypothesis((0.5,), signs[1]),
            TabularHypothesis((0.5,), (signs[1],)),
            TabularHypothesis((0.25, 0.5), (signs[0], -signs[1])),
        )
        for h1, h2 in itertools.product(hyps, repeat=2):
            want = int(np.sum(h1.evaluate_many(point_xs) != h2.evaluate_many(point_xs)))
            assert sample.disagreements(h1.runs(xs), h2.runs(xs)) == want
        for h in hyps:
            want = int(np.sum(h.evaluate_many(point_xs) != point_ys))
            assert sample.mistakes(h.runs(xs)) == want


class TestTabularHypothesis:
    def test_lookup(self):
        h = TabularHypothesis((0.0, 1.0, 3.0), (1, -1, 1))
        assert h.evaluate(1.0) == -1
        assert list(h.evaluate_many(np.asarray([3.0, 0.0]))) == [1, 1]

    def test_off_support_raises(self):
        h = TabularHypothesis((0.0,), (1,))
        with pytest.raises(ValueError):
            h.evaluate(0.5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TabularHypothesis((0.0, 0.0), (1, 1))

    @given(st.lists(_GRID, min_size=1, unique=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_lookup_matches_point_loop(self, support, data):
        # the support is drawn unsorted and the xs repeat; the oracle is the
        # point-by-point loop evaluate_many used to be
        labels = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(support),
                                    max_size=len(support)))
        h = TabularHypothesis(tuple(support), tuple(labels))

        def loop(xs):
            return np.asarray([h.evaluate(x) for x in np.asarray(xs, dtype=float)], dtype=np.int8)

        xs = data.draw(st.lists(st.sampled_from(support), max_size=12))
        got = h.evaluate_many(np.asarray(xs, dtype=float))
        assert got.dtype == np.int8 and np.array_equal(got, loop(xs))
        off_support = [x for x in _GRID_POINTS + (0.1, -1.0, 5.0, math.nan) if x not in support]
        for off in data.draw(st.lists(st.sampled_from(off_support), min_size=1, max_size=2)):
            xs.insert(data.draw(st.integers(0, len(xs))), off)
        with pytest.raises(ValueError) as want:
            loop(xs)
        with pytest.raises(ValueError) as err:
            h.evaluate_many(np.asarray(xs, dtype=float))
        assert str(err.value) == str(want.value)


class TestBoundaryGrid:
    @given(st.lists(_BOUNDARY_CLASSIFIERS, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_first_occurrences(self, hs):
        grid = BoundaryGrid.from_hypotheses(hs)
        assert len(grid) == len(hs) and list(grid) == hs
        assert BoundaryGrid.from_hypotheses(grid) is grid
        # dict keys keep the first occurrence of each classifier, in order
        assert list(grid.unique()) == list(dict.fromkeys(hs))

    def test_stack_pads_with_inf(self):
        grid = BoundaryGrid.stack([
            (np.array([[0.5, 1.0]]), -1),
            (np.empty((1, 0)), 1),
            (np.array([[0.25], [0.75]]), np.array([1, -1])),
        ])
        assert list(grid) == [BoundaryHypothesis((0.5, 1.0), -1), BoundaryHypothesis((), 1),
                              BoundaryHypothesis((0.25,), 1), BoundaryHypothesis((0.75,), -1)]
        inf = math.inf
        assert np.array_equal(grid.bounds, [[0.5, 1.0], [inf, inf], [0.25, inf], [0.75, inf]])
        assert grid.counts.tolist() == [2, 0, 1, 1]

    def test_rejects_other_hypotheses(self):
        with pytest.raises(ValueError, match="got TabularHypothesis$"):
            BoundaryGrid.from_hypotheses([BoundaryHypothesis(), TabularHypothesis((0.5,), (1,))])


def _grid_on(pts, budget):
    return BoundaryGrid.of_budgets({1: budget, -1: budget}, midpoints(pts))


class TestEnumeration:
    @pytest.mark.parametrize("n,budget", [(1, 0), (3, 1), (4, 2), (5, 4), (6, 3),
                                          (0, 2), (1, 3), (2, 1)])
    def test_count_matches_binomials(self, n, budget):
        # n points with a repeat, so n - 1 distinct gaps; symmetric budgets,
        # then the one-sided hierarchy's {-1: L, +1: L - 1} at L = budget + 1
        pts = [float(i) for i in range(n)] + [0.0] * (n > 0)
        positions = midpoints(pts)
        assert positions.tolist() == [i + 0.5 for i in range(max(n - 1, 0))]
        for budgets in ({1: budget, -1: budget}, {-1: budget + 1, 1: budget}):
            grid = BoundaryGrid.of_budgets(budgets, positions)
            assert len(grid) == sum(math.comb(len(positions), j)
                                    for b in budgets.values() for j in range(b + 1))
            assert grid.counts.tolist() == np.isfinite(grid.bounds).sum(axis=1).tolist()
            assert len(grid.unique()) == len(grid)
            hs = list(grid)
            assert all(h.boundary_count <= budgets[h.first_sign] for h in hs)
            # +1 rows first, each sign by boundary count
            assert hs == sorted(hs, key=lambda h: (-h.first_sign, h.boundary_count))
            if len(positions) == 0:
                assert hs == [BoundaryHypothesis((), 1), BoundaryHypothesis((), -1)]

    def test_all_labelings_distinct(self):
        pts = (0.0, 1.0, 2.0, 3.0, 4.0)
        seen = {tuple(h.evaluate_many(np.asarray(pts))) for h in _grid_on(pts, 4)}
        # budget n-1 realizes every one of the 2^n labelings
        assert len(seen) == 2 ** len(pts)

    def test_budget_saturates(self):
        pts = (0.0, 1.0)
        assert list(_grid_on(pts, 10)) == list(_grid_on(pts, 1))


class TestVcDimension:
    """Level i of the boundary hierarchy shatters i + 1 points and no more."""

    @staticmethod
    def _labelings(pts, budget):
        return {tuple(h.evaluate_many(np.asarray(pts)).tolist()) for h in _grid_on(pts, budget)}

    @pytest.mark.parametrize("level,dim", [(0, 1), (1, 2), (4, 5)])
    def test_values(self, level, dim):
        assert BoundaryClassHierarchy(max_level=4).vc_dim(level) == dim

    def test_shattering_witness(self):
        # every labeling of level+1 points is realizable within the budget
        level = 3
        pts = tuple(float(i) for i in range(level + 1))
        assert self._labelings(pts, level) == set(itertools.product((-1, 1), repeat=len(pts)))

    def test_alternating_labeling_needs_full_budget(self):
        pts = tuple(float(i) for i in range(6))
        ys = tuple((-1) ** i for i in range(6))
        assert ys not in self._labelings(pts, 4)
        assert ys in self._labelings(pts, 5)

    def test_negative_level_raises(self):
        with pytest.raises(ValueError):
            BoundaryClassHierarchy(max_level=4).vc_dim(-1)


class TestHierarchySpec:
    """The level range and VC dimensions a finite hierarchy is built with."""

    @staticmethod
    def _levels(lo, hi):
        h = BoundaryHypothesis()
        return {k: (h,) for k in range(lo, hi + 1)}

    def test_vc_lookup(self):
        hierarchy = FiniteClassHierarchy(self._levels(1, 3), vc_dims=(2, 3, 4))
        assert hierarchy.vc_dim(2) == 3

    def test_out_of_range_raises(self):
        hierarchy = FiniteClassHierarchy(self._levels(1, 2), vc_dims=(2, 3))
        for level in (0, 3):
            with pytest.raises(ValueError, match="outside"):
                hierarchy.vc_dim(level)

    def test_rejects_decreasing_dims(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            FiniteClassHierarchy(self._levels(0, 1), vc_dims=(3, 2))

    @pytest.mark.parametrize("lo,hi,dims,message", [
        (0, 1, (2,), "one VC dimension per level"),
        (0, 0, (0,), ">= 1"),
        (-1, 0, (1, 1), "levels must be >= 0"),
    ])
    def test_rejects_bad_dims_and_levels(self, lo, hi, dims, message):
        with pytest.raises(ValueError, match=message):
            FiniteClassHierarchy(self._levels(lo, hi), vc_dims=dims)
