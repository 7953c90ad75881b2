"""Boundary classifiers, their enumeration and VC dimension, and CPWL/ReLU surrogates."""

import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from transel.classifiers import (
    BoundaryHypothesis,
    CpwlFunction,
    HierarchySpec,
    TabularHypothesis,
    cpwl_to_relu_params,
    disagreement_count,
    enumerate_hypotheses,
    to_cpwl,
)
from transel.distributions import LabeledSample
from transel.erm import BoundaryClassHierarchy


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
        assert h.sign_on_interval_right_of(0.5) == -1

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
    def test_cut_indices_put_boundary_points_left(self):
        xs = np.asarray([0.0, 0.5, 0.5, 1.0])
        assert BoundaryHypothesis((0.5,), 1).runs(xs) == ((3,), 1)
        assert BoundaryHypothesis((-1.0, 2.0), -1).runs(xs) == ((0, 4), -1)
        assert BoundaryHypothesis((), 1).runs(xs) == ((), 1)
        assert TabularHypothesis((0.0, 0.5, 1.0), (-1, 1, 1)).runs(xs) == ((1,), -1)

    def test_hand_value(self):
        xs = np.asarray([0.0, 1.0, 2.0, 3.0])
        h1, h2 = BoundaryHypothesis((), 1), BoundaryHypothesis((1.5,), 1)
        assert disagreement_count(h1.runs(xs), h2.runs(xs), 4) == 2
        h3 = TabularHypothesis((0.0, 1.0, 2.0, 3.0), (1, -1, -1, 1))
        assert disagreement_count(h1.runs(xs), h3.runs(xs), 4) == 2

    @given(
        st.lists(st.tuples(_GRID, st.sampled_from([-1, 1])), max_size=12),
        _CLASSIFIERS,
        _CLASSIFIERS,
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_pointwise_count(self, points, h1, h2):
        sample = LabeledSample(
            np.asarray([x for x, _ in points], dtype=float),
            np.asarray([y for _, y in points], dtype=np.int8),
        )
        xs, n = sample.xs, len(sample)
        for h in (h1, h2):
            labels = h.evaluate_many(xs)
            assert _labels_from_runs(h.runs(xs), n) == labels.tolist()
            assert sample.mistakes(h.runs(xs)) == int(np.sum(labels != sample.ys))
        differ = h1.evaluate_many(xs) != h2.evaluate_many(xs)
        got = disagreement_count(h1.runs(xs), h2.runs(xs), n)
        assert got == int(np.sum(differ))
        if n > 0:
            assert got / n == float(np.mean(differ))

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_tiny_samples(self, n, signs):
        sample = LabeledSample(np.full(n, 0.5), np.full(n, signs[0], dtype=np.int8))
        xs = sample.xs
        hyps = (
            BoundaryHypothesis((), signs[0]),
            BoundaryHypothesis((0.5,), signs[1]),
            TabularHypothesis((0.5,), (signs[1],)),
            TabularHypothesis((0.25, 0.5), (signs[0], -signs[1])),
        )
        for h1, h2 in itertools.product(hyps, repeat=2):
            want = int(np.sum(h1.evaluate_many(xs) != h2.evaluate_many(xs)))
            assert disagreement_count(h1.runs(xs), h2.runs(xs), n) == want
        for h in hyps:
            assert sample.mistakes(h.runs(xs)) == int(np.sum(h.evaluate_many(xs) != sample.ys))


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


class TestEnumeration:
    @pytest.mark.parametrize("n,budget", [(1, 0), (3, 1), (4, 2), (5, 4), (6, 3)])
    def test_count_matches_binomials(self, n, budget):
        pts = tuple(float(i) for i in range(n))
        hyps = list(enumerate_hypotheses(pts, budget))
        expected = sum(2 * math.comb(n - 1, j) for j in range(min(budget, n - 1) + 1))
        assert len(hyps) == expected

    def test_all_labelings_distinct(self):
        pts = (0.0, 1.0, 2.0, 3.0, 4.0)
        seen = {tuple(h.evaluate_many(np.asarray(pts))) for h in enumerate_hypotheses(pts, 4)}
        # budget n-1 realizes every one of the 2^n labelings
        assert len(seen) == 2 ** len(pts)

    def test_budget_saturates(self):
        pts = (0.0, 1.0)
        assert len(list(enumerate_hypotheses(pts, 10))) == len(
            list(enumerate_hypotheses(pts, 1))
        )

    def test_empty_points_raises(self):
        with pytest.raises(ValueError):
            list(enumerate_hypotheses((), 1))


class TestVcDimension:
    """Level i of the boundary hierarchy shatters i + 1 points and no more."""

    @staticmethod
    def _labelings(pts, budget):
        return {tuple(h.evaluate_many(np.asarray(pts)).tolist())
                for h in enumerate_hypotheses(pts, budget)}

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


def _random_hypothesis(rng: np.random.Generator) -> BoundaryHypothesis:
    k = int(rng.integers(1, 6))
    cuts = np.sort(rng.uniform(-3.0, 3.0, size=k))
    while np.any(np.diff(cuts) < 1e-3):
        cuts = np.sort(rng.uniform(-3.0, 3.0, size=k))
    return BoundaryHypothesis(tuple(cuts), int(rng.choice([-1, 1])))


class TestCpwlSurrogate:
    def test_single_boundary(self):
        f = to_cpwl(BoundaryHypothesis((0.3,), 1))
        assert f(0.3) == pytest.approx(0.0, abs=1e-15)
        assert f(0.0) > 0 and f(1.0) < 0

    def test_vanishes_at_boundaries(self):
        h = BoundaryHypothesis((-1.0, 0.5, 2.0), -1)
        f = to_cpwl(h)
        for b in h.boundaries:
            assert f(b) == pytest.approx(0.0, abs=1e-12)

    def test_sign_matches_away_from_boundaries(self):
        rng = np.random.default_rng(2024_09)
        xs = np.linspace(-4.0, 4.0, 801)
        for _ in range(40):
            h = _random_hypothesis(rng)
            f = to_cpwl(h)
            far = np.min(np.abs(xs[:, None] - np.asarray(h.boundaries)[None, :]), axis=1) > 1e-6
            want = h.evaluate_many(xs[far])
            got = np.sign(f.evaluate_many(xs[far]))
            assert np.array_equal(got, want)

    def test_piece_budget(self):
        h = BoundaryHypothesis((0.0, 1.0, 2.0, 3.0), 1)
        assert to_cpwl(h).piece_count <= h.boundary_count + 1

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            to_cpwl(BoundaryHypothesis((), 1))

    def test_relu_reproduces_cpwl_pointwise(self):
        rng = np.random.default_rng(77)
        xs = np.linspace(-5.0, 5.0, 2001)
        for _ in range(40):
            f = to_cpwl(_random_hypothesis(rng))
            g = cpwl_to_relu_params(f)
            np.testing.assert_allclose(g.evaluate_many(xs), f.evaluate_many(xs), atol=1e-9)
            # exact agreement at the knots too
            if f.knots:
                np.testing.assert_allclose(
                    g.evaluate_many(np.asarray(f.knots)),
                    f.evaluate_many(np.asarray(f.knots)),
                    atol=1e-9,
                )

    def test_hinge_coefs_are_slope_changes(self):
        f = CpwlFunction(knots=(0.0, 1.0), slopes=(1.0, -2.0, 0.5), intercepts=(0.0, 0.0, -2.5))
        g = cpwl_to_relu_params(f)
        assert g.hinge_coefs == (-3.0, 2.5)

    def test_discontinuous_pieces_rejected(self):
        with pytest.raises(ValueError):
            CpwlFunction(knots=(0.0,), slopes=(1.0, 1.0), intercepts=(0.0, 5.0))


class TestHierarchySpec:
    def test_vc_lookup(self):
        spec = HierarchySpec(min_level=1, max_level=3, vc_dims=(2, 3, 4))
        assert spec.vc_dim(2) == 3

    def test_out_of_range_raises(self):
        spec = HierarchySpec(min_level=1, max_level=2, vc_dims=(2, 3))
        with pytest.raises(ValueError):
            spec.vc_dim(0)

    def test_rejects_decreasing_dims(self):
        with pytest.raises(ValueError):
            HierarchySpec(min_level=0, max_level=1, vc_dims=(3, 2))
