"""Boundary classifiers, canonical labelings, and CPWL/ReLU surrogates."""

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
    canonical_from_labels,
    cpwl_to_relu_params,
    disagreement_count,
    enumerate_hypotheses,
    to_cpwl,
    vc_dimension,
)


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
_GRID = st.integers(0, 8).map(lambda i: i / 4.0)
_BOUNDARY_CLASSIFIERS = st.builds(
    lambda cuts, sign: BoundaryHypothesis(tuple(sorted(cuts)), sign),
    st.sets(_GRID, max_size=4),
    st.sampled_from([-1, 1]),
)


class TestDisagreementCount:
    def test_cut_indices_put_boundary_points_left(self):
        xs = np.asarray([0.0, 0.5, 0.5, 1.0])
        assert BoundaryHypothesis((0.5,), 1).cut_indices(xs) == (3,)
        assert BoundaryHypothesis((-1.0, 2.0), 1).cut_indices(xs) == (0, 4)
        assert BoundaryHypothesis((), 1).cut_indices(xs) == ()

    def test_hand_value(self):
        xs = np.asarray([0.0, 1.0, 2.0, 3.0])
        h1, h2 = BoundaryHypothesis((), 1), BoundaryHypothesis((1.5,), 1)
        assert disagreement_count(h1.cut_indices(xs), 1, h2.cut_indices(xs), 1, 4) == 2

    @given(st.lists(_GRID, max_size=12), _BOUNDARY_CLASSIFIERS, _BOUNDARY_CLASSIFIERS)
    @settings(max_examples=400, deadline=None)
    def test_matches_pointwise_count(self, xs, h1, h2):
        xs = np.sort(np.asarray(xs, dtype=float))
        n = len(xs)
        differ = h1.evaluate_many(xs) != h2.evaluate_many(xs)
        got = disagreement_count(
            h1.cut_indices(xs), h1.first_sign, h2.cut_indices(xs), h2.first_sign, n
        )
        assert got == int(np.sum(differ))
        if n > 0:
            assert got / n == float(np.mean(differ))

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_tiny_samples(self, n, signs):
        xs = np.full(n, 0.5)
        h1, h2 = BoundaryHypothesis((), signs[0]), BoundaryHypothesis((0.5,), signs[1])
        want = int(np.sum(h1.evaluate_many(xs) != h2.evaluate_many(xs)))
        assert disagreement_count(
            h1.cut_indices(xs), h1.first_sign, h2.cut_indices(xs), h2.first_sign, n
        ) == want


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


class TestCanonicalForm:
    def test_midpoint_cuts(self):
        h = canonical_from_labels((0.0, 1.0, 2.0, 3.0), (1, 1, -1, 1))
        assert h.boundaries == (1.5, 2.5)
        assert h.first_sign == 1

    def test_boundary_count_equals_sign_changes(self):
        labels = (1, -1, -1, 1, -1)
        h = canonical_from_labels(tuple(range(5)), labels)
        changes = sum(labels[i] != labels[i + 1] for i in range(4))
        assert h.boundary_count == changes

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=9, unique=True),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_realizes_labels(self, pts, data):
        pts = sorted(float(p) for p in pts)
        ys = data.draw(
            st.lists(st.sampled_from([-1, 1]), min_size=len(pts), max_size=len(pts))
        )
        h = canonical_from_labels(pts, ys)
        assert list(h.evaluate_many(np.asarray(pts))) == ys


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
    @pytest.mark.parametrize("level,dim", [(0, 1), (1, 2), (4, 5)])
    def test_values(self, level, dim):
        assert vc_dimension(level) == dim

    def test_shattering_witness(self):
        # every labeling of level+1 points is realizable within the budget
        level = 3
        pts = tuple(float(i) for i in range(level + 1))
        for ys in itertools.product((-1, 1), repeat=len(pts)):
            h = canonical_from_labels(pts, ys)
            assert h.boundary_count <= level

    def test_alternating_labeling_needs_full_budget(self):
        pts = tuple(float(i) for i in range(6))
        ys = tuple((-1) ** i for i in range(6))
        assert canonical_from_labels(pts, ys).boundary_count == 5

    def test_negative_level_raises(self):
        with pytest.raises(ValueError):
            vc_dimension(-1)


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
