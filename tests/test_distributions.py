"""Exact risk functionals and seeded sampling for the synthetic distributions."""

from itertools import combinations, product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from transel.classifiers import BoundaryHypothesis, TabularHypothesis
from transel.distributions import (
    Bernoulli,
    Deterministic,
    DiscreteDistribution,
    LabeledSample,
    PiecewiseDistribution,
    PowerLaw,
    Segment,
    Uniform,
    _GRID_BLOCK,
    distribution_from_json,
    distribution_to_json,
)


def _density_at(dist: PiecewiseDistribution, xs: np.ndarray) -> np.ndarray:
    """Independent density evaluation used as a quadrature oracle."""
    out = np.zeros_like(xs)
    for seg in dist.segments:
        inside = (xs >= seg.lo) & (xs <= seg.hi)
        if isinstance(seg.shape, Uniform):
            out[inside] += seg.mass / (seg.hi - seg.lo)
        else:
            p, v = seg.shape.exponent, seg.shape.anchor
            norm = (abs(seg.hi - v) ** p * np.sign(seg.hi - v)
                    - abs(seg.lo - v) ** p * np.sign(seg.lo - v)) / p
            out[inside] += seg.mass * np.abs(xs[inside] - v) ** (p - 1.0) / norm
    return out


def _risk_quadrature(dist: PiecewiseDistribution, h: BoundaryHypothesis, n=800_001) -> float:
    lo, hi = dist.support
    xs = np.linspace(lo, hi, n)
    dens = _density_at(dist, xs)
    err = np.zeros_like(xs)
    for seg in dist.segments:
        inside = (xs >= seg.lo) & (xs <= seg.hi)
        labels = h.evaluate_many(xs[inside])
        if isinstance(seg.label_law, Deterministic):
            e = np.where(labels == seg.label_law.label, 0.0, 1.0)
        else:
            e = np.where(labels == 1, 1.0 - seg.label_law.q, seg.label_law.q)
        err[inside] = e
    return float(np.trapezoid(dens * err, xs))


def _random_piecewise(k: int, rng: np.random.Generator) -> PiecewiseDistribution:
    """k abutting segments on [-2, 2] with random shapes and label laws.

    A power-law anchor sits at a segment end or strictly inside the segment.
    """
    edges = np.sort(rng.uniform(-2.0, 2.0, size=k + 1))
    if np.any(np.diff(edges) < 1e-4):
        edges = np.linspace(-2.0, 2.0, k + 1)
    masses = rng.dirichlet(np.ones(k))
    segs = []
    for i in range(k):
        lo, hi = float(edges[i]), float(edges[i + 1])
        if rng.random() < 0.4:
            shape = Uniform()
        else:
            anchor = (lo, hi, float(rng.uniform(lo, hi)))[int(rng.integers(0, 3))]
            shape = PowerLaw(anchor=anchor, exponent=float(rng.uniform(0.5, 3.0)))
        if rng.random() < 0.5:
            law = Deterministic(int(rng.choice([-1, 1])))
        else:
            law = Bernoulli(float(rng.uniform(0.0, 1.0)))
        segs.append(Segment(lo, hi, float(masses[i]), shape, law))
    return PiecewiseDistribution(segs)


def _two_segment_dist() -> PiecewiseDistribution:
    return PiecewiseDistribution([
        Segment(0.0, 1.0, 0.6, Uniform(), Deterministic(1)),
        Segment(1.0, 2.0, 0.4, PowerLaw(anchor=1.0, exponent=2.0), Bernoulli(0.8)),
    ])


class TestSegment:
    def test_uniform_sub_mass(self):
        seg = Segment(0.0, 2.0, 0.5)
        assert seg.sub_mass(0.0, 1.0) == pytest.approx(0.25)
        assert seg.sub_mass(-5.0, 0.5) == pytest.approx(0.125)
        assert seg.sub_mass(3.0, 4.0) == 0.0

    def test_power_law_sub_mass(self):
        # density 2x on [0, 1]: mass of [0, t] is t^2
        seg = Segment(0.0, 1.0, 1.0, PowerLaw(anchor=0.0, exponent=2.0))
        assert seg.sub_mass(0.0, 0.5) == pytest.approx(0.25)
        assert seg.sub_mass(0.5, 1.0) == pytest.approx(0.75)

    def test_power_law_interior_anchor(self):
        seg = Segment(-1.0, 1.0, 1.0, PowerLaw(anchor=0.0, exponent=2.0))
        assert seg.sub_mass(-1.0, 0.0) == pytest.approx(0.5)
        assert seg.sub_mass(-0.5, 0.5) == pytest.approx(0.25)

    def test_quantile_inverts_sub_mass(self):
        seg = Segment(0.0, 1.0, 1.0, PowerLaw(anchor=0.0, exponent=2.0))
        u = np.asarray([0.0, 0.25, 1.0])
        np.testing.assert_allclose(seg.quantile(u), [0.0, 0.5, 1.0], atol=1e-12)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Segment(1.0, 1.0, 0.5)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            PowerLaw(anchor=0.0, exponent=0.0)


class TestLabeledSample:
    def test_canonical_sort(self):
        s = LabeledSample(np.asarray([2.0, 0.0, 1.0]), np.asarray([1, -1, 1]))
        assert list(s.xs) == [0.0, 1.0, 2.0]
        assert list(s.ys) == [-1, 1, 1]
        assert len(s) == 3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LabeledSample(np.zeros(3), np.zeros(2, dtype=np.int8))


class TestPiecewiseRisk:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PiecewiseDistribution([Segment(0.0, 1.0, 0.7)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseDistribution([
                Segment(0.0, 1.0, 0.5), Segment(0.5, 2.0, 0.5),
            ])

    def test_deterministic_risk_by_hand(self):
        dist = PiecewiseDistribution([
            Segment(0.0, 1.0, 0.5, Uniform(), Deterministic(1)),
            Segment(1.0, 2.0, 0.5, Uniform(), Deterministic(-1)),
        ])
        ideal = BoundaryHypothesis((1.0,), 1)
        assert dist.expected_risk(ideal) == pytest.approx(0.0, abs=1e-15)
        # all-plus errs on the right half
        assert dist.expected_risk(BoundaryHypothesis((), 1)) == pytest.approx(0.5)
        # cut at 0.5 flips labels on [0.5, 1] and beyond
        h = BoundaryHypothesis((0.5,), 1)
        assert dist.expected_risk(h) == pytest.approx(0.25)

    def test_bernoulli_bayes_risk(self):
        dist = _two_segment_dist()
        assert dist.bayes_risk() == pytest.approx(0.4 * 0.2)

    def test_excess_risk_nonnegative_for_best(self):
        dist = _two_segment_dist()
        best = BoundaryHypothesis((), 1)
        assert dist.excess_risk(best) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "h",
        [
            BoundaryHypothesis((), 1),
            BoundaryHypothesis((0.5,), 1),
            BoundaryHypothesis((0.25, 1.5), -1),
            BoundaryHypothesis((1.2,), 1),
        ],
    )
    def test_quadrature_oracle_agreement(self, h):
        dist = _two_segment_dist()
        assert dist.expected_risk(h) == pytest.approx(_risk_quadrature(dist, h), abs=2e-6)

    def test_risk_splits_at_interior_boundaries_only(self):
        dist = _two_segment_dist()
        inside = dist.expected_risk(BoundaryHypothesis((0.5,), 1))
        outside = dist.expected_risk(BoundaryHypothesis((-3.0, 0.5), -1))
        assert inside == pytest.approx(outside)


class TestDisagreement:
    def test_identity_is_zero(self):
        dist = _two_segment_dist()
        h = BoundaryHypothesis((0.7,), 1)
        assert dist.disagreement_mass(h, h) == 0.0

    def test_symmetry_and_triangle(self):
        dist = _two_segment_dist()
        h1 = BoundaryHypothesis((0.3,), 1)
        h2 = BoundaryHypothesis((0.9, 1.4), 1)
        h3 = BoundaryHypothesis((), -1)
        d12 = dist.disagreement_mass(h1, h2)
        assert d12 == pytest.approx(dist.disagreement_mass(h2, h1))
        assert dist.disagreement_mass(h1, h3) <= d12 + dist.disagreement_mass(h2, h3) + 1e-12

    def test_risk_difference_bounded_by_disagreement(self):
        dist = _two_segment_dist()
        h1 = BoundaryHypothesis((0.3,), 1)
        h2 = BoundaryHypothesis((1.7,), -1)
        gap = abs(dist.expected_risk(h1) - dist.expected_risk(h2))
        assert gap <= dist.disagreement_mass(h1, h2) + 1e-12

    def test_hand_value(self):
        dist = PiecewiseDistribution([Segment(0.0, 1.0, 1.0)])
        h1 = BoundaryHypothesis((0.25,), 1)
        h2 = BoundaryHypothesis((0.75,), 1)
        assert dist.disagreement_mass(h1, h2) == pytest.approx(0.5)


def _assert_grid_kernels_match(dist, grid, ref):
    """The grid methods equal loops over the scalar methods, bit for bit."""
    risks = np.array([dist.expected_risk(h) for h in grid], dtype=float)
    dis = np.array([dist.disagreement_mass(h, ref) for h in grid], dtype=float)
    assert np.array_equal(dist.expected_risks(grid), risks)
    assert np.array_equal(dist.disagreement_masses(grid, ref), dis)


class TestGridKernels:
    @given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_grids_match_scalar_loops(self, k, seed):
        rng = np.random.default_rng(seed)
        dist = _random_piecewise(k, rng)
        lo, hi = dist.support
        # Boundaries below, on and above the support, on segment ends and
        # anchors, and at random inside and outside it.
        special = {lo - 1.0, lo, hi, hi + 0.5}
        for seg in dist.segments:
            special |= {seg.lo, seg.hi}
            if isinstance(seg.shape, PowerLaw):
                special.add(seg.shape.anchor)
        positions = np.array(sorted(special | set(rng.uniform(lo - 0.5, hi + 0.5, 8).tolist())))

        def draw(count):
            cuts = np.sort(rng.choice(positions, size=count, replace=False))
            return BoundaryHypothesis(tuple(cuts.tolist()), int(rng.choice([-1, 1])))

        ref = draw(int(rng.integers(0, 4)))
        grid = [draw(int(rng.integers(0, 6))) for _ in range(40)]
        for p in rng.choice(positions, size=5):
            shared = tuple(sorted(set(ref.boundaries) | {float(p)}))
            grid.append(BoundaryHypothesis(shared, int(rng.choice([-1, 1]))))
        grid += [ref, BoundaryHypothesis(ref.boundaries, -ref.first_sign)]
        grid = [grid[i] for i in rng.permutation(len(grid))]
        _assert_grid_kernels_match(dist, grid, ref)

    def test_grid_across_blocks_counts_and_a_support_gap(self):
        dist = PiecewiseDistribution([
            Segment(0.0, 1.0, 0.3, Uniform(), Deterministic(1)),
            Segment(1.0, 2.0, 0.5, PowerLaw(anchor=1.4, exponent=0.7), Bernoulli(0.3)),
            Segment(2.5, 3.0, 0.2, PowerLaw(anchor=3.0, exponent=2.5), Deterministic(-1)),
        ])
        grid = [BoundaryHypothesis((x,), 1)
                for x in np.linspace(-0.5, 3.5, 2 * _GRID_BLOCK + 11).tolist()]
        knots = (0.0, 1.0, 1.4, 2.0, 2.25, 2.5, 3.0)
        grid += [BoundaryHypothesis(cuts, -1) for cuts in combinations(knots, 2)]
        grid += [BoundaryHypothesis(), BoundaryHypothesis((), -1),
                 BoundaryHypothesis((-1.0, 0.0, 1.4, 3.0, 4.0), 1)]
        _assert_grid_kernels_match(dist, grid, BoundaryHypothesis((1.0, 1.4), 1))
        _assert_grid_kernels_match(dist, grid, BoundaryHypothesis((), -1))

    def test_discrete_grid_methods(self):
        d = DiscreteDistribution((0.0, 1.0, 2.0), (0.2, 0.3, 0.5), (1.0, 0.25, 0.0))
        grid = [BoundaryHypothesis((x,), s) for x in (-1.0, 0.0, 0.5, 1.0, 2.5) for s in (1, -1)]
        grid += [TabularHypothesis(d.points, labels) for labels in product((1, -1), repeat=3)]
        _assert_grid_kernels_match(d, grid, TabularHypothesis(d.points, (1, -1, -1)))

    def test_empty_grid(self):
        discrete = DiscreteDistribution((0.0, 1.0), (0.5, 0.5), (0.9, 0.1))
        for dist in (_two_segment_dist(), discrete):
            for got in (dist.expected_risks([]),
                        dist.disagreement_masses([], BoundaryHypothesis())):
                assert got.shape == (0,) and got.dtype == np.float64

    def test_non_boundary_hypothesis_rejected(self):
        dist = _two_segment_dist()
        tab = TabularHypothesis((0.5,), (1,))
        with pytest.raises(ValueError, match="got TabularHypothesis$"):
            dist.expected_risks([BoundaryHypothesis(), tab])
        with pytest.raises(ValueError, match="got TabularHypothesis$"):
            dist.disagreement_masses([BoundaryHypothesis()], tab)
        with pytest.raises(ValueError, match="got tuple$"):
            dist.disagreement_masses([(0.5,)], BoundaryHypothesis())


class TestSampling:
    def test_seed_determinism(self):
        dist = _two_segment_dist()
        a = dist.sample(500, np.random.default_rng(41))
        b = dist.sample(500, np.random.default_rng(41))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)
        c = dist.sample(500, np.random.default_rng(42))
        assert not np.array_equal(a.xs, c.xs)

    def test_support_and_label_range(self):
        dist = _two_segment_dist()
        s = dist.sample(2000, np.random.default_rng(7))
        lo, hi = dist.support
        assert np.all((s.xs >= lo) & (s.xs <= hi))
        assert set(np.unique(s.ys)) <= {-1, 1}

    def test_empty_sample(self):
        dist = _two_segment_dist()
        s = dist.sample(0, np.random.default_rng(1), seed=9, source_tag="P")
        assert len(s) == 0 and s.seed == 9 and s.source_tag == "P"

    def test_monte_carlo_matches_exact_risk(self):
        dist = _two_segment_dist()
        h = BoundaryHypothesis((0.8, 1.3), 1)
        m = 200_000
        s = dist.sample(m, np.random.default_rng(321))
        emp = float(np.mean(h.evaluate_many(s.xs) != s.ys))
        r = dist.expected_risk(h)
        tol = 4.0 * np.sqrt(r * (1.0 - r) / m) + 10.0 / m
        assert abs(emp - r) <= tol

    def test_segment_proportions(self):
        dist = _two_segment_dist()
        s = dist.sample(100_000, np.random.default_rng(5))
        frac = float(np.mean(s.xs <= 1.0))
        assert frac == pytest.approx(0.6, abs=0.01)


class TestDiscrete:
    def _dist(self):
        return DiscreteDistribution(
            points=(0.0, 1.0, 2.0), masses=(0.2, 0.3, 0.5), pos_probs=(1.0, 0.25, 0.0)
        )

    def test_expected_risk_by_hand(self):
        d = self._dist()
        h = BoundaryHypothesis((0.5,), 1)
        # +1 at 0.0 (err 0), -1 at 1.0 (err 0.25), -1 at 2.0 (err 0)
        assert d.expected_risk(h) == pytest.approx(0.3 * 0.25)

    def test_bayes_risk(self):
        d = self._dist()
        assert d.bayes_risk() == pytest.approx(0.3 * 0.25)

    def test_tabular_hypothesis_risk(self):
        d = self._dist()
        h = TabularHypothesis((0.0, 1.0, 2.0), (1, -1, 1))
        assert d.expected_risk(h) == pytest.approx(0.3 * 0.25 + 0.5 * 1.0)

    def test_disagreement(self):
        d = self._dist()
        h1 = BoundaryHypothesis((), 1)
        h2 = BoundaryHypothesis((1.5,), 1)
        assert d.disagreement_mass(h1, h2) == pytest.approx(0.5)

    def test_sampling_determinism_and_support(self):
        d = self._dist()
        a = d.sample(1000, np.random.default_rng(3))
        b = d.sample(1000, np.random.default_rng(3))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)
        assert set(np.unique(a.xs)) <= {0.0, 1.0, 2.0}

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, 1.0), (0.4, 0.4), (0.5, 0.5))


class TestSerialization:
    def test_piecewise_round_trip(self):
        dist = _two_segment_dist()
        clone = distribution_from_json(distribution_to_json(dist))
        h = BoundaryHypothesis((0.4, 1.6), -1)
        assert clone.expected_risk(h) == dist.expected_risk(h)
        assert clone.bayes_risk() == dist.bayes_risk()

    def test_discrete_round_trip(self):
        d = DiscreteDistribution((0.0, 2.0), (0.5, 0.5), (0.9, 0.1))
        clone = distribution_from_json(distribution_to_json(d))
        assert clone.points == d.points
        assert clone.pos_probs == d.pos_probs

    @given(
        st.integers(1, 4),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_piecewise_round_trip(self, k, seed):
        dist = _random_piecewise(k, np.random.default_rng(seed))
        clone = distribution_from_json(distribution_to_json(dist))
        h = BoundaryHypothesis((dist.support[0] + 0.3,), 1)
        assert clone.expected_risk(h) == pytest.approx(dist.expected_risk(h), abs=1e-15)
