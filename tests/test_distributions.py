"""Exact risk functionals and seeded sampling for the synthetic distributions."""

import dataclasses
import tracemalloc
from itertools import combinations, product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from transel.classifiers import BoundaryHypothesis, TabularHypothesis
from transel.distributions import (
    DiscreteDistribution,
    LabeledSample,
    PiecewiseDistribution,
    PowerLaw,
    Segment,
    Uniform,
    _GRID_BLOCK,
)
from transel.erm import BoundaryClassHierarchy, _DpWorkspace
from transel.families import build_threshold_nn

from point_oracle import group_points, point_workspace, points, quantile, sample_points
from risk_oracle import disagreement_mass, expected_risk, same_bits


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
        err[inside] = np.where(h.evaluate_many(xs[inside]) == seg.label, 0.0, 1.0)
    return float(np.trapezoid(dens * err, xs))


def _random_piecewise(k: int, rng: np.random.Generator) -> PiecewiseDistribution:
    """k abutting segments on [-2, 2] with random shapes and labels.

    A power-law anchor sits at a segment end or strictly inside the segment.
    Half the labels are the Bayes label of a uniform chance of +1; each
    branch's draws keep the stream of every later edge, shape and cut fixed.
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
            label = int(rng.choice([-1, 1]))
        else:
            label = 1 if rng.uniform(0.0, 1.0) > 0.5 else -1
        segs.append(Segment(lo, hi, float(masses[i]), shape, label))
    return PiecewiseDistribution(segs)


def _with_zero_masses(dist: PiecewiseDistribution, zero) -> PiecewiseDistribution:
    """``dist`` with the masses of the segments flagged in ``zero`` moved onto
    its first unflagged segment; the first is kept when every flag is set."""
    segs = list(dist.segments)
    zero = zero[:len(segs)]
    keep = next((i for i, z in enumerate(zero) if not z), 0)
    moved = sum(seg.mass for i, seg in enumerate(segs) if zero[i] and i != keep)
    for i, seg in enumerate(segs):
        if i == keep:
            segs[i] = dataclasses.replace(seg, mass=seg.mass + moved)
        elif zero[i]:
            segs[i] = dataclasses.replace(seg, mass=0.0)
    return PiecewiseDistribution(segs)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_groups(a: LabeledSample, b: LabeledSample) -> bool:
    """Byte-equal xs and prefix counts, with equal dtypes."""
    return all(_same_bytes(x, y) for x, y in ((a.xs, b.xs), (a.before_neg, b.before_neg),
                                              (a.before_pos, b.before_pos)))


def _two_segment_dist() -> PiecewiseDistribution:
    return PiecewiseDistribution([
        Segment(0.0, 1.0, 0.6, Uniform(), 1),
        Segment(1.0, 2.0, 0.4, PowerLaw(anchor=1.0, exponent=2.0), 1),
    ])


def _sub_masses(seg, *intervals):
    x1, x2 = np.array(intervals, dtype=float).T
    return seg.sub_masses(x1, x2)


class TestSegment:
    def test_uniform_sub_mass(self):
        seg = Segment(0.0, 2.0, 0.5)
        got = _sub_masses(seg, (0.0, 1.0), (-5.0, 0.5), (3.0, 4.0))
        np.testing.assert_allclose(got, [0.25, 0.125, 0.0])

    def test_power_law_sub_mass(self):
        # density 2x on [0, 1]: mass of [0, t] is t^2
        seg = Segment(0.0, 1.0, 1.0, PowerLaw(anchor=0.0, exponent=2.0))
        np.testing.assert_allclose(_sub_masses(seg, (0.0, 0.5), (0.5, 1.0)), [0.25, 0.75])

    def test_power_law_interior_anchor(self):
        seg = Segment(-1.0, 1.0, 1.0, PowerLaw(anchor=0.0, exponent=2.0))
        np.testing.assert_allclose(_sub_masses(seg, (-1.0, 0.0), (-0.5, 0.5)), [0.5, 0.25])

    def test_quantile_inverts_sub_mass(self):
        seg = Segment(0.0, 1.0, 1.0, PowerLaw(anchor=0.0, exponent=2.0))
        u = np.asarray([0.0, 0.25, 1.0])
        np.testing.assert_allclose(seg.quantile(u), [0.0, 0.5, 1.0], atol=1e-12)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Segment(1.0, 1.0, 0.5)

    @pytest.mark.parametrize("label", [0, 2, -2])
    def test_rejects_label_outside_plus_minus_one(self, label):
        with pytest.raises(ValueError, match=r"^label must be -1 or \+1$"):
            Segment(0.0, 1.0, 1.0, Uniform(), label)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            PowerLaw(anchor=0.0, exponent=0.0)

    @staticmethod
    def _segments():
        """Uniform segments and power-law ones with the anchor at ``lo``, at
        ``hi`` and inside, on segments from 0.0 and −0.0 and on one across 0.0."""
        for lo, hi in ((0.0, 1.0), (-0.0, 0.5), (-1.5, 0.25)):
            yield Segment(lo, hi, 1.0)
            for p in (0.5, 1.0, 1.25, 2.0, 4.0):
                for anchor in (lo, hi, 0.6 * lo + 0.4 * hi):
                    yield Segment(lo, hi, 1.0, PowerLaw(anchor, p))

    def test_in_place_quantile_matches_the_out_of_place_oracle(self):
        u = np.concatenate([[0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0],
                            np.random.default_rng(0).random(2000)])
        for seg in self._segments():
            want = quantile(seg, u)
            t = u.copy()
            assert seg._quantile_into(t) is t and _same_bytes(t, want), seg
            assert _same_bytes(seg.quantile(u), want), seg
            # the sampler's slices of sorted uniforms go through the same steps
            dist = PiecewiseDistribution([seg])
            got = dist.sample(3000, np.random.default_rng(1))
            assert _same_groups(got, sample_points(dist, 3000, np.random.default_rng(1))), seg

    def test_quantile_leaves_its_argument_untouched(self):
        u = np.random.default_rng(2).random(100)
        kept = u.copy()
        for seg in self._segments():
            seg.quantile(u)
            assert _same_bytes(u, kept), seg


class TestLabeledSample:
    def test_canonical_sort(self):
        s = LabeledSample.of_points(np.asarray([2.0, 0.0, 1.0]), np.asarray([1, -1, 1]))
        assert list(s.xs) == [0.0, 1.0, 2.0]
        assert [y.tolist() for y in points(s)] == [[0.0, 1.0, 2.0], [-1, 1, 1]]
        assert len(s) == 3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LabeledSample.of_points(np.zeros(3), np.zeros(2, dtype=np.int8))

    def test_groups_count_ties(self):
        s = LabeledSample.of_points([0.5, 0.1, 0.5, 0.5, 0.1], [1, -1, -1, 1, -1])
        assert (s.xs.tolist(), s.pos.tolist(), s.neg.tolist()) == ([0.1, 0.5], [0, 2], [2, 1])
        assert len(s) == 5 and s.pos.dtype == s.neg.dtype == np.int32

    @pytest.mark.parametrize(
        "ys", [[0, 2], np.array([1, 255], dtype=np.int64), [1.0, 0.5]],
        ids=["zero_and_two", "255", "fraction"])
    def test_rejects_labels_outside_plus_minus_one(self, ys):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            LabeledSample.of_points([0.1, 0.2], ys)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_xs(self, bad):
        with pytest.raises(ValueError, match="xs must be finite"):
            LabeledSample.of_points([0.1, bad], [1, -1])

    @given(st.lists(st.tuples(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.sampled_from((-1, 1))),
                    max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_points_reproduce_the_sort_by_x_then_y(self, pairs):
        xs = np.asarray([x for x, _ in pairs], dtype=float)
        ys = np.asarray([y for _, y in pairs], dtype=np.int8)
        order = np.lexsort((ys, xs))
        got_xs, got_ys = points(LabeledSample.of_points(xs, ys))
        assert got_xs.tolist() == xs[order].tolist()
        assert got_ys.dtype == np.int8 and got_ys.tolist() == ys[order].tolist()

    @given(st.lists(st.tuples(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.sampled_from((-1, 1))),
                    max_size=30), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_ascending_points_group_like_a_shuffled_copy(self, pairs, random):
        # ascending input, with ties of mixed labels, skips the sort
        pairs = sorted(pairs, key=lambda p: p[0])
        shuffled = random.sample(pairs, len(pairs))
        a, b = (LabeledSample.of_points(np.asarray([x for x, _ in ps], dtype=float),
                                        np.asarray([y for _, y in ps], dtype=np.int8))
                for ps in (pairs, shuffled))
        assert _same_groups(a, b)

    @given(st.lists(st.tuples(st.one_of(st.sampled_from((-0.0, 0.0, 0.25, 0.5, -1.5)),
                                        st.floats(-3.0, 3.0)),
                              st.sampled_from((-1, 1))), max_size=40),
           st.booleans())
    @example([], False)
    @example([(0.5, -1)], False)
    @example([(0.0, 1), (-0.0, -1)], True)
    @example([(-0.0, 1), (0.0, -1), (0.25, 1)], False)
    @example([(0.5, 1), (0.25, -1), (0.5, -1), (0.0, 1), (-0.0, 1)], False)
    @settings(max_examples=300, deadline=None)
    def test_prefix_counts_match_the_reduceat_oracle(self, pairs, ascending):
        if ascending:
            pairs = sorted(pairs, key=lambda p: p[0])
        xs = np.asarray([x for x, _ in pairs], dtype=float)
        ys = np.asarray([y for _, y in pairs], dtype=np.int8)
        got, want = LabeledSample.of_points(xs, ys), group_points(xs, ys)
        assert _same_groups(got, want)
        assert type(len(got)) is int and len(got) == len(pairs)
        # the label-run tables read the same ERMs as tables over every group
        hierarchy = BoundaryClassHierarchy(max_level=3)
        runs, groups = _DpWorkspace.of_runs(got, 3), point_workspace(want, 3)
        for level in range(4):
            budgets = hierarchy.flip_budgets(level)
            assert runs.canonical_erm(budgets) == groups.canonical_erm(budgets)

    def test_compares_and_hashes_by_identity(self):
        a = LabeledSample.of_points([0.1, 0.2, 0.2], [1, -1, 1])
        b = LabeledSample.of_points([0.1, 0.2, 0.2], [1, -1, 1])
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        # the prefix counts are fields, built with the sample: nothing is
        # cached on a frozen sample later
        assert len(a) == 3 and a.mistakes(((), 1)) == 1
        assert a.disagreements(((1,), 1), ((), 1)) == 2
        assert set(vars(a)) == {"xs", "before_neg", "before_pos"}

    @given(st.integers(1, 6), st.integers(0, 500), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_discrete_sample_has_at_most_one_group_per_atom(self, d, n, seed):
        dist = DiscreteDistribution(range(d), [1.0 / d] * d, [0.5] * d)
        s = dist.sample(n, np.random.default_rng(seed))
        assert len(s) == n and len(s.xs) <= d


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
            Segment(0.0, 1.0, 0.5, Uniform(), 1),
            Segment(1.0, 2.0, 0.5, Uniform(), -1),
        ])
        ideal = BoundaryHypothesis((1.0,), 1)
        assert dist.expected_risk(ideal) == pytest.approx(0.0, abs=1e-15)
        # all-plus errs on the right half
        assert dist.expected_risk(BoundaryHypothesis((), 1)) == pytest.approx(0.5)
        # cut at 0.5 flips labels on [0.5, 1] and beyond
        h = BoundaryHypothesis((0.5,), 1)
        assert dist.expected_risk(h) == pytest.approx(0.25)

    def test_excess_risk_nonnegative_for_best(self):
        dist = _two_segment_dist()
        best = BoundaryHypothesis((), 1)
        # both segments are labelled +1, so all-plus makes no error
        assert dist.expected_risk(best) == pytest.approx(0.0, abs=1e-15)

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
    """The kernels equal the scalar oracle loops bit for bit, and each one-row
    method returns its row as a Python float."""
    risks = [expected_risk(dist, h) for h in grid]
    dis = [disagreement_mass(dist, h, ref) for h in grid]
    assert same_bits(dist.expected_risks(grid), risks)
    assert same_bits(dist.disagreement_masses(grid, ref), dis)
    for h, risk, d in list(zip(grid, risks, dis))[:8]:
        got_risk, got_dis = dist.expected_risk(h), dist.disagreement_mass(h, ref)
        assert type(got_risk) is float and same_bits(np.array([got_risk]), [risk])
        assert type(got_dis) is float and same_bits(np.array([got_dis]), [d])


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
            Segment(0.0, 1.0, 0.3, Uniform(), 1),
            Segment(1.0, 2.0, 0.5, PowerLaw(anchor=1.4, exponent=0.7), -1),
            Segment(2.5, 3.0, 0.2, PowerLaw(anchor=3.0, exponent=2.5), -1),
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


@st.composite
def _discrete_with_hypotheses(draw):
    """A discrete distribution with zero masses and 0/1 label chances among
    its atoms, and boundary and tabular hypotheses on its support."""
    # Past 8 atoms NumPy's own row sums would add in another order.
    k = draw(st.integers(1, 12))
    points = draw(st.lists(st.integers(-40, 40).map(lambda v: v / 8.0),
                           min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                            min_size=k, max_size=k))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    masses = [w / sum(weights) for w in weights]
    pos_probs = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                              min_size=k, max_size=k))
    dist = DiscreteDistribution(points, masses, pos_probs)
    # Boundaries on, between and beyond the atoms.
    positions = sorted(set(dist.points) | {a + 1 / 16 for a in dist.points} | {-99.0, 99.0})
    boundary = st.builds(
        lambda cuts, sign: BoundaryHypothesis(tuple(sorted(cuts)), sign),
        st.lists(st.sampled_from(positions), max_size=4, unique=True), st.sampled_from([1, -1]))
    tabular = st.builds(
        lambda order, labels: TabularHypothesis([points[i] for i in order],
                                                [labels[i] for i in order]),
        st.permutations(range(k)), st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    hypothesis = st.one_of(boundary, tabular)
    return dist, draw(st.lists(hypothesis, max_size=8)), draw(hypothesis)


class TestDiscreteKernels:
    @given(_discrete_with_hypotheses())
    @settings(max_examples=150, deadline=None)
    def test_kernels_match_scalar_oracle(self, case):
        dist, hs, ref = case
        assert same_bits(dist.expected_risks(hs), [expected_risk(dist, h) for h in hs])
        assert same_bits(dist.disagreement_masses(hs, ref),
                         [disagreement_mass(dist, h, ref) for h in hs])
        for h in hs[:1]:
            assert dist.expected_risk(h) == expected_risk(dist, h)
            assert dist.disagreement_mass(h, ref) == disagreement_mass(dist, h, ref)

    def test_one_evaluation_per_hypothesis(self, monkeypatch):
        d = DiscreteDistribution((0.0, 1.0, 2.0), (0.2, 0.3, 0.5), (1.0, 0.25, 0.0))
        hs = [TabularHypothesis(d.points, (1, -1, 1)), BoundaryHypothesis((0.5,), -1)]
        calls = []
        for cls in (TabularHypothesis, BoundaryHypothesis):
            def counted(self, xs, _orig=cls.evaluate_many):
                calls.append(len(xs))
                return _orig(self, xs)

            monkeypatch.setattr(cls, "evaluate_many", counted)
        d.expected_risks(hs)
        assert calls == [3, 3]
        d.disagreement_masses(hs, hs[0])
        assert calls == [3] * 5


class TestSampling:
    def test_seed_determinism(self):
        dist = _two_segment_dist()
        a = dist.sample(500, np.random.default_rng(41))
        b = dist.sample(500, np.random.default_rng(41))
        for x, y in zip(points(a), points(b)):
            np.testing.assert_array_equal(x, y)
        c = dist.sample(500, np.random.default_rng(42))
        assert not np.array_equal(a.xs, c.xs)

    def test_support_and_label_range(self):
        dist = _two_segment_dist()
        s = dist.sample(2000, np.random.default_rng(7))
        lo, hi = dist.support
        assert np.all((s.xs >= lo) & (s.xs <= hi))
        assert set(np.unique(points(s)[1])) <= {-1, 1}

    def test_stream_layout_is_two_uniforms_a_point(self):
        # xs are the segment quantiles of column 0 of rng.random((n, 2)); the
        # labels read neither column, but column 1 is still drawn, so the
        # generator ends where that call leaves it.
        segs = (Segment(0.0, 1.0, 0.3, Uniform(), 1),
                Segment(1.0, 2.0, 0.5, PowerLaw(anchor=1.4, exponent=0.7), -1),
                Segment(2.5, 3.0, 0.2, PowerLaw(anchor=3.0, exponent=2.5), 1))
        dist = PiecewiseDistribution(segs)
        n = 1000
        rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        u = want_rng.random((n, 2))[:, 0]
        cum = np.array([0.0, 0.3, 0.8])
        idx = np.searchsorted(cum, u, side="right") - 1
        want_xs = np.empty(n)
        for i, seg in enumerate(segs):
            pick = idx == i
            want_xs[pick] = seg.quantile((u[pick] - cum[i]) / seg.mass)
        want_ys = np.array([segs[i].label for i in idx], dtype=np.int8)
        order = np.lexsort((want_ys, want_xs))
        xs, ys = points(dist.sample(n, rng))
        np.testing.assert_array_equal(xs, want_xs[order])
        np.testing.assert_array_equal(ys, want_ys[order])
        assert rng.random() == want_rng.random()

    @given(st.integers(1, 6), st.lists(st.booleans(), min_size=6, max_size=6),
           st.one_of(st.sampled_from((0, 1, 10_000)), st.integers(2, 50)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_sorted_draw_matches_point_sampler(self, k, zero, n, seed):
        rng = np.random.default_rng(seed)
        dist = _with_zero_masses(_random_piecewise(k, rng), zero)
        got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got, want = dist.sample(n, got_rng), sample_points(dist, n, want_rng)
        assert _same_groups(got, want) and len(got) == n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_uniforms_on_the_cumulative_masses_pick_the_point_samplers_segment(self):
        class Fixed:
            """Stands in for a generator: ``random`` returns the given column 0."""

            def __init__(self, col):
                self.col = np.asarray(col, dtype=float)

            def random(self, shape):
                return np.column_stack([self.col, np.full(len(self.col), 0.5)])

        dist = PiecewiseDistribution([
            Segment(-1.0, 0.0, 0.0, Uniform(), -1), Segment(0.0, 1.0, 0.25, Uniform(), 1),
            Segment(1.0, 2.0, 0.0, Uniform(), -1), Segment(2.0, 3.0, 0.5, PowerLaw(2.0, 2.0), -1),
            Segment(3.0, 4.0, 0.25, Uniform(), 1), Segment(4.0, 5.0, 0.0, Uniform(), -1)])
        col = [0.0, 0.25, 0.75, np.nextafter(0.25, 0.0), np.nextafter(0.75, 0.0),
               np.nextafter(1.0, 0.0), 0.25, 0.5]
        got = dist.sample(len(col), Fixed(col))
        assert _same_groups(got, sample_points(dist, len(col), Fixed(col)))
        # u on a cut starts the next segment of positive mass
        assert {0.0, 2.0, 3.0} <= set(got.xs.tolist()) and 1.0 not in got.xs

    @staticmethod
    def _count_argsorts(monkeypatch) -> list:
        calls = []

        def counted(*args, _orig=np.argsort, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        return calls

    def test_ascending_draw_skips_the_sort(self, monkeypatch):
        dist = _two_segment_dist()
        calls = self._count_argsorts(monkeypatch)
        dist.sample(1000, np.random.default_rng(3))
        assert calls == []

    def test_overlapping_segments_fall_back_to_the_sort(self, monkeypatch):
        # The constructor accepts an overlap below _EDGE_TOL, so segment 1's
        # lowest draws land below segment 0's highest: sorted uniforms give
        # unsorted xs, and of_points sorts them.
        dist = PiecewiseDistribution([Segment(1 - 1e-12, 1, 0.5, label=1),
                                      Segment(1 - 5e-13, 1 + 1e-12, 0.5, label=-1)])
        calls = self._count_argsorts(monkeypatch)
        got = dist.sample(1000, np.random.default_rng(4))
        assert calls == [1]
        monkeypatch.undo()
        assert _same_groups(got, sample_points(dist, 1000, np.random.default_rng(4)))

    def test_empty_sample(self):
        dist = _two_segment_dist()
        s = dist.sample(0, np.random.default_rng(1))
        xs, ys = points(s)
        assert len(s) == 0 and xs.dtype == float and ys.dtype == np.int8

    def test_monte_carlo_matches_exact_risk(self):
        dist = _two_segment_dist()
        h = BoundaryHypothesis((0.8, 1.3), 1)
        m = 200_000
        s = dist.sample(m, np.random.default_rng(321))
        xs, ys = points(s)
        emp = float(np.mean(h.evaluate_many(xs) != ys))
        r = dist.expected_risk(h)
        tol = 4.0 * np.sqrt(r * (1.0 - r) / m) + 10.0 / m
        assert abs(emp - r) <= tol

    @staticmethod
    def _draw_peak(kind: str, n: int) -> int:
        """tracemalloc peak, in bytes, of one ``n``-point draw."""
        if kind == "discrete":
            dist = DiscreteDistribution(range(9), [1.0 / 9] * 9, [0.75] * 9)
        else:
            dist = build_threshold_nn([1.0, 1.25, 1.5, 2.0, 3.0, 4.0]).source
        tracemalloc.start()
        try:
            dist.sample(n, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("kind, bytes_per_point", [("discrete", 50), ("staircase", 63)])
    def test_draw_frees_its_temporaries_before_grouping(self, kind, bytes_per_point):
        # tracemalloc peaks of a 1e5-point draw: 4.1 MB (discrete, 9 atoms) and
        # 3.4 MB (6-level staircase source), from 6.5 and 7.3 MB when the
        # draw's uniforms and segment indices lived on through the grouping
        n = 100_000
        assert self._draw_peak(kind, n) <= bytes_per_point * n

    def test_staircase_draw_overwrites_its_uniforms_in_place(self):
        # 3.4 MB for a 1e5-point draw of the 6-level staircase source: the
        # sorted uniforms become the xs in place, quantile steps included, so
        # no argsort and no float temporary is held; one cumsum makes the counts
        n = 100_000
        assert self._draw_peak("staircase", n) <= 38 * n

    def test_segment_proportions(self):
        dist = _two_segment_dist()
        s = dist.sample(100_000, np.random.default_rng(5))
        frac = float(np.mean(points(s)[0] <= 1.0))
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
        for x, y in zip(points(a), points(b)):
            np.testing.assert_array_equal(x, y)
        assert set(np.unique(a.xs)) <= {0.0, 1.0, 2.0}

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, 1.0), (0.4, 0.4), (0.5, 0.5))
