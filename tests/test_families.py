"""Constructed transfer instances: exact risks, exponents, and stored truth."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from transel.classifiers import BoundaryHypothesis
from transel.distributions import LabeledSample
from transel.families import (
    GAP_EDGES,
    ConstructionIndex,
    LevelTruth,
    build_extended_gap_family,
    build_fixed_class_family,
    build_gap_family,
    build_shifted_target,
    build_threshold_nn,
    build_two_point_family,
    event_b_holds,
    event_b_probability,
)

# frozen reference values, recomputed independently at derivation time
STAIRCASE_NORMALIZER = 0.04690551760904782
STAIRCASE_CONSTS = (0.37524414087238256, 6.930458140099034, 50.09085606343626)
GAP_EVENT_B_100_1 = 0.9061820890410457
EXT_EVENT_B_32768_1 = 0.8806996938937729
FIXED_CLASS_RHO_CONST = 2.5256583509747434
FIXED_CLASS_BCC_CONST = 1.4142135623730945


# Samples' xs for event B: each gap edge and its neighbouring floats, and
# points anywhere, or in the middle interval, where target draws must land.
_GAP_XS = st.lists(st.one_of(
    st.sampled_from([float(np.nextafter(e, d)) for e in GAP_EDGES for d in (-1.0, 2.0)]
                    + list(GAP_EDGES)),
    st.floats(0.0, 1.2), st.floats(GAP_EDGES[2], GAP_EDGES[3])), max_size=8)


def _population_minimizer(instance, level):
    """Source risk minimizer over an explicitly enumerated level."""
    pool = instance.hierarchy.levels[level]
    return min(
        pool,
        key=lambda h: (instance.source.expected_risk(h), len(getattr(h, "boundaries", ()))),
    )


class TestConstructionIndex:
    def test_tag(self):
        assert ConstructionIndex((1, -1, 1)).tag == "+-+"

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionIndex(())
        with pytest.raises(ValueError):
            ConstructionIndex((0,))


class TestLevelTruth:
    def test_validation(self):
        with pytest.raises(ValueError):
            LevelTruth(rho=0.0, rho_const=1.0, excess_q_of_source_opt=0.0)
        with pytest.raises(ValueError):
            LevelTruth(rho=1.0, rho_const=-1.0, excess_q_of_source_opt=0.0)
        with pytest.raises(ValueError):
            LevelTruth(rho=1.0, rho_const=1.0, excess_q_of_source_opt=0.0, beta_p=1.5)


@pytest.fixture(scope="module")
def staircase_instance():
    return build_threshold_nn((1.0, 2.0, 4.0))


@pytest.fixture(scope="module")
def gap_family_32():
    return build_gap_family(2.0, 1.0, 32, 1)


@pytest.fixture(scope="module")
def fixed_class_instances():
    return list(build_fixed_class_family(9, 0.5, 0.5, 2.0, 0.1, 1000, 100))


class TestThresholdNn:
    def test_frozen_normalizer(self, staircase_instance):
        assert staircase_instance.params["normalizer"] == pytest.approx(
            STAIRCASE_NORMALIZER, rel=1e-15
        )

    def test_frozen_constants(self, staircase_instance):
        for i, want in enumerate(STAIRCASE_CONSTS, start=1):
            assert staircase_instance.truth[i].rho_const == pytest.approx(want, rel=1e-15)

    def test_constant_formula(self, staircase_instance):
        z = staircase_instance.params["normalizer"]
        for i in (1, 2, 3):
            rho = staircase_instance.truth[i].rho
            want = z ** (1.0 / rho) * 2.0 ** (2 * i + i / rho)
            assert staircase_instance.truth[i].rho_const == pytest.approx(want, rel=1e-15)

    def test_staircase_excesses(self, staircase_instance):
        got = [staircase_instance.truth[i].excess_q_of_source_opt for i in (1, 2, 3)]
        assert got == [0.25, 0.25, 0.0]

    def test_staircase_matches_target_risk(self, staircase_instance):
        # the level-i source minimizer keeps the first i cell boundaries
        anchors = staircase_instance.params["anchors"]
        for i in (1, 2, 3):
            h = BoundaryHypothesis(tuple(anchors[:i]), 1)
            got = staircase_instance.target.expected_risk(h) - staircase_instance.optimal_risk_target
            assert got == pytest.approx(staircase_instance.truth[i].excess_q_of_source_opt, abs=1e-15)

    def test_source_realizable(self, staircase_instance):
        full = BoundaryHypothesis(staircase_instance.params["anchors"], 1)
        assert staircase_instance.source.expected_risk(full) == pytest.approx(0.0, abs=1e-15)

    def test_masses_and_anchors(self, staircase_instance):
        assert staircase_instance.params["anchors"] == (0.25, 0.5, 0.75)
        assert sum(s.mass for s in staircase_instance.source.segments) == pytest.approx(1.0)
        assert staircase_instance.hierarchy.max_level == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            build_threshold_nn((2.0, 1.0))
        with pytest.raises(ValueError):
            build_threshold_nn((0.5,))

    def test_underflowing_source_mass_rejected(self):
        # 2^-(2*i*rho + i) underflows to 0.0: the level would carry no source mass.
        with pytest.raises(ValueError, match="level 1's source mass underflows"):
            build_threshold_nn((600.0,))
        with pytest.raises(ValueError, match="level 2's source mass underflows"):
            build_threshold_nn((1.0, 600.0))
        for rhos in ((1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0), (4.0,) * 12, (20.0,) * 12):
            assert build_threshold_nn(rhos).hierarchy.max_level == len(rhos)


class TestShiftedTarget:
    def test_all_levels_pay_three_eighths(self):
        inst = build_shifted_target((1.0, 1.0, 2.0))
        anchors = inst.params["anchors"]
        for i in (1, 2, 3):
            assert inst.truth[i].excess_q_of_source_opt == pytest.approx(3.0 / 8.0)
            h = BoundaryHypothesis(tuple(anchors[:i]), 1)
            got = inst.target.expected_risk(h) - inst.optimal_risk_target
            assert got == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            build_shifted_target((1.0, 2.0))


class TestGapFamily:
    def test_four_indexed_instances(self, gap_family_32):
        assert [inst.index.tag for inst in gap_family_32] == ["++", "+-", "-+", "--"]

    def test_source_optimum_transfers_freely(self, gap_family_32):
        # the source minimizer at each level has zero target excess risk
        for inst in gap_family_32:
            for level in (1, 2):
                h = _population_minimizer(inst, level)
                excess = inst.target.expected_risk(h) - inst.optimal_risk_target
                assert abs(excess) <= 1e-12

    def test_unit_coefficient_on_class(self, gap_family_32):
        for inst in gap_family_32:
            for level in (1, 2):
                ref = _population_minimizer(inst, level)
                rho = inst.truth[level].rho
                for h in inst.hierarchy.levels[level]:
                    e_p = inst.source.expected_risk(h) - inst.source.expected_risk(ref)
                    e_q = inst.target.expected_risk(h) - inst.target.expected_risk(ref)
                    if e_p <= 1e-15:
                        continue
                    assert e_q <= e_p ** (1.0 / rho) * (1.0 + 1e-9)

    def test_swap_sign_swaps_exponents(self, gap_family_32):
        by_tag = {inst.index.tag: inst for inst in gap_family_32}
        assert by_tag["++"].truth[1].rho == 1.0 and by_tag["++"].truth[2].rho == 2.0
        assert by_tag["+-"].truth[1].rho == 2.0 and by_tag["+-"].truth[2].rho == 1.0

    def test_event_probability_frozen(self):
        fam = build_gap_family(2.0, 1.0, 100, 1, enforce_regime=False)
        assert event_b_probability(fam[0]) == pytest.approx(GAP_EVENT_B_100_1, rel=1e-15)

    def test_event_probability_formula(self, gap_family_32):
        inst = gap_family_32[0]
        p = inst.params
        want = (1.0 - 2.0 * p["inner_mass_source"]) ** 32 * (
            1.0 - 2.0 * p["inner_mass_target_big"]
        )
        assert event_b_probability(inst) == pytest.approx(want, rel=1e-15)

    def test_event_probability_needs_gap_family(self):
        inst = build_threshold_nn((1.0,))
        with pytest.raises(ValueError):
            event_b_probability(inst)

    def test_empirical_event_b_uses_closed_intervals(self):
        def sample(*xs):
            return LabeledSample.of_points(np.array(xs), np.ones(len(xs)))

        _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
        middle = sample(left_in, 0.5, right_in)
        assert event_b_holds(sample(0.2, 0.5, 0.9), middle)
        for edge in (left_out, left_in, right_in, right_out):
            assert not event_b_holds(sample(edge), middle)
        assert not event_b_holds(sample(0.5), sample(np.nextafter(left_in, 0.0)))
        assert not event_b_holds(sample(0.5), sample(np.nextafter(right_in, 1.0)))

    @staticmethod
    def _event_b_by_masks(s_p, s_q) -> bool:
        """Event B read point by point with masks, in any order of xs."""
        _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
        inner = ((left_out, left_in), (right_in, right_out))
        in_inner = any(np.any((s_p.xs >= lo) & (s_p.xs <= hi)) for lo, hi in inner)
        out_mid = np.any((s_q.xs < left_in) | (s_q.xs > right_in))
        return not in_inner and not out_mid

    @given(_GAP_XS, _GAP_XS)
    @settings(max_examples=300, deadline=None)
    def test_empirical_event_b_matches_masks(self, xs_p, xs_q):
        s_p, s_q = (LabeledSample.of_points(np.array(xs, dtype=float), np.ones(len(xs)))
                    for xs in (xs_p, xs_q))
        assert event_b_holds(s_p, s_q) == self._event_b_by_masks(s_p, s_q)

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            build_gap_family(2.0, 1.0, 32, 2)
        # same sizes pass once the guard is off
        assert len(build_gap_family(2.0, 1.0, 32, 2, enforce_regime=False)) == 4

    def test_exponent_order_validated(self):
        with pytest.raises(ValueError):
            build_gap_family(1.0, 2.0, 32, 1)


class TestExtendedGapFamily:
    def test_regime_guard_is_strict(self):
        with pytest.raises(ValueError):
            build_extended_gap_family(4.0, 2.0, 32, 1)

    def test_compliant_sizes(self):
        fam = build_extended_gap_family(4.0, 2.0, 32768, 1)
        assert [inst.index.tag for inst in fam] == ["++", "+-", "-+", "--"]
        assert event_b_probability(fam[0]) == pytest.approx(EXT_EVENT_B_32768_1, rel=1e-15)

    def test_source_matches_plain_gap_source(self):
        ext = build_extended_gap_family(2.0, 1.0, 32, 1)
        plain = build_gap_family(2.0, 1.0, 32, 1)
        h = BoundaryHypothesis((0.5,), -1)
        for e, p in zip(ext, plain):
            assert e.source.expected_risk(h) == p.source.expected_risk(h)
            assert e.optimal_risk_source == p.optimal_risk_source

    def test_target_mass_concentrates_at_anchors(self):
        # sub-unit power exponents pile the segment's mass against the anchor
        inst = build_extended_gap_family(2.0, 1.0, 32, 1)[0]
        left = next(s for s in inst.target.segments if s.lo == pytest.approx(1 / 3))
        anchor = inst.params["inner_anchors"][0]
        near, far = left.sub_masses(np.array([anchor - 1e-4, left.lo]),
                                    np.array([anchor, left.lo + 1e-4]))
        assert near > far

    def test_inner_anchors_follow_inner_sign(self):
        fam = build_extended_gap_family(2.0, 1.0, 32, 1)
        by_tag = {inst.index.tag: inst for inst in fam}
        assert by_tag["++"].params["inner_anchors"] == (4 / 9, 5 / 9)
        assert by_tag["-+"].params["inner_anchors"] == (1 / 3, 2 / 3)


class TestTwoPointFamily:
    def test_indexing_and_staircase(self):
        plus, minus = build_two_point_family(0.01, 50)
        assert plus.i_star_target == 1 and minus.i_star_target == 2
        assert plus.truth[1].excess_q_of_source_opt == 0.0
        assert plus.truth[2].excess_q_of_source_opt == 0.01
        assert minus.truth[1].excess_q_of_source_opt == 0.01
        assert minus.truth[2].excess_q_of_source_opt == 0.0

    def test_stored_excess_matches_distributions(self):
        for inst in build_two_point_family(0.01, 50):
            for level in (1, 2):
                h = _population_minimizer(inst, level)
                got = inst.target.expected_risk(h) - inst.optimal_risk_target
                assert got == pytest.approx(
                    inst.truth[level].excess_q_of_source_opt, abs=1e-15
                )

    def test_source_prefers_flat_labeling(self):
        inst = build_two_point_family(0.01, 50)[0]
        flat = _population_minimizer(inst, 2)
        assert flat.labels == (1, 1)
        assert inst.source.expected_risk(flat) == 0.0

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            build_two_point_family(0.02, 50)
        build_two_point_family(0.01, 0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            build_two_point_family(-0.1, 10)


class TestFixedClassFamily:
    def test_index_enumeration(self, fixed_class_instances):
        assert len(fixed_class_instances) == 2 ** 8
        assert fixed_class_instances[0].index.tag == "-" * 8
        assert fixed_class_instances[-1].index.tag == "+" * 8

    def test_frozen_constants(self, fixed_class_instances):
        inst = fixed_class_instances[0]
        assert inst.truth[1].rho_const == pytest.approx(FIXED_CLASS_RHO_CONST, rel=1e-15)
        assert inst.params["bcc_const_target"] == pytest.approx(
            FIXED_CLASS_BCC_CONST, rel=1e-15
        )
        assert inst.params["target_scale"] == pytest.approx(0.025, rel=1e-15)

    def test_stored_transfer_coefficient_is_exact_supremum(self, fixed_class_instances):
        # enumerate the class directly; the stored value must be the max ratio
        inst = fixed_class_instances[3]
        t = inst.truth[1]
        ref = _population_minimizer(inst, 1)
        sup = 0.0
        for h in inst.hierarchy.levels[1]:
            e_p = inst.source.expected_risk(h) - inst.source.expected_risk(ref)
            e_q = inst.target.expected_risk(h) - inst.target.expected_risk(ref)
            if e_p > 0:
                sup = max(sup, e_q / e_p ** (1.0 / t.rho))
        assert t.rho_const == pytest.approx(sup, rel=1e-12)

    def test_dominant_atom_mass(self, fixed_class_instances):
        inst = fixed_class_instances[0]
        eps = inst.params["target_scale"]
        beta_q = inst.truth[1].beta_q
        assert inst.target.masses[0] == pytest.approx(1.0 - eps**beta_q, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(build_fixed_class_family(8, 0.5, 0.5, 2.0, 0.1, 1000, 100))
        with pytest.raises(ValueError):
            list(build_fixed_class_family(13, 0.5, 0.5, 2.0, 0.1, 1000, 100))
        with pytest.raises(ValueError):
            list(build_fixed_class_family(9, 0.5, 0.0, 2.0, 0.1, 1000, 100))
        with pytest.raises(ValueError):
            list(build_fixed_class_family(9, 0.5, 0.5, 2.0, 0.1, 9, 9))
