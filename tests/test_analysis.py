"""Exact-risk analysis: level minimizers, exponent fits, noise checks, rates."""

import dataclasses
import math
import warnings
from itertools import combinations, islice

import numpy as np
import pytest

from transel.analysis import (
    RISK_ATOL,
    _interior_knots,
    default_ratio_grid,
    estimate_transfer_exponent,
    excess_risk,
    extended_gap_witness_grid,
    global_optimal_risk,
    level_reference,
    level_risk_minimizer,
    rate_profile,
    verify_bcc,
)
from transel.classifiers import BoundaryGrid, BoundaryHypothesis
from transel.erm import FiniteClassHierarchy, hypothesis_sort_key
from transel.families import (
    GAP_EDGES,
    build_extended_gap_family,
    build_fixed_class_family,
    build_gap_family,
    build_shifted_target,
    build_threshold_nn,
    build_two_point_family,
)

from risk_oracle import disagreement_mass, expected_risk

# frozen default-grid suprema for the three-level staircase instance
DEFAULT_GRID_CONSTS = (0.7504882810458184, 13.860915454023152, 50.09085606343628)


@pytest.fixture(scope="module")
def staircase():
    return build_threshold_nn((1.0, 2.0, 4.0))


@pytest.fixture(scope="module")
def gap32():
    return build_gap_family(2.0, 1.0, 32, 1)


@pytest.fixture(scope="module")
def ext32():
    return build_extended_gap_family(2.0, 1.0, 32, 1)


@pytest.fixture(scope="module")
def staircase_estimates(staircase):
    # one default-grid fit per level, shared across the exponent tests
    out = {}
    for i in (1, 2, 3):
        rho = staircase.truth[i].rho
        out[i] = estimate_transfer_exponent(
            staircase, i, candidate_rhos=(rho - 0.25, rho)
        )
    return out


class TestLevelMinimizers:
    def test_source_minimizers_keep_anchor_prefixes(self, staircase):
        anchors = staircase.params["anchors"]
        for i in (1, 2, 3):
            h = level_risk_minimizer(staircase, "P", i)
            assert h.boundaries == anchors[:i]
            assert h.first_sign == 1

    def test_target_minimizer_at_top_level(self, staircase):
        h = level_risk_minimizer(staircase, "Q", 3)
        assert h.boundaries == staircase.params["anchors"]

    def test_target_tie_breaks_to_fewer_boundaries(self, staircase):
        # (0.25,) and (0.25, 0.5) tie in target risk at level 2
        h = level_risk_minimizer(staircase, "Q", 2)
        assert h.boundaries == (0.25,)

    def test_global_optima(self, staircase):
        assert global_optimal_risk(staircase, "P") == pytest.approx(0.0, abs=1e-15)
        assert global_optimal_risk(staircase, "Q") == pytest.approx(0.0, abs=1e-15)

    def test_excess_risk_hand_value(self, staircase):
        # constant +1 mislabels half of the alternating target cells
        assert excess_risk(staircase, "Q", BoundaryHypothesis((), 1)) == pytest.approx(0.5)

    def test_unknown_distribution_name(self, staircase):
        with pytest.raises(ValueError):
            level_risk_minimizer(staircase, "R", 1)


class TestRatioGrids:
    def test_finite_family_grid_is_the_class(self, gap32):
        inst = gap32[0]
        grid = default_ratio_grid(inst, 2)
        assert set(grid) == set(inst.hierarchy.levels[2])

    def test_boundary_grid_nonempty_and_typed(self, staircase):
        grid = default_ratio_grid(staircase, 2)
        assert len(grid) > 1000
        assert all(isinstance(grid[i], BoundaryHypothesis) for i in range(50))

    def test_witness_grid_level_one_shape(self, ext32):
        grid = extended_gap_witness_grid(ext32[0], 1)
        assert all(h.first_sign == -1 and h.boundary_count == 1 for h in grid)
        assert all(5 / 9 <= h.boundaries[0] <= 2 / 3 for h in grid)

    def test_witness_grid_level_two_shape(self, ext32):
        grid = extended_gap_witness_grid(ext32[0], 2)
        assert all(h.first_sign == 1 and h.boundary_count == 1 for h in grid)
        assert all(1 / 3 <= h.boundaries[0] <= 4 / 9 for h in grid)

    def test_witness_grid_guards(self, staircase, ext32):
        with pytest.raises(ValueError):
            extended_gap_witness_grid(staircase, 1)
        with pytest.raises(ValueError):
            extended_gap_witness_grid(ext32[0], 3)


# The grids and minimizers as they were built before grids became arrays,
# one validated BoundaryHypothesis per row, kept as the oracle of the arrays.

def _object_candidates(hierarchy, level, knots):
    out = []
    for sign, budget in sorted(hierarchy.flip_budgets(level).items(), reverse=True):
        for k in range(budget + 1):
            for cuts in combinations(knots, k):
                out.append(BoundaryHypothesis(cuts, sign))
    return out


def _object_minimizer(instance, which, level):
    dist = instance.source if which == "P" else instance.target
    if isinstance(instance.hierarchy, FiniteClassHierarchy):
        candidates = list(instance.hierarchy.levels[level])
    else:
        candidates = _object_candidates(instance.hierarchy, level,
                                        _interior_knots(instance.source, instance.target))
    risks = dist.expected_risks(candidates)
    best = risks.min()
    tied = [h for h, r in zip(candidates, risks) if r <= best + RISK_ATOL]
    if which == "P" and len(tied) > 1:
        target_risks = instance.target.expected_risks(tied)
        worst = target_risks.max()
        tied = [h for h, r in zip(tied, target_risks) if r >= worst - RISK_ATOL]
    return min(tied, key=hypothesis_sort_key)


def _object_offsets(anchors, decades=12):
    pts = []
    for a in anchors:
        for k in range(1, decades + 1):
            step = 10.0 ** -k
            pts.append(a - step)
            pts.append(a + step)
    return pts


def _object_ratio_grid(instance, level):
    hierarchy = instance.hierarchy
    if isinstance(hierarchy, FiniteClassHierarchy):
        return list(hierarchy.levels[level])
    knots = _interior_knots(instance.source, instance.target)
    lo = min(instance.source.support[0], instance.target.support[0])
    hi = max(instance.source.support[1], instance.target.support[1])
    sweep = np.linspace(lo, hi, 10_000 + 2)[1:-1]
    positions = sorted(set(sweep.tolist()) | set(knots) | {
        p for p in _object_offsets(knots) if lo < p < hi
    })
    budgets = hierarchy.flip_budgets(level)
    grid = {}

    def add(cuts, sign):
        grid.setdefault(BoundaryHypothesis(cuts, sign), None)

    for h in _object_candidates(hierarchy, level, knots):
        grid.setdefault(h, None)
    ref = _object_minimizer(instance, "P", level)
    for j in range(len(ref.boundaries)):
        rest = ref.boundaries[:j] + ref.boundaries[j + 1:]
        for p in positions:
            cuts = tuple(sorted(set(rest) | {p}))
            if len(cuts) == len(ref.boundaries):
                add(cuts, ref.first_sign)
    for sign, budget in sorted(budgets.items(), reverse=True):
        add((), sign)
        if budget >= 1:
            for p in positions:
                add((p,), sign)
    if level <= 2 and max(budgets.values()) >= 2:
        joint = np.linspace(lo, hi, 100 + 2)[1:-1].tolist()
        for sign, budget in sorted(budgets.items(), reverse=True):
            if budget >= 2:
                for a, b in combinations(joint, 2):
                    add((a, b), sign)
    return list(grid)


def _object_witness_grid(instance, level):
    _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
    lo, hi, sign = (right_in, right_out, -1) if level == 1 else (left_out, left_in, 1)
    positions = sorted(
        set(np.linspace(lo, hi, 10_000).tolist())
        | {p for p in _object_offsets((lo, hi), decades=6) if lo <= p <= hi}
    )
    return [BoundaryHypothesis((p,), sign) for p in positions]


def _assert_same_rows(grid, hypotheses):
    """``grid`` holds ``hypotheses``, in order."""
    want = BoundaryGrid.from_hypotheses(hypotheses)
    assert isinstance(grid, BoundaryGrid) and len(grid) == len(want)
    for got, expected in zip((grid.bounds, grid.counts, grid.signs),
                             (want.bounds, want.counts, want.signs)):
        assert np.array_equal(got, expected)


class TestGridOracle:
    """The array grids hold the object grids' hypotheses in the same order,
    and the array minimizer is the object path's."""

    @pytest.mark.parametrize("rhos", [(1.0,), (1.0, 2.0, 4.0), (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)])
    def test_staircase_grids_and_minimizers(self, rhos):
        inst = build_threshold_nn(rhos)
        for level in range(1, len(rhos) + 1):
            _assert_same_rows(default_ratio_grid(inst, level), _object_ratio_grid(inst, level))
            for which in ("P", "Q"):
                assert level_risk_minimizer(inst, which, level) == _object_minimizer(
                    inst, which, level)

    def test_gap_families(self, gap32, ext32):
        for inst in gap32:
            for level in (1, 2):
                assert default_ratio_grid(inst, level) == _object_ratio_grid(inst, level)
                for which in ("P", "Q"):
                    assert level_risk_minimizer(inst, which, level) == _object_minimizer(
                        inst, which, level)
        for inst in ext32:
            for level in (1, 2):
                _assert_same_rows(default_ratio_grid(inst, level), _object_ratio_grid(inst, level))
                _assert_same_rows(extended_gap_witness_grid(inst, level),
                                  _object_witness_grid(inst, level))
                for which in ("P", "Q"):
                    assert level_risk_minimizer(inst, which, level) == _object_minimizer(
                        inst, which, level)

    def test_finite_family_minimizers(self):
        fixed = build_fixed_class_family(9, 0.5, 0.5, 2.0, 0.1, 1000, 100)
        for inst in [*build_two_point_family(0.01, 50), *islice(fixed, 4)]:
            levels = inst.hierarchy.levels
            for level in levels:
                for which in ("P", "Q"):
                    assert level_risk_minimizer(inst, which, level) == _object_minimizer(
                        inst, which, level)


class TestLevelReference:
    def test_holds_the_minimizers_exact_risks(self, gap32, ext32):
        fixed = build_fixed_class_family(9, 0.5, 0.5, 2.0, 0.1, 1000, 100)
        instances = [build_threshold_nn((1.0, 2.0, 4.0)), build_shifted_target(), *gap32,
                     *ext32, *build_two_point_family(0.01, 50), *islice(fixed, 2)]
        for inst in instances:
            for level in inst.truth:
                for which in ("P", "Q"):
                    h, risk_p, risk_q = level_reference(inst, which, level)
                    assert h == level_risk_minimizer(inst, which, level)
                    assert risk_p == expected_risk(inst.source, h)
                    assert risk_q == expected_risk(inst.target, h)
                    # the verify loop's target excess, bit for bit
                    assert risk_q - inst.optimal_risk_target == excess_risk(inst, "Q", h)


class TestTransferExponent:
    def test_default_grid_constants_frozen(self, staircase, staircase_estimates):
        for i, want in enumerate(DEFAULT_GRID_CONSTS, start=1):
            est = staircase_estimates[i]
            assert est.rho_hat == staircase.truth[i].rho
            assert est.c_hat == pytest.approx(want, rel=1e-12)
            assert est.witness is not None
            assert est.grid_spec.startswith("default(level=")

    def test_constants_below_certified_cap(self, staircase_estimates):
        # at most (levels+1) * 2**(3i+1) for the staircase construction
        for i in (1, 2, 3):
            assert staircase_estimates[i].c_hat <= 4.0 * 2.0 ** (3 * i + 1)

    def test_smaller_exponent_diverges(self, staircase, staircase_estimates):
        for i in (1, 2, 3):
            rho = staircase.truth[i].rho
            est = staircase_estimates[i]
            assert est.rho_hat == rho
            consts = dict(est.candidate_consts)
            assert consts[rho - 0.25] > 1e2
            assert consts[rho] < 1e2

    def test_boundary_sweep_pins_stored_constant(self, staircase):
        # perturbing only the level's own boundary reproduces the stored
        # coefficient with no grid slack at all
        anchors = staircase.params["anchors"]
        for i in (1, 2, 3):
            grid = [
                BoundaryHypothesis(anchors[: i - 1] + (anchors[i - 1] + t,), 1)
                for t in np.geomspace(1e-4, 0.02, 12)
            ]
            est = estimate_transfer_exponent(staircase, i, grid=grid)
            assert est.c_hat == pytest.approx(staircase.truth[i].rho_const, rel=1e-14)
            assert est.grid_spec == "custom(size=12)"

    def test_unstable_cap_reports_infinite(self, staircase):
        anchors = staircase.params["anchors"]
        grid = [BoundaryHypothesis((anchors[0], 0.5 + t), 1) for t in np.geomspace(1e-4, 0.02, 8)]
        est = estimate_transfer_exponent(staircase, 2, grid=grid, stable_cap=1e-3)
        assert math.isinf(est.rho_hat) and math.isinf(est.c_hat)
        assert est.witness is None
        assert len(est.candidate_consts) == 1

    def test_gap_unit_coefficients(self, gap32):
        for inst in gap32:
            for level in (1, 2):
                est = estimate_transfer_exponent(inst, level)
                assert est.rho_hat == inst.truth[level].rho
                assert est.c_hat == 1.0

    def test_extended_gap_witness_coefficients(self, ext32):
        for inst in ext32:
            for level in (1, 2):
                grid = extended_gap_witness_grid(inst, level)
                est = estimate_transfer_exponent(inst, level, grid=grid)
                assert est.rho_hat == inst.truth[level].rho
                assert est.c_hat <= 1.0 + 1e-6

    def test_extended_gap_tight_positions_are_exact(self, ext32):
        # away from the float-cancellation zone the ratio is 1 to 1e-9
        inst = ext32[0]
        grid = [BoundaryHypothesis((2 / 3 - s,), -1) for s in (1e-3, 1e-2, 0.1)]
        est = estimate_transfer_exponent(inst, 1, grid=grid)
        assert est.c_hat == pytest.approx(1.0, abs=1e-9)

    def test_candidate_validation(self, staircase):
        with pytest.raises(ValueError):
            estimate_transfer_exponent(staircase, 1, candidate_rhos=())
        with pytest.raises(ValueError):
            estimate_transfer_exponent(staircase, 1, candidate_rhos=(-1.0,))


def _scalar_bcc(dist, grid, ref, beta):
    """verify_bcc's supremum, one hypothesis at a time: (sup, witness, degenerate)."""
    ref_risk = expected_risk(dist, ref)
    sup, witness, degenerate = 0.0, None, 0
    for h in grid:
        dis = disagreement_mass(dist, h, ref)
        if dis < RISK_ATOL:
            continue
        exc = max(expected_risk(dist, h) - ref_risk, 0.0)
        if exc < RISK_ATOL and beta > 0.0:
            degenerate += 1
            continue
        ratio = dis if beta == 0.0 else dis / exc**beta
        if ratio > sup:
            sup, witness = ratio, h
    return sup, witness, degenerate


class TestBcc:
    # At beta 0.2 the target's supremum is one of the ratios where NumPy's
    # power and Python's differ in the last bit.
    @pytest.mark.parametrize("which, beta", [("P", 1.0), ("P", 0.0), ("Q", 1.0), ("Q", 0.2),
                                             ("Q", 0.0)])
    def test_matches_scalar_supremum_loop(self, staircase, which, beta):
        full = default_ratio_grid(staircase, 2)
        # The knot candidates and rows 2536..2549 hold the target's
        # co-minimizers and witness; the stride samples the sweeps.
        rows = [*range(40), *range(2536, 2550), *range(0, len(full), 97)]
        grid = [full[i] for i in rows]
        dist = staircase.source if which == "P" else staircase.target
        ref = level_risk_minimizer(staircase, which, 2)
        _, best, _ = _scalar_bcc(dist, grid, ref, beta)
        # Boundaries beyond the support change no label on it: the padded copy
        # ties the witness bit for bit, and being first it must win.
        hi = dist.support[1]
        tie = BoundaryHypothesis(best.boundaries + (hi + 1.0, hi + 2.0), best.first_sign)
        at = grid.index(best)
        grid = grid[:at] + [tie] + grid[at:]
        sup, witness, degenerate = _scalar_bcc(dist, grid, ref, beta)
        assert witness == tie
        assert degenerate > 0 if which == "Q" and beta > 0.0 else degenerate == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chk = verify_bcc(staircase, which, 2, beta=beta, grid=grid)
        assert chk.sup_ratio == sup
        assert chk.witness == witness
        assert chk.degenerate_pairs == degenerate
        assert chk.confirmed == (degenerate == 0)

    def test_source_side_confirmed(self, staircase):
        for i in (1, 2, 3):
            chk = verify_bcc(staircase, "P", i)
            assert chk.confirmed
            assert chk.sup_ratio == pytest.approx(1.0, abs=2.1e-3)
            assert chk.degenerate_pairs == 0

    def test_target_top_level_confirmed(self, staircase):
        chk = verify_bcc(staircase, "Q", 3)
        assert chk.confirmed and chk.sup_ratio == 1.0

    def test_target_mid_level_fails_for_unit_exponent(self, staircase):
        # co-minimizers with positive disagreement defeat any constant
        chk = verify_bcc(staircase, "Q", 2)
        assert not chk.confirmed
        assert chk.degenerate_pairs == 10

    def test_target_mid_level_passes_for_zero_exponent(self, staircase):
        chk = verify_bcc(staircase, "Q", 2, beta=0.0)
        assert chk.confirmed and chk.sup_ratio == 1.0
        assert chk.degenerate_pairs == 0

    def test_fixed_class_matches_stored_constant(self):
        inst = next(iter(build_fixed_class_family(9, 0.5, 0.5, 2.0, 0.1, 1000, 100)))
        chk = verify_bcc(inst, "Q", 1)
        assert chk.confirmed
        assert chk.sup_ratio == pytest.approx(inst.params["bcc_const_target"], rel=1e-13)

    def test_beta_validation(self, staircase):
        with pytest.raises(ValueError):
            verify_bcc(staircase, "Q", 1, beta=1.5)


class TestRateProfile:
    def test_shifted_picks_cheap_level(self):
        inst = build_shifted_target((1.0, 1.0, 2.0))
        prof = rate_profile(inst, 10_000, 0)
        assert prof.i_best_conf == 1 and prof.i_best_plain == 1
        assert prof.rates_conf[1] == pytest.approx(0.376104, rel=1e-4)
        assert prof.rates_conf[3] > prof.rates_conf[1]
        assert prof.beta_target == 1.0
        assert prof.levels == (1, 2, 3)

    def test_rates_decrease_in_source_size(self, staircase):
        profiles = [rate_profile(staircase, n, 50) for n in (100, 1000, 10_000)]
        for i in (1, 2, 3):
            vals = [p.rates_conf[i] for p in profiles]
            assert vals[0] >= vals[1] >= vals[2]

    def test_gap_fast_arm_is_bit_exact(self, gap32):
        for inst in gap32:
            prof = rate_profile(inst, 32, 1)
            assert min(prof.rates_plain.values()) == (1.0 / 32) ** (1.0 / 1.0)

    def test_extended_gap_fast_arm_uses_level_dimension(self):
        fam = build_extended_gap_family(4.0, 2.0, 32768, 1)
        by_tag = {inst.index.tag: inst for inst in fam}
        prof_plus = rate_profile(by_tag["++"], 32768, 1)
        assert min(prof_plus.rates_plain.values()) == (1.0 / 32768) ** (1.0 / 2.0)
        prof_minus = rate_profile(by_tag["+-"], 32768, 1)
        assert min(prof_minus.rates_plain.values()) == (2.0 / 32768) ** (1.0 / 2.0)

    def test_zero_source_falls_back_to_target_arm(self, staircase):
        prof = rate_profile(staircase, 0, 100)
        only_target = rate_profile(staircase, 0, 100).rates_plain
        assert all(math.isfinite(v) for v in only_target.values())
        assert len({round(v, 15) for v in prof.rates_plain.values()}) == 1

    def test_both_zero_is_infinite(self, staircase):
        prof = rate_profile(staircase, 0, 0)
        assert all(math.isinf(v) for v in prof.rates_plain.values())

    def test_missing_truth_level_raises(self, staircase):
        broken = dataclasses.replace(
            staircase, truth={1: staircase.truth[1], 3: staircase.truth[3]}
        )
        with pytest.raises(ValueError):
            rate_profile(broken, 100, 10)

    def test_delta_validation(self, staircase):
        with pytest.raises(ValueError):
            rate_profile(staircase, 100, 10, delta=1.0)
