"""Top-level acceptance checks, one test per guarantee the package ships.

Each test is self-contained, seeded, and carries its own wall-clock budget;
tolerances are pinned constants, not knobs.
"""

import math
import time

import numpy as np

import transel
import transel.analysis
import transel.harness
from transel.analysis import (
    estimate_transfer_exponent,
    excess_risk,
    level_risk_minimizer,
    rate_profile,
)
from transel.classifiers import BoundaryHypothesis
from transel.distributions import (
    PiecewiseDistribution,
    PowerLaw,
    Segment,
    Uniform,
)
from transel.erm import BoundaryClassHierarchy, erm_bruteforce
from transel.families import (
    build_gap_family,
    build_shifted_target,
    build_threshold_nn,
    build_two_point_family,
    event_b_probability,
)
from transel.harness import (
    ExperimentConfig,
    gap_demo,
    run_experiment,
    run_replicates,
    stable_seed,
    verify_construction,
    write_outputs,
)
from transel.selection import LevelContext, SelectionConfig

from point_oracle import points


def _rng(*parts):
    return np.random.default_rng(stable_seed(*parts))


def test_exact_solver_matches_bruteforce_on_random_cases():
    t0 = time.perf_counter()
    hierarchy = BoundaryClassHierarchy(max_level=4)
    for case in range(200):
        rng = _rng(1, "erm-equiv", case)
        n = int(rng.integers(0, 13))
        xs = np.round(rng.random(n), 1)
        ys = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        from transel.distributions import LabeledSample

        sample = LabeledSample.of_points(xs, ys)
        level = int(rng.integers(0, 5))
        got = hierarchy.erm(sample, level).mistakes
        want = erm_bruteforce(sample, hierarchy.flip_budgets(level)).mistakes
        assert got == want, f"case {case}: solver {got} vs bruteforce {want}"
    assert time.perf_counter() - t0 < 10.0


def _random_risk_pair(rng):
    k = int(rng.integers(1, 4))
    widths = rng.uniform(0.2, 1.0, k)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    masses = rng.dirichlet(np.ones(k))
    segs = []
    for i in range(k):
        lo, hi = float(edges[i]), float(edges[i + 1])
        if rng.random() < 0.5:
            shape = Uniform()
        else:
            anchor = lo if rng.random() < 0.5 else hi
            shape = PowerLaw(anchor, float(rng.uniform(0.4, 3.0)))
        if rng.random() < 0.5:
            label = 1 if rng.random() < 0.5 else -1
        else:  # the Bayes label of a uniform chance of +1
            label = 1 if rng.uniform(0.0, 1.0) > 0.5 else -1
        segs.append(Segment(lo, hi, float(masses[i]), shape, label))
    dist = PiecewiseDistribution(tuple(segs))
    cuts = tuple(np.unique(rng.uniform(0.0, float(edges[-1]), int(rng.integers(0, 5)))))
    return dist, BoundaryHypothesis(cuts, 1 if rng.random() < 0.5 else -1)


def test_closed_form_risk_matches_monte_carlo():
    t0 = time.perf_counter()
    m = 100_000
    for case in range(50):
        rng = _rng(2, "risk-mc", case)
        dist, h = _random_risk_pair(rng)
        exact = dist.expected_risk(h)
        s = dist.sample(m, rng)
        xs, ys = points(s)
        mc = float(np.mean(h.evaluate_many(xs) != ys))
        tol = 4.0 * math.sqrt(exact * (1.0 - exact) / m) + 10.0 / m
        assert abs(mc - exact) <= tol, f"case {case}: |{mc} - {exact}| > {tol}"
    assert time.perf_counter() - t0 < 60.0


GAP_SUITE = ((2.0, 1.0, 32, 1), (2.0, 1.0, 1024, 5), (4.0, 2.0, 32, 0), (4.0, 2.0, 1024, 0))


def test_gap_family_certified_properties_and_event_frequency():
    t0 = time.perf_counter()
    inner_iv = ((1.0 / 3.0, 4.0 / 9.0), (5.0 / 9.0, 2.0 / 3.0))
    mid = (4.0 / 9.0, 5.0 / 9.0)
    for rho_a, rho_b, n_p, n_q in GAP_SUITE:
        report = verify_construction(
            ExperimentConfig(
                kind="verify",
                family="gap",
                params={"rho_a": rho_a, "rho_b": rho_b},
                n_source_grid=(n_p,),
                n_target_grid=(n_q,),
            )
        )
        assert report["all_pass"], report["failures"]
        for inst in build_gap_family(rho_a, rho_b, n_p, n_q):
            for i in sorted(inst.truth):
                h = level_risk_minimizer(inst, "P", i)
                assert abs(excess_risk(inst, "Q", h)) <= 1e-12
                est = estimate_transfer_exponent(
                    inst, i, candidate_rhos=(inst.truth[i].rho,)
                )
                assert est.c_hat <= 1.0 + 1e-6
            prof = rate_profile(inst, n_p, n_q)
            assert min(prof.rates_plain.values()) == (1.0 / n_p) ** (1.0 / rho_b)

            analytic = event_b_probability(inst)
            assert analytic >= 7.0 / 8.0
            tag = inst.index.tag
            hits = 0
            for r in range(2000):
                rng = _rng(20, "event", rho_a, rho_b, n_p, n_q, tag, r)
                sp = inst.source.sample(n_p, rng)
                clean = not any(
                    bool(np.any((sp.xs >= lo) & (sp.xs <= hi))) for lo, hi in inner_iv
                )
                if n_q and clean:
                    sq = inst.target.sample(n_q, rng)
                    clean = not bool(np.any((sq.xs < mid[0]) | (sq.xs > mid[1])))
                hits += clean
            freq = hits / 2000.0
            sigma = math.sqrt(analytic * (1.0 - analytic) / 2000.0)
            assert abs(freq - analytic) <= 3.0 * sigma, (tag, freq, analytic)
    assert time.perf_counter() - t0 < 300.0


def test_adaptivity_gap_demo_separates_oracle_from_adaptive():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="gap_demo",
        family="gap",
        params={"rho_a": 4.0, "rho_b": 1.0, "enforce_regime": False},
        n_source_grid=(10_000,),
        n_target_grid=(10,),
        replicates=200,
        base_seed=4,
    )
    _, summary = gap_demo(cfg)
    assert summary["worst_sigma_mean"]["oracle"] <= 3.0 * (1.0 / 10_000) ** (1.0 / 1.0)
    assert max(summary["tail_freq_algorithm1"].values()) >= 1.0 / 8.0
    assert summary["ratio_adaptive_over_oracle"] >= 4.0
    assert time.perf_counter() - t0 < 600.0


def test_staircase_minimizers_and_shifted_level_preference():
    t0 = time.perf_counter()
    inst = build_threshold_nn((1.0, 2.0, 4.0))
    anchors = (0.25, 0.5, 0.75)
    for i in (1, 2, 3):
        h = level_risk_minimizer(inst, "P", i)
        assert h.boundaries == anchors[:i]
        assert h.first_sign == 1
        est = estimate_transfer_exponent(
            inst, i, candidate_rhos=(inst.truth[i].rho - 0.25,)
        )
        assert est.candidate_consts[0][1] > 1e2

    shifted = build_shifted_target((1.0, 1.0, 2.0))
    vals = [shifted.truth[i].excess_q_of_source_opt for i in (1, 2, 3)]
    assert max(vals) - min(vals) <= 1e-12
    prof = rate_profile(shifted, 10_000, 0)
    assert prof.i_best_conf < 3
    assert time.perf_counter() - t0 < 120.0


def test_level_selection_stays_at_or_below_target_optimum():
    t0 = time.perf_counter()
    inst = build_threshold_nn((1.0, 2.0, 4.0))
    assert inst.i_star_target == 3
    tall = BoundaryClassHierarchy(max_level=5)
    sel = SelectionConfig(delta=0.1)
    reps = 500
    hits = 0
    for r in range(reps):
        s = inst.target.sample(400, _rng(6, "lepski", r))
        level, _, _ = LevelContext(tall, s, sel).scan()
        hits += level <= inst.i_star_target
    assert hits / reps >= 0.9 - 3.0 * math.sqrt(0.09 / reps)
    assert time.perf_counter() - t0 < 300.0


def test_more_source_data_never_hurts_adaptive_learner():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="rate_curve",
        family="threshold_nn",
        params={"rhos": [1.0, 2.0, 4.0]},
        n_source_grid=(100, 1000, 10_000),
        n_target_grid=(50,),
        replicates=200,
        base_seed=2,
        learners=("algorithm1", "target_only"),
    )
    records = run_replicates(cfg)

    def mean_excess(learner, n_p):
        vals = [r.excess for r in records if r.learner == learner and r.n_source == n_p]
        return float(np.mean(vals))

    means = [mean_excess("algorithm1", n_p) for n_p in (100, 1000, 10_000)]
    assert means[0] > means[1] > means[2], means
    assert means[2] <= 1.1 * mean_excess("target_only", 10_000)
    assert time.perf_counter() - t0 < 600.0


def test_two_point_family_probability_and_excess():
    t0 = time.perf_counter()
    n_q = 50
    alpha = 1.0 / (2 * n_q)
    assert (1.0 - alpha) ** n_q >= 0.5
    for inst in build_two_point_family(alpha, n_q):
        worst = max(inst.truth[i].excess_q_of_source_opt for i in sorted(inst.truth))
        assert abs(worst - alpha) <= 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_every_export_resolves():
    # A stale name in __all__ still imports, but breaks `from module import *`.
    for module in (transel, transel.analysis, transel.harness):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_reruns_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        kind="gap_demo",
        family="gap",
        params={"rho_a": 2.0, "rho_b": 1.0},
        n_source_grid=(32,),
        n_target_grid=(1,),
        replicates=10,
        base_seed=10,
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        write_outputs(str(out), *run_experiment(cfg))
        outs.append(out)
    for name in ("records.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
