"""Seeded experiment harness: configs, records, summaries, and the built-in suites."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from transel import analysis, families, harness
from transel.classifiers import BoundaryHypothesis
from transel.distributions import DiscreteDistribution, PiecewiseDistribution
from transel.erm import FiniteClassHierarchy, _NestedBoundaryHierarchy
from transel.families import event_b_probability
from transel.harness import (
    EXPERIMENT_KINDS,
    LEARNERS,
    RECORD_COLUMNS,
    SCHEMA_VERSION,
    ExperimentConfig,
    build_family,
    calibrate,
    erm_check,
    gap_demo,
    records_csv_text,
    run_experiment,
    run_replicates,
    stable_seed,
    summary_json_text,
    verify_construction,
    write_outputs,
    _draw,
    _sigma_tag,
)
from transel.selection import SelectionConfig


def _count_calls(monkeypatch, classes, name) -> list:
    """Patch ``name`` on each class to log its calls; returns the log."""
    calls = []
    for cls in classes:
        def counted(self, *args, _orig=getattr(cls, name), **kwargs):
            calls.append(self)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _gap_cfg(replicates=5, seed=3):
    return ExperimentConfig(
        kind="gap_demo",
        family="gap",
        params={"rho_a": 2.0, "rho_b": 1.0},
        n_source_grid=(32,),
        n_target_grid=(1,),
        replicates=replicates,
        base_seed=seed,
    )


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(1, "P", 7) == stable_seed(1, "P", 7)

    def test_sensitive_to_parts_and_order(self):
        assert stable_seed(1, "P") != stable_seed(1, "Q")
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_u64_range(self):
        for parts in ((0,), ("x", 3, "y"), (2 ** 63,)):
            s = stable_seed(*parts)
            assert 0 <= s < 2 ** 64


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = _gap_cfg()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            kind="rate_curve",
            family="threshold_nn",
            params={"rhos": [1.0, 2.0]},
            n_source_grid=(10, 100),
            n_target_grid=(5,),
            replicates=2,
            base_seed=11,
            selection=SelectionConfig(C=0.5, c=0.5, delta=0.1),
            learners=("algorithm1",),
        )
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nope"},
            {"replicates": 0},
            {"n_source_grid": ()},
            {"n_target_grid": (-1,)},
            {"learners": ("alg",)},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(kind="rate_curve", family="threshold_nn", params={"rhos": [1.0]})
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentConfig(**base)

    def test_kind_catalog(self):
        assert set(EXPERIMENT_KINDS) == {
            "rate_curve", "gap_demo", "verify", "erm_check", "calibrate",
        }
        assert set(LEARNERS) == {"algorithm1", "oracle", "target_only"}

    def test_from_dict_rejects_unknown_keys(self):
        d = _gap_cfg().to_dict()
        d["family_params"] = {"rho_a": 2.0}
        with pytest.raises(ValueError, match="family_params"):
            ExperimentConfig.from_dict(d)


class TestBuildFamily:
    @pytest.mark.parametrize(
        "family, params, missing",
        [
            ("threshold_nn", {}, "rhos"),
            ("gap", {"rho_a": 2.0}, "rho_b"),
            ("extended_gap", {}, "rho_a, rho_b"),
            ("two_point", {}, "alpha"),
            ("fixed_class", {"d": 9, "rho": 2.0}, "beta_p, beta_q, alpha"),
        ],
    )
    def test_missing_params_named_in_error(self, family, params, missing):
        with pytest.raises(ValueError, match=missing):
            build_family(family, params, 100, 10)

    def test_single_instance_families(self):
        out = build_family("threshold_nn", {"rhos": (1.0, 2.0)}, 100, 10)
        assert len(out) == 1 and out[0].family == "threshold_nn"
        out = build_family("shifted_target", {"rhos": (1.0, 1.0, 2.0)}, 100, 10)
        assert len(out) == 1

    def test_indexed_families(self):
        out = build_family("gap", {"rho_a": 2.0, "rho_b": 1.0}, 32, 1)
        assert [inst.index.tag for inst in out] == ["++", "+-", "-+", "--"]
        out = build_family("two_point", {"alpha": 0.01}, 10, 50)
        assert len(out) == 2

    def test_gap_regime_flag_passes_through(self):
        with pytest.raises(ValueError):
            build_family("gap", {"rho_a": 4.0, "rho_b": 1.0}, 10_000, 10)
        out = build_family(
            "gap", {"rho_a": 4.0, "rho_b": 1.0, "enforce_regime": False}, 10_000, 10
        )
        assert len(out) == 4

    def test_fixed_class_materialized(self):
        out = build_family(
            "fixed_class",
            {"d": 9, "beta_p": 0.5, "beta_q": 0.5, "rho": 2.0, "alpha": 0.1},
            1000,
            100,
        )
        assert len(out) == 256

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_family("mystery", {}, 1, 1)


class TestRunReplicates:
    def test_shape_and_determinism(self):
        cfg = _gap_cfg(replicates=3)
        records = run_replicates(cfg)
        assert len(records) == 4 * 3 * len(LEARNERS)
        again = run_replicates(cfg)
        assert [r.row() for r in records] == [r.row() for r in again]

    def test_fields_are_valid(self):
        records = run_replicates(_gap_cfg(replicates=2))
        for r in records:
            assert r.learner in LEARNERS
            assert r.excess >= 0.0
            assert r.n_source == 32 and r.n_target == 1
            assert r.sigma in ("++", "+-", "-+", "--")

    def test_sigma_is_the_outermost_loop(self):
        records = run_replicates(_gap_cfg(replicates=2))
        tags = [r.sigma for r in records]
        block = len(records) // 4
        for i, tag in enumerate(("++", "+-", "-+", "--")):
            assert set(tags[i * block : (i + 1) * block]) == {tag}

    def test_learner_subset(self):
        cfg = ExperimentConfig(
            kind="rate_curve",
            family="threshold_nn",
            params={"rhos": [1.0]},
            n_source_grid=(20,),
            n_target_grid=(10,),
            replicates=2,
            learners=("target_only",),
        )
        records = run_replicates(cfg)
        assert {r.learner for r in records} == {"target_only"}

    def test_one_workspace_per_sample(self, monkeypatch):
        workspaces = _count_calls(
            monkeypatch, (_NestedBoundaryHierarchy, FiniteClassHierarchy), "make_workspace"
        )
        cfg = ExperimentConfig(
            kind="rate_curve",
            family="threshold_nn",
            params={"rhos": [1.0, 2.0, 4.0]},
            n_source_grid=(200,),
            n_target_grid=(30,),
            replicates=3,
        )
        run_replicates(cfg)
        # the three learners share one source and one target workspace
        assert len(workspaces) == 2 * 3

    def test_rate_curve_builds_each_cell_once(self, monkeypatch):
        builds, profiles = [], []

        def counted(*args, _orig=families.build_threshold_nn, **kwargs):
            builds.append(args)
            return _orig(*args, **kwargs)

        def counted_profile(*args, _orig=analysis.rate_profile, **kwargs):
            profiles.append(args)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(families, "build_threshold_nn", counted)
        monkeypatch.setattr(analysis, "rate_profile", counted_profile)
        cfg = ExperimentConfig(
            kind="rate_curve",
            family="threshold_nn",
            params={"rhos": [1.0, 2.0]},
            n_source_grid=(40, 80),
            n_target_grid=(10,),
            replicates=1,
        )
        _, summary = run_experiment(cfg)
        # the replicates and the summary's rate profiles read the same instances,
        # and the oracle level and the summary read the same profile per cell
        assert len(builds) == 2
        assert len(profiles) == 2
        assert set(summary["profiles"]) == {"40|10", "80|10"}

    def test_boundary_classifiers_never_evaluated_pointwise(self, monkeypatch):
        evals = _count_calls(monkeypatch, (BoundaryHypothesis,), "evaluate_many")
        cfg = ExperimentConfig(
            kind="gap_demo",
            family="gap",
            params={"rho_a": 4.0, "rho_b": 1.0, "enforce_regime": False},
            n_source_grid=(10_000,),
            n_target_grid=(10,),
        )
        assert len(run_replicates(cfg)) == 4 * len(LEARNERS)
        # mistakes and disagreements are counted from runs, never point by point
        assert evals == []

    def test_seed_changes_samples(self):
        def curve_cfg(seed):
            return ExperimentConfig(
                kind="rate_curve",
                family="threshold_nn",
                params={"rhos": [1.0, 2.0]},
                n_source_grid=(60,),
                n_target_grid=(30,),
                replicates=3,
                base_seed=seed,
            )

        a = run_replicates(curve_cfg(1))
        b = run_replicates(curve_cfg(2))
        assert [r.row() for r in a] != [r.row() for r in b]


class TestOutputs:
    def test_csv_schema_line_and_columns(self):
        records = run_replicates(_gap_cfg(replicates=1))
        text = records_csv_text(records)
        lines = text.splitlines()
        assert lines[0] == f"# schema={SCHEMA_VERSION}"
        parsed = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        assert tuple(parsed[0]) == RECORD_COLUMNS
        assert len(parsed) == 1 + len(records)

    def test_summary_json_is_canonical(self):
        text = summary_json_text({"b": 1, "a": [1, 2]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_write_outputs(self, tmp_path):
        records = run_replicates(_gap_cfg(replicates=1))
        paths = write_outputs(str(tmp_path), records, {"kind": "x"})
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert set(paths) == {"records", "summary"}

    def test_summary_only_kinds_skip_records(self, tmp_path):
        cfg = ExperimentConfig(
            kind="erm_check", family="threshold_nn", params={"rhos": [1.0]},
        )
        records, summary = run_experiment(cfg)
        write_outputs(str(tmp_path), records, summary)
        assert records is None
        assert not (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _gap_cfg(replicates=2)
        r1, s1 = run_experiment(cfg)
        r2, s2 = run_experiment(cfg)
        assert records_csv_text(r1) == records_csv_text(r2)
        assert summary_json_text(s1) == summary_json_text(s2)


@pytest.fixture(scope="module")
def demo():
    return gap_demo(_gap_cfg(replicates=20))


class TestGapDemo:
    def test_summary_structure(self, demo):
        _, summary = demo
        assert summary["kind"] == "gap_demo"
        assert set(summary["worst_sigma_mean"]) == set(LEARNERS)
        assert summary["targets"]["fast"] <= summary["targets"]["slow"]

    def test_tail_threshold_formula(self, demo):
        _, summary = demo
        want = (1.0 / 32) ** (1.0 / 2.0) / 256.0
        assert summary["tail_threshold"] == pytest.approx(want, rel=1e-15)

    def test_event_b_agreement(self, demo):
        _, summary = demo
        inst = build_family("gap", {"rho_a": 2.0, "rho_b": 1.0}, 32, 1)[0]
        assert summary["event_b"]["analytic"] == pytest.approx(
            event_b_probability(inst), rel=1e-15
        )
        assert all(summary["event_b"]["within_3_sigma"].values())

    def test_per_sigma_cells(self, demo):
        _, summary = demo
        tags = {key.split("|")[1] for key in summary["per_sigma_mean"]}
        assert tags == {"++", "+-", "-+", "--"}

    def test_event_b_from_fresh_draws(self, demo):
        _, summary = demo
        cfg = _gap_cfg(replicates=20)
        inner = ((1.0 / 3.0, 4.0 / 9.0), (5.0 / 9.0, 2.0 / 3.0))
        freqs = {}
        for inst in build_family(cfg.family, cfg.params, 32, 1):
            tag = _sigma_tag(inst)
            flags = []
            for r in range(cfg.replicates):
                s_p, s_q, _ = _draw(inst, 32, 1, cfg.base_seed, tag, r)
                in_inner = any(np.any((s_p.xs >= lo) & (s_p.xs <= hi)) for lo, hi in inner)
                out_mid = np.any((s_q.xs < 4.0 / 9.0) | (s_q.xs > 5.0 / 9.0))
                flags.append(bool(not in_inner and not out_mid))
            freqs[tag] = float(np.mean(flags))
        assert summary["event_b"]["empirical"] == freqs
        assert any(0.0 < f < 1.0 for f in freqs.values())

    def test_draws_each_sample_once(self, monkeypatch):
        draws = _count_calls(monkeypatch, (PiecewiseDistribution, DiscreteDistribution), "sample")
        gap_demo(_gap_cfg(replicates=3))
        assert len(draws) == 3 * 3 * 4

    def test_one_rate_profile_per_instance(self, monkeypatch):
        profiles = []

        def counted(*args, _orig=analysis.rate_profile, **kwargs):
            profiles.append(args)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(analysis, "rate_profile", counted)
        gap_demo(_gap_cfg(replicates=2))
        # the oracle level and min_rate_plain read the same profile
        assert len(profiles) == 4

    def test_min_rate_plain_is_the_worst_sigmas(self, monkeypatch):
        # per σ, the best plain rates are 0.00552 (++, -+) and 0.0078125 (+-, --)
        cfg = ExperimentConfig(
            kind="gap_demo",
            family="extended_gap",
            params={"rho_a": 4.0, "rho_b": 2.0},
            n_source_grid=(32768,),
            n_target_grid=(1,),
            learners=("target_only",),
        )
        assert gap_demo(cfg)[1]["targets"]["min_rate_plain"] == 0.0078125
        # the value must not depend on which σ the family lists last
        monkeypatch.setattr(
            harness, "build_family", lambda *args, _orig=build_family: _orig(*args)[::-1]
        )
        assert gap_demo(cfg)[1]["targets"]["min_rate_plain"] == 0.0078125

    def test_family_gate(self):
        cfg = ExperimentConfig(kind="gap_demo", family="threshold_nn",
                               params={"rhos": [1.0]})
        with pytest.raises(ValueError):
            gap_demo(cfg)


class TestVerify:
    def test_two_point_suite_passes(self):
        cfg = ExperimentConfig(
            kind="verify", family="two_point", params={"alpha": 0.01},
            n_target_grid=(50,), base_seed=7,
        )
        report = verify_construction(cfg)
        assert report["all_pass"] is True
        assert report["checks"] == 9
        assert report["failures"] == []
        assert all({"property", "pass"} <= set(e) for e in report["entries"])

    def test_gap_suite_passes(self):
        report = verify_construction(_gap_cfg(replicates=50))
        assert report["all_pass"] is True
        assert report["checks"] == 33

    def test_unknown_family(self):
        cfg = ExperimentConfig(kind="verify", family="threshold_nn",
                               params={"rhos": [1.0]})
        with pytest.raises(ValueError):
            verify_construction(
                ExperimentConfig(kind="verify", family="nope", params={})
            )


class TestErmCheck:
    def test_clean_sweep(self):
        cfg = ExperimentConfig(kind="erm_check", family="threshold_nn",
                               params={"rhos": [1.0]}, base_seed=5)
        report = erm_check(cfg, cases=40)
        assert report["ok"] is True
        assert report["mismatches"] == []
        assert len(report["case_seeds"]) == 40
        assert report["case_seeds"][0] == stable_seed(5, "erm-case", 0)

    def test_fault_injection_detected(self):
        cfg = ExperimentConfig(kind="erm_check", family="threshold_nn",
                               params={"rhos": [1.0]}, base_seed=5)
        report = erm_check(cfg, cases=12, fault_case=7)
        assert report["ok"] is False
        assert report["mismatches"][0]["case"] == 7

    def test_one_workspace_per_case(self, monkeypatch):
        workspaces = _count_calls(
            monkeypatch, (_NestedBoundaryHierarchy, FiniteClassHierarchy), "make_workspace"
        )
        cfg = ExperimentConfig(kind="erm_check", family="threshold_nn",
                               params={"rhos": [1.0]}, base_seed=7)
        erm_check(cfg, cases=40)
        # the ERM, the intersection search and the exhaustive scan share one context
        assert len(workspaces) == 40

    def test_pinned_summary(self):
        # the summary `transel erm-check --seed 7` writes
        cfg = ExperimentConfig(kind="erm_check", family="threshold_nn",
                               params={"rhos": [1.0]}, base_seed=7)
        text = summary_json_text(run_experiment(cfg)[1])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "bc365b334b44aa3a3e356cbf920e94292e956e8596cbfb5b85b9cbf1fe4bbd5a"
        )


class TestCalibrate:
    def test_sweep_and_recommendation(self):
        cfg = ExperimentConfig(
            kind="calibrate",
            family="threshold_nn",
            params={"rhos": [1.0, 1.0, 2.0], "coef_grid": [0.5, 1.0]},
            n_source_grid=(400,),
            n_target_grid=(200,),
            replicates=8,
            base_seed=9,
        )
        report = calibrate(cfg)
        assert report["kind"] == "calibrate"
        assert len(report["settings"]) == 4
        rec = report["recommended"]
        assert (rec["C"], rec["c"]) in [(a, b) for a in (0.5, 1.0) for b in (0.5, 1.0)]
        for s in report["settings"]:
            assert 0.0 <= s["level_ok_freq"] <= 1.0
            assert s["kappa"] >= 0.0
            assert s["kappa_ci"][0] <= s["kappa"] <= s["kappa_ci"][1]

    @pytest.mark.parametrize(
        "family, params, n_source, n_target, sha256",
        [
            # target level scan hits differ across the settings
            ("gap", {"rho_a": 2.0, "rho_b": 1.0, "enforce_regime": False}, 400, 100,
             "7eddb552d27a0cef015c7bbc8668f7bd9b53e54e3812f45a93b39333de95052f"),
            # oracle excesses differ across the settings
            ("shifted_target", {}, 200, 200,
             "55503e8657f285fc136e7cf7a329b2aaff0233568cd1eafb51fab1d043ede4f1"),
        ],
    )
    def test_pinned_summary(self, family, params, n_source, n_target, sha256):
        cfg = ExperimentConfig(
            kind="calibrate",
            family=family,
            params={**params, "coef_grid": [0.02, 2.0]},
            n_source_grid=(n_source,),
            n_target_grid=(n_target,),
            replicates=2,
            base_seed=3,
        )
        text = summary_json_text(calibrate(cfg))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256

    def test_one_source_workspace_per_draw(self, monkeypatch):
        workspaces = _count_calls(
            monkeypatch, (_NestedBoundaryHierarchy, FiniteClassHierarchy), "make_workspace"
        )
        cfg = ExperimentConfig(
            kind="calibrate",
            family="threshold_nn",
            params={"rhos": [1.0, 2.0, 4.0], "coef_grid": [0.5, 1.0]},
            n_source_grid=(400,),
            n_target_grid=(50,),
            replicates=3,
        )
        calibrate(cfg)
        # one source workspace per draw, one target workspace per (draw, setting)
        assert len(workspaces) == 3 * (1 + 2 * 2)

    def test_l_max_below_source_optimal_level(self):
        cfg = ExperimentConfig(
            kind="calibrate",
            family="threshold_nn",
            params={"rhos": [1.0, 2.0, 4.0], "coef_grid": [1.0]},
            n_source_grid=(100,),
            n_target_grid=(20,),
            replicates=2,
            selection=SelectionConfig(L_max=2),
        )
        with pytest.raises(ValueError, match="^level 3 outside the configured range$"):
            calibrate(cfg)

    def test_deterministic(self):
        cfg = ExperimentConfig(
            kind="calibrate",
            family="threshold_nn",
            params={"rhos": [1.0], "coef_grid": [1.0]},
            n_source_grid=(100,),
            n_target_grid=(50,),
            replicates=5,
        )
        assert summary_json_text(calibrate(cfg)) == summary_json_text(calibrate(cfg))
