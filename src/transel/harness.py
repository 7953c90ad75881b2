"""Seeded Monte Carlo experiment harness.

Runs the selection procedures on samples drawn from the benchmark families,
scores every fit with the exact analytic excess risk, and emits deterministic
CSV/JSON reports.  All randomness flows through 64-bit seeds derived by a
stable hash of (base_seed, instance tag, sample sizes, replicate, stream), so
replicate sets can be extended without re-running earlier ones and any single
draw can be reproduced in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, families
from .distributions import LabeledSample
from .erm import BoundaryClassHierarchy, OneSidedThresholdHierarchy, erm_bruteforce
from .selection import (
    Fit,
    LevelContext,
    SelectionConfig,
    _is_int,
    _is_number,
    _top_level,
    algorithm1,
    algorithm2,
    oracle_learner,
    target_only_srm,
)

SCHEMA_VERSION = "transel-records-v1"

EXPERIMENT_KINDS = ("rate_curve", "gap_demo", "verify", "erm_check", "calibrate")
LEARNERS = ("algorithm1", "oracle", "target_only")

RECORD_COLUMNS = (
    "replicate",
    "sigma",
    "n_source",
    "n_target",
    "learner",
    "level",
    "branch",
    "excess",
)

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "build_family",
    "calibrate",
    "erm_check",
    "gap_demo",
    "records_csv_text",
    "records_json_text",
    "run_experiment",
    "run_replicates",
    "stable_seed",
    "summary_json_text",
    "verify_construction",
    "write_outputs",
]


def stable_seed(*parts) -> int:
    """64-bit seed from a canonical textual encoding of the parts.

    Stable across processes and platforms, unlike ``hash``.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte for byte.

    ``params`` holds the family's params as JSON-native values, so the config
    round-trips losslessly; ``build_family`` checks each against the family's
    table in ``families.FAMILIES``.  The one other key is calibrate's
    ``coef_grid``, which every other kind rejects.  ``out_dir`` is where
    the CLI writes the outputs; ``run_experiment`` itself writes nothing.
    """

    kind: str
    family: str
    params: dict = field(default_factory=dict)
    n_source_grid: tuple[int, ...] = (1,)
    n_target_grid: tuple[int, ...] = (1,)
    replicates: int = 1
    base_seed: int = 0
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    learners: tuple[str, ...] = ("algorithm1", "oracle", "target_only")
    out_dir: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ValueError("replicates must be an integer >= 1")
        if not _is_int(self.base_seed):
            raise ValueError("base_seed must be an integer")
        if not self.n_source_grid or not self.n_target_grid:
            raise ValueError("sample-size schedules must be nonempty")
        if not all(_is_int(n) and n >= 0 for n in self.n_source_grid + self.n_target_grid):
            raise ValueError("sample sizes must be nonnegative integers")
        if not self.learners:
            raise ValueError("learners must be nonempty")
        unknown = [name for name in self.learners if name not in LEARNERS]
        if unknown:
            raise ValueError(f"unknown learners {sorted(unknown, key=repr)}")
        if len(set(self.learners)) != len(self.learners):
            raise ValueError("learners must not repeat")
        if not isinstance(self.family, str):
            raise ValueError("family must be a string")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a string or null")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "params": dict(self.params),
            "n_source_grid": list(self.n_source_grid),
            "n_target_grid": list(self.n_target_grid),
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "selection": self.selection.to_dict(),
            "learners": list(self.learners),
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [k for k in ("kind", "family") if k not in d]
        if missing:
            raise ValueError(f"config is missing keys: {', '.join(missing)}")
        for key in ("params", "selection"):
            if not isinstance(d.get(key, {}), dict):
                raise ValueError(f"{key} must be an object")
        for key in ("n_source_grid", "n_target_grid", "learners"):
            if not isinstance(d.get(key, ()), (list, tuple)):
                raise ValueError(f"{key} must be a list")
        return cls(
            kind=d["kind"],
            family=d["family"],
            params=dict(d.get("params", {})),
            n_source_grid=tuple(d.get("n_source_grid", (1,))),
            n_target_grid=tuple(d.get("n_target_grid", (1,))),
            replicates=d.get("replicates", 1),
            base_seed=d.get("base_seed", 0),
            selection=SelectionConfig.from_dict(d.get("selection", {})),
            learners=tuple(d.get("learners", LEARNERS)),
            out_dir=d.get("out_dir"),
        )


_CONFIG_KEYS = frozenset(ExperimentConfig.__dataclass_fields__)


@dataclass(frozen=True)
class RunRecord:
    """One learner fit on one replicate, scored by exact target excess risk.

    ``wall_time`` is never serialized, so outputs stay byte-identical; the
    benchmark reads it in memory for ``op_ms_p50`` (``perfbench/workloads.py``).
    """

    replicate: int
    sigma: str
    n_source: int
    n_target: int
    learner: str
    level: int | None
    branch: str
    excess: float
    wall_time: float = 0.0

    def row(self) -> list:
        return [
            self.replicate,
            self.sigma,
            self.n_source,
            self.n_target,
            self.learner,
            "" if self.level is None else self.level,
            self.branch,
            repr(self.excess),
        ]


def build_family(family: str, params: dict, n_source: int, n_target: int):
    """Instantiate a benchmark family; always returns a list of instances.

    ``params`` is checked and converted against ``families.FAMILIES``, and
    the factory also gets whichever sample sizes its signature names.
    """
    if family not in families.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    factory, types, signature = families.FAMILIES[family]
    unknown = sorted(set(params) - set(types))
    if unknown:
        raise ValueError(f"unknown params for family {family!r}: {', '.join(unknown)}")
    sizes = {"n_source": n_source, "n_target": n_target}
    missing = [k for k, p in signature.items()
               if p.default is p.empty and k not in params and k not in sizes]
    if missing:
        raise ValueError(f"family {family!r} config is missing params: {', '.join(missing)}")
    kwargs = {k: types[k](k, v) for k, v in params.items()}
    kwargs.update((k, n) for k, n in sizes.items() if k in signature)
    built = getattr(families, factory)(**kwargs)
    return [built] if isinstance(built, families.TransferInstance) else list(built)


def _sigma_tag(instance) -> str:
    return instance.index.tag if instance.index is not None else ""


def _draw(instance, n_source: int, n_target: int, base_seed: int, tag: str, replicate: int):
    def one(dist, n, stream):
        seed = stable_seed(base_seed, tag, n_source, n_target, replicate, stream)
        return dist.sample(n, _rng(seed))

    return (
        one(instance.source, n_source, "P"),
        one(instance.target, n_target, "Q"),
        one(instance.target, n_target, "QH"),
    )


def _checked_excesses(instance, hs) -> list[float]:
    """Exact target excess risk of each fit in ``hs``, from one kernel call."""
    excesses = analysis.excess_risks(instance, "Q", hs).tolist()
    for e in excesses:
        if e < -1e-9:
            raise RuntimeError(
                f"analytic excess risk {e} is negative beyond round-off; "
                "risk accounting is inconsistent"
            )
    return [max(e, 0.0) for e in excesses]


def _run_learner(learner, fit: Fit, oracle_level: int):
    """One learner on a replicate's shared ``Fit``.  The wall time includes
    whatever shared work this learner is the first to need."""
    t0 = time.perf_counter()
    if learner == "algorithm1":
        h, trace = algorithm1(fit)
        level, branch = trace.chosen_level, trace.branch
    elif learner == "oracle":
        h = oracle_learner(fit, oracle_level)
        level, branch = oracle_level, "oracle"
    elif learner == "target_only":
        h = target_only_srm(fit)
        level, branch = None, "target-only"
    else:
        raise ValueError(f"unknown learner {learner!r}")
    wall = time.perf_counter() - t0
    return h, level, branch, wall


def _cells(cfg: ExperimentConfig) -> dict[tuple[int, int], list]:
    """Every (n_source, n_target) cell of the grid: the family's instances,
    each paired with its rate profile at that cell, built once."""
    delta = cfg.selection.delta
    return {
        (n_p, n_q): [
            (inst, analysis.rate_profile(inst, n_p, n_q, delta=delta))
            for inst in build_family(cfg.family, cfg.params, n_p, n_q)
        ]
        for n_p in cfg.n_source_grid
        for n_q in cfg.n_target_grid
    }


def run_replicates(cfg: ExperimentConfig, cells=None, on_draw=None) -> list[RunRecord]:
    """Run every configured learner over the full (σ, n_P, n_Q, replicate) grid.

    Record order is (σ, n_P, n_Q, replicate, learner).  All learners of a
    replicate are fitted on one shared ``Fit``, and every fit of a
    (σ, n_P, n_Q) cell is scored by one exact-risk kernel call.  The oracle's
    level is the best plain-rate level of the cell's rate profile.  ``cells``
    optionally passes in ``_cells(cfg)`` when the caller needs the instances
    or their rate profiles too.  ``on_draw(instance, s_p, s_q)`` sees each
    replicate's source and target samples; no sample outlives its replicate.
    """
    if cells is None:
        cells = _cells(cfg)
    counts = {len(v) for v in cells.values()}
    if len(counts) != 1:
        raise ValueError("instance count must not vary across the sample grid")
    n_instances = counts.pop()
    if "oracle" in cfg.learners:
        for (n_p, n_q), pairs in cells.items():
            for instance, profile in pairs:
                top = _top_level(instance.hierarchy, cfg.selection)
                if profile.i_best_plain > top:
                    raise ValueError(
                        f"oracle level {profile.i_best_plain} of cell (sigma "
                        f"{_sigma_tag(instance) or '-'}, n_source {n_p}, n_target {n_q}) "
                        f"is above selection.L_max {cfg.selection.L_max}"
                    )

    records = []
    for idx in range(n_instances):
        for n_p in cfg.n_source_grid:
            for n_q in cfg.n_target_grid:
                instance, profile = cells[(n_p, n_q)][idx]
                tag = _sigma_tag(instance)
                fits = []
                for r in range(cfg.replicates):
                    s_p, s_q, s_hold = _draw(instance, n_p, n_q, cfg.base_seed, tag, r)
                    if on_draw is not None:
                        on_draw(instance, s_p, s_q)
                    fit = Fit(instance.hierarchy, s_p, s_q, s_hold, cfg.selection)
                    fits += [(r, learner, *_run_learner(learner, fit, profile.i_best_plain))
                             for learner in cfg.learners]
                    # The source sample is a replicate's largest object:
                    # free it before the next draw, not after.
                    del fit
                excesses = _checked_excesses(instance, [h for _, _, h, *_ in fits])
                records += [
                    RunRecord(replicate=r, sigma=tag, n_source=n_p, n_target=n_q,
                              learner=learner, level=level, branch=branch, excess=excess,
                              wall_time=wall)
                    for (r, learner, _, level, branch, wall), excess in zip(fits, excesses)
                ]
    return records


def _group_mean(records, key) -> dict:
    groups: dict = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec.excess)
    return {k: float(np.mean(v)) for k, v in sorted(groups.items())}


def _summarize_records(records) -> dict:
    by_cell: dict = {}
    for rec in records:
        k = (rec.learner, rec.sigma, rec.n_source, rec.n_target)
        by_cell.setdefault(k, []).append(rec.excess)
    cells = {}
    for (learner, sigma, n_p, n_q), vals in sorted(by_cell.items()):
        arr = np.asarray(vals)
        cells["|".join([learner, sigma or "-", str(n_p), str(n_q)])] = {
            "count": int(arr.size),
            "mean_excess": float(arr.mean()),
            "p90_excess": float(np.percentile(arr, 90)),
            "max_excess": float(arr.max()),
        }
    return cells


def _rate_curve_summary(cfg: ExperimentConfig, cells, records) -> dict:
    profiles = {}
    for n_p in cfg.n_source_grid:
        for n_q in cfg.n_target_grid:
            _, prof = cells[(n_p, n_q)][0]
            profiles[f"{n_p}|{n_q}"] = {
                "rates_conf": {str(i): prof.rates_conf[i] for i in prof.levels},
                "rates_plain": {str(i): prof.rates_plain[i] for i in prof.levels},
                "i_best_conf": prof.i_best_conf,
                "i_best_plain": prof.i_best_plain,
            }
    return {
        "kind": "rate_curve",
        "cells": _summarize_records(records),
        "mean_by_learner_and_n_source": {
            f"{learner}|{n_p}": v
            for (learner, n_p), v in _group_mean(
                records, lambda r: (r.learner, r.n_source)
            ).items()
        },
        "profiles": profiles,
    }


def gap_demo(cfg: ExperimentConfig):
    """Adaptive-versus-oracle comparison on the two-exponent families.

    Reports per-σ and worst-σ mean excess for each learner, the worst-case
    ratio, tail frequencies against the slow-rate threshold, and the
    analytic/empirical event-B agreement.  Theoretical target lines come from
    the plain rate functional alone.
    """
    if cfg.family not in ("gap", "extended_gap"):
        raise ValueError("gap_demo needs the gap or extended_gap family")
    n_p = cfg.n_source_grid[0]
    n_q = cfg.n_target_grid[0]
    one_cell = replace(cfg, n_source_grid=(n_p,), n_target_grid=(n_q,))
    cells = _cells(one_cell)
    instances = [inst for inst, _ in cells[(n_p, n_q)]]
    flags = {_sigma_tag(inst): [] for inst in instances}

    def flag(inst, s_p, s_q):
        flags[_sigma_tag(inst)].append(families.event_b_holds(s_p, s_q))

    records = run_replicates(one_cell, cells, flag)
    rho_a, rho_b = instances[0].params["rho_a"], instances[0].params["rho_b"]

    per_sigma = _group_mean(records, lambda r: (r.learner, r.sigma))
    learners = sorted({rec.learner for rec in records})
    worst = {
        learner: max(v for (l, _), v in per_sigma.items() if l == learner)
        for learner in learners
    }
    ratio = math.inf
    if "algorithm1" in worst and "oracle" in worst:
        ratio = (
            worst["algorithm1"] / worst["oracle"] if worst["oracle"] > 0 else math.inf
        )

    threshold = (1.0 / n_p) ** (1.0 / rho_a) / 256.0
    tail = {}
    for inst in instances:
        tag = _sigma_tag(inst)
        vals = [
            r.excess
            for r in records
            if r.learner == "algorithm1" and r.sigma == tag
        ]
        tail[tag] = float(np.mean([v >= threshold for v in vals])) if vals else 0.0

    analytic = families.event_b_probability(instances[0])
    empirical = {}
    event_pass = {}
    for tag, tag_flags in flags.items():
        freq = float(np.mean(tag_flags))
        empirical[tag] = freq
        sigma3 = 3.0 * math.sqrt(analytic * (1.0 - analytic) / max(len(tag_flags), 1))
        event_pass[tag] = bool(abs(freq - analytic) <= sigma3)

    # The worst σ's best plain rate.
    min_plain = max(min(prof.rates_plain.values()) for _, prof in cells[(n_p, n_q)])
    summary = {
        "kind": "gap_demo",
        "n_source": n_p,
        "n_target": n_q,
        "replicates": cfg.replicates,
        "per_sigma_mean": {f"{l}|{s}": v for (l, s), v in per_sigma.items()},
        "worst_sigma_mean": worst,
        "ratio_adaptive_over_oracle": ratio,
        "targets": {
            "fast": (1.0 / n_p) ** (1.0 / rho_b),
            "slow": (1.0 / n_p) ** (1.0 / rho_a),
            "min_rate_plain": min_plain,
        },
        "tail_threshold": threshold,
        "tail_freq_algorithm1": tail,
        "event_b": {
            "analytic": analytic,
            "empirical": empirical,
            "within_3_sigma": event_pass,
        },
        "cells": _summarize_records(records),
    }
    return records, summary


def _entry(sigma, name, level, measured, target, ok) -> dict:
    return {
        "property": name,
        "sigma": sigma,
        "level": level,
        "measured": measured,
        "target": target,
        "pass": bool(ok),
    }


def _close(name, level, measured, target, tol=1e-12) -> tuple:
    return name, level, measured, target, abs(measured - target) < tol


def _no_checks(*_) -> list:
    return []


def _staircase_level(inst, i, h, exc) -> list:
    cuts = inst.params["anchors"][:i]
    t = inst.truth[i]
    below = max(t.rho - 0.25, 0.05)
    grid = analysis.default_ratio_grid(inst, i)
    est = analysis.estimate_transfer_exponent(
        inst, i, candidate_rhos=(below, t.rho), grid=grid)
    const_below = dict(est.candidate_consts).get(below, math.inf)
    bcc = analysis.verify_bcc(inst, "P", i, grid=grid)
    return [
        ("source_minimizer_boundaries", i, list(h.boundaries), list(cuts),
         h.boundaries == tuple(cuts) and h.first_sign == 1),
        _close("source_opt_target_excess", i, exc, t.excess_q_of_source_opt),
        ("exponent_selected", i, est.rho_hat, t.rho, est.rho_hat == t.rho),
        ("exponent_minimality_diagnostic", i, const_below, ">1e2", const_below > 1e2),
        ("bcc_source_confirmed", i, bcc.sup_ratio, "finite", bcc.confirmed),
    ]


def _staircase_instance(inst, excs, cfg) -> list:
    stair = [inst.truth[i].excess_q_of_source_opt for i in sorted(inst.truth)]
    steps = list(zip(stair, stair[1:]))
    top, stars = max(inst.truth), [inst.i_star_source, inst.i_star_target]
    return [
        ("target_excess_nonincreasing", None, stair, "nonincreasing",
         all(a >= b for a, b in steps)),
        # Strictness is an open reading of the construction; measured, not asserted.
        ("target_excess_strictly_decreasing_measured", None, all(a > b for a, b in steps),
         None, True),
        ("i_star", None, stars, [top, top], stars == [top, top]),
    ]


def _shifted_instance(inst, excs, cfg) -> list:
    prof = analysis.rate_profile(inst, max(cfg.n_source_grid), cfg.n_target_grid[0],
                                 delta=cfg.selection.delta)
    return [
        ("three_way_excess_equality", None, excs, "equal", max(excs) - min(excs) < 1e-12),
        ("best_level_below_top", None, prof.i_best_conf, "< 3",
         prof.i_best_conf < max(inst.truth)),
    ]


def _gap_facts(instances, cfg) -> list:
    analytic = families.event_b_probability(instances[0])
    return [("event_b_analytic", None, analytic, ">= 7/8", analytic >= 7.0 / 8.0)]


def _gap_level(inst, i, h, exc) -> list:
    grid = analysis.extended_gap_witness_grid(inst, i) if inst.family == "extended_gap" else None
    est = analysis.estimate_transfer_exponent(
        inst, i, candidate_rhos=(inst.truth[i].rho,), grid=grid)
    return [
        _close("source_opt_target_excess_zero", i, exc, 0.0),
        ("unit_transfer_coefficient", i, est.c_hat, "<= 1+1e-6", est.c_hat <= 1.0 + 1e-6),
    ]


def _gap_instance(inst, excs, cfg) -> list:
    n_p = cfg.n_source_grid[0]
    prof = analysis.rate_profile(inst, n_p, cfg.n_target_grid[0], delta=cfg.selection.delta)
    if inst.family == "gap":
        # Unit VC dims collapse the fast arm to the bare rate, bit for bit.
        want = (1.0 / n_p) ** (1.0 / inst.params["rho_b"])
    else:
        want = min((inst.hierarchy.vc_dim(i) / n_p) ** (1.0 / inst.truth[i].rho)
                   for i in sorted(inst.truth))
    got, stars = min(prof.rates_plain.values()), [inst.i_star_source, inst.i_star_target]
    return [
        ("min_rate_plain_exact", None, got, want, got == want),
        ("i_star", None, stars, [2, 1], stars == [2, 1]),
    ]


def _two_point_facts(instances, cfg) -> list:
    n_q = cfg.n_target_grid[0]
    if n_q < 1:
        return []
    p_all_heavy = (1.0 - instances[0].params["alpha"]) ** n_q
    return [("all_mass_at_heavy_point", None, p_all_heavy, ">= 1/2", p_all_heavy >= 0.5)]


def _two_point_instance(inst, excs, cfg) -> list:
    want = inst.params["target_optimal_level"]
    return [
        _close("max_source_opt_target_excess", None, max(excs), inst.params["alpha"]),
        ("target_optimal_level", None, inst.i_star_target, want, inst.i_star_target == want),
    ]


def _fixed_class_level(inst, i, h, exc) -> list:
    t = inst.truth[i]
    est = analysis.estimate_transfer_exponent(
        inst, i, candidate_rhos=(t.rho,), stable_cap=math.inf)
    bcc = analysis.verify_bcc(inst, "Q", i)
    return [
        _close("stored_transfer_coefficient", i, est.c_hat, t.rho_const, 1e-9),
        _close("stored_bcc_coefficient", i, bcc.sup_ratio, inst.params["bcc_const_target"], 1e-9),
        _close("source_opt_target_excess", i, exc, t.excess_q_of_source_opt),
    ]


# Each family's checks, as (property, level, measured, target, pass) tuples:
# ``facts(instances, cfg)`` once, before any instance; ``level(inst, i, h,
# excess)`` on each level's source minimizer h and h's exact target excess;
# ``instance(inst, excesses, cfg)`` after an instance's levels, with their
# excesses in level order.
VERIFY_SUITES = {  # family: (facts, level, instance)
    "threshold_nn": (_no_checks, _staircase_level, _staircase_instance),
    "shifted_target": (_no_checks, _no_checks, _shifted_instance),
    "gap": (_gap_facts, _gap_level, _gap_instance),
    "extended_gap": (_gap_facts, _gap_level, _gap_instance),
    "two_point": (_two_point_facts, _no_checks, _two_point_instance),
    "fixed_class": (_no_checks, _fixed_class_level, _no_checks),
}


def verify_construction(cfg: ExperimentConfig) -> dict:
    """Run the family's property suite; failures are entries, not aborts.

    One loop serves every family: it rechecks each instance's optimal risks
    and reads each level's source reference (``analysis.level_reference``),
    whose target excess is its target risk minus the stored optimum.
    """
    if cfg.family not in VERIFY_SUITES:
        raise ValueError(f"unknown family {cfg.family!r}")
    facts, level_checks, instance_checks = VERIFY_SUITES[cfg.family]
    instances = build_family(cfg.family, cfg.params, cfg.n_source_grid[0], cfg.n_target_grid[0])
    if cfg.family == "fixed_class":
        # The sign index is exponential in d; verify a deterministic subset.
        instances = instances[:4] + instances[-1:]
    entries = [_entry("", *check) for check in facts(instances, cfg)]
    for inst in instances:
        checks = [  # the top level's reference rederives each stored optimum
            _close(f"optimal_risk_{which}_recomputed", None,
                   analysis.level_reference(inst, which, inst.hierarchy.max_level)[col], stored)
            for which, col, stored in (("P", 1, inst.optimal_risk_source),
                                       ("Q", 2, inst.optimal_risk_target))
        ]
        excs = []
        for i in sorted(inst.truth):
            h, _, risk_q = analysis.level_reference(inst, "P", i)
            excs.append(risk_q - inst.optimal_risk_target)
            checks += level_checks(inst, i, h, excs[-1])
        checks += instance_checks(inst, excs, cfg)
        entries += [_entry(_sigma_tag(inst), *check) for check in checks]
    failed = [e["property"] for e in entries if not e["pass"]]
    return {
        "kind": "verify",
        "family": cfg.family,
        "entries": entries,
        "checks": len(entries),
        "failures": failed,
        "all_pass": not failed,
    }


def _random_erm_case(seed: int):
    rng = _rng(seed)
    n = int(rng.integers(0, 13))
    xs = np.round(rng.random(n), 6)
    ys = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    if int(rng.integers(0, 2)) == 0:
        level = int(rng.integers(0, 5))
        hierarchy = BoundaryClassHierarchy(max_level=max(level, 1))
    else:
        level = int(rng.integers(1, 5))
        hierarchy = OneSidedThresholdHierarchy(max_level=level)
    sample = LabeledSample(xs, ys)
    return sample, hierarchy, level


def erm_check(cfg: ExperimentConfig, cases: int = 200) -> dict:
    """Exact-solver equivalence sweep against brute force on small samples:
    each case's level ERM (mistakes and canonical minimizer) and the verdict
    of its intersection search."""
    mismatches = []
    seeds = []
    for i in range(cases):
        seed = stable_seed(cfg.base_seed, "erm-case", i)
        seeds.append(seed)
        sample, hierarchy, level = _random_erm_case(seed)
        ctx = LevelContext(hierarchy, sample, cfg.selection)
        got = ctx.erm(level)
        brute = erm_bruteforce(sample, hierarchy.flip_budgets(level))
        if got != brute:
            mismatches.append(
                {"case": i, "seed": seed, "solver": got.mistakes, "bruteforce": brute.mistakes,
                 "solver_hypothesis": repr(got.hypothesis),
                 "bruteforce_hypothesis": repr(brute.hypothesis), "level": level}
            )
        # Intersection search vs exhaustive minimal-set scan.
        scan_from = hierarchy.min_level
        result = ctx.intersection(scan_from)
        exhaustive = None
        for h in hierarchy.enumerate_on(sample.xs, hierarchy.max_level):
            if all(ctx.is_member(h, j) for j in range(scan_from, ctx.top + 1)):
                exhaustive = h
                break
        agree = (result.status == "found") == (exhaustive is not None)
        if not agree:
            mismatches.append(
                {"case": i, "seed": seed, "solver": result.status,
                 "bruteforce": "found" if exhaustive is not None else "empty",
                 "level": scan_from}
            )
    return {
        "kind": "erm_check",
        "cases": cases,
        "mismatches": mismatches,
        "ok": not mismatches,
        "case_seeds": seeds,
    }


def calibrate(cfg: ExperimentConfig) -> dict:
    """Sweep the slack multipliers and score each setting.

    κ is the 90th-percentile excess of the arbitrated learner pinned to the
    source's optimal level, normalized by the confidence rate bound at that
    level; the companion frequency is how often the target-sample level scan
    stays at or below the target's optimal level.  The recommendation is the
    smallest κ among settings whose frequency reaches 1 - delta, with a
    bootstrap interval on κ.
    """
    params = dict(cfg.params)
    grid = params.pop("coef_grid", (0.5, 1.0, 2.0))
    if not isinstance(grid, (list, tuple)) or not all(_is_number(v) for v in grid):
        raise ValueError("coef_grid must be a list of numbers")
    # Floats before seeding: stable_seed reads str(2) and str(2.0) apart.
    grid = [float(v) for v in grid]
    n_p = cfg.n_source_grid[0]
    n_q = cfg.n_target_grid[0]
    instance = build_family(cfg.family, params, n_p, n_q)[0]
    tag = _sigma_tag(instance)
    hierarchy = instance.hierarchy
    i_p = instance.i_star_source
    i_q = instance.i_star_target
    prof = analysis.rate_profile(instance, n_p, n_q, delta=cfg.selection.delta)
    rate_at_ip = prof.rates_conf[i_p]

    draws = [
        _draw(instance, n_p, n_q, cfg.base_seed, tag, r) for r in range(cfg.replicates)
    ]
    # The source ERM does not depend on C or c: one source context per draw.
    candidates = [
        LevelContext(hierarchy, s_p, cfg.selection).erm(i_p).hypothesis for s_p, _, _ in draws
    ]
    settings = []
    for big_c in grid:
        for small_c in grid:
            sel = replace(cfg.selection, C=big_c, c=small_c)
            chosen = []
            hits = 0
            for (s_p, s_q, s_hold), candidate in zip(draws, candidates):
                fit = Fit(hierarchy, s_p, s_q, s_hold, sel)
                chosen.append(algorithm2(fit, candidate)[0])
                hits += fit.target_scan[0] <= i_q
            arr = np.asarray(_checked_excesses(instance, chosen))
            kappa = float(np.percentile(arr, 90)) / rate_at_ip
            boot_rng = _rng(stable_seed(cfg.base_seed, "boot", big_c, small_c))
            boot = [
                float(np.percentile(boot_rng.choice(arr, size=arr.size, replace=True), 90))
                / rate_at_ip
                for _ in range(200)
            ]
            settings.append(
                {
                    "C": big_c,
                    "c": small_c,
                    "kappa": kappa,
                    "kappa_ci": [float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))],
                    "level_ok_freq": hits / cfg.replicates,
                }
            )
    target_freq = 1.0 - cfg.selection.delta
    qualified = [s for s in settings if s["level_ok_freq"] >= target_freq]
    pool = qualified if qualified else settings
    best = min(pool, key=lambda s: (s["kappa"], s["C"], s["c"]))
    return {
        "kind": "calibrate",
        "family": cfg.family,
        "n_source": n_p,
        "n_target": n_q,
        "replicates": cfg.replicates,
        "rate_conf_at_i_star_source": rate_at_ip,
        "settings": settings,
        "recommended": {"C": best["C"], "c": best["c"]},
        "recommendation_qualified": bool(qualified),
    }


def records_csv_text(records) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())
    return buf.getvalue()


def summary_json_text(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def records_json_text(records) -> str:
    rows = [{c: getattr(r, c) for c in RECORD_COLUMNS} for r in records]
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def write_outputs(out_dir: str, records, summary: dict, fmt: str = "csv") -> dict:
    """Write an experiment's outputs into ``out_dir``; the only code that does.

    Records go to ``records.csv``, or ``records.json`` with ``fmt="json"``,
    unless they are None; the summary always goes to ``summary.json``.
    Returns the path of each file written, records first.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown records format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if records is not None:
        paths["records"] = os.path.join(out_dir, f"records.{fmt}")
        text = records_csv_text(records) if fmt == "csv" else records_json_text(records)
        with open(paths["records"], "w", newline="") as fh:
            fh.write(text)
    paths["summary"] = os.path.join(out_dir, "summary.json")
    with open(paths["summary"], "w") as fh:
        fh.write(summary_json_text(summary))
    return paths


def run_experiment(cfg: ExperimentConfig):
    """Dispatch on the experiment kind; returns (records, summary).

    Writes nothing: ``write_outputs`` turns the pair into files.
    """
    if cfg.kind == "rate_curve":
        cells = _cells(cfg)
        records = run_replicates(cfg, cells)
        summary = _rate_curve_summary(cfg, cells, records)
    elif cfg.kind == "gap_demo":
        records, summary = gap_demo(cfg)
    elif cfg.kind == "verify":
        records, summary = None, verify_construction(cfg)
    elif cfg.kind == "erm_check":
        records, summary = None, erm_check(cfg)
    elif cfg.kind == "calibrate":
        records, summary = None, calibrate(cfg)
    else:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    return records, {"schema": SCHEMA_VERSION, **summary}
