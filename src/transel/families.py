"""Benchmark transfer problems with exactly known structure.

Each factory builds a source/target distribution pair over a nested hypothesis
hierarchy together with ground-truth metadata (level-wise transfer exponents
and coefficients, target excess risk of the best source hypothesis, noise
exponents, optimal levels, optimal risks).  All quantities are closed form, so
simulation output can be scored against exact values.  Factories are pure and
deterministic.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .classifiers import BoundaryHypothesis, TabularHypothesis
from .distributions import (
    DiscreteDistribution,
    PiecewiseDistribution,
    PowerLaw,
    Segment,
    Uniform,
)
from .erm import (
    BoundaryClassHierarchy,
    FiniteClassHierarchy,
    OneSidedThresholdHierarchy,
)
from .selection import _is_finite, _is_int, _is_number

GAP_SCALE = 32.0
# The gap families' support [1/9, 1] cut into five intervals: outer left,
# inner left, middle, inner right, outer right.  The four inner cuts are
# unpacked as left_out, left_in, right_in, right_out.
GAP_EDGES = (1 / 9, 1 / 3, 4 / 9, 5 / 9, 2 / 3, 1)


@dataclass(frozen=True)
class ConstructionIndex:
    """Sign vector selecting one member of an indexed family."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be a nonempty tuple of -1/+1")
        object.__setattr__(self, "signs", signs)

    @property
    def tag(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class LevelTruth:
    """Exact per-level transfer/noise parameters of a constructed pair.

    rho / rho_const: exponent and coefficient relating source to target excess
    risk relative to the level's source optimum.  excess_q_of_source_opt: the
    target excess risk of the level's source risk minimizer.  beta_p / beta_q:
    noise exponents of the source and target at this level.
    """

    rho: float
    rho_const: float
    excess_q_of_source_opt: float
    beta_p: float = 1.0
    beta_q: float = 1.0

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.rho_const < 0:
            raise ValueError("rho_const must be nonnegative")
        if self.excess_q_of_source_opt < 0:
            raise ValueError("excess_q_of_source_opt must be nonnegative")
        for b in (self.beta_p, self.beta_q):
            if not 0.0 <= b <= 1.0:
                raise ValueError("noise exponents must lie in [0, 1]")


@dataclass(frozen=True)
class TransferInstance:
    """A fully specified transfer problem plus its ground truth."""

    family: str
    source: PiecewiseDistribution | DiscreteDistribution
    target: PiecewiseDistribution | DiscreteDistribution
    hierarchy: object
    truth: dict[int, LevelTruth]
    i_star_source: int
    i_star_target: int
    optimal_risk_source: float
    optimal_risk_target: float
    index: ConstructionIndex | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.hierarchy.min_level, self.hierarchy.max_level
        for level in self.truth:
            if not lo <= level <= hi:
                raise ValueError(f"truth entry for level {level} outside {lo}..{hi}")
        for name, i in (("i_star_source", self.i_star_source), ("i_star_target", self.i_star_target)):
            if not lo <= i <= hi:
                raise ValueError(f"{name}={i} outside hierarchy levels {lo}..{hi}")
        for risk in (self.optimal_risk_source, self.optimal_risk_target):
            if not 0.0 <= risk <= 1.0:
                raise ValueError("optimal risks must lie in [0, 1]")

    def level_truth(self, level: int) -> LevelTruth:
        if level not in self.truth:
            raise KeyError(f"no truth recorded for level {level}; have {sorted(self.truth)}")
        return self.truth[level]


def _alternating_uniform(cuts) -> PiecewiseDistribution:
    """Uniform marginal on [0, 1] with deterministic labels flipping at cuts,
    starting at +1."""
    edges = [0.0, *cuts, 1.0]
    segs = []
    sign = 1
    for a, b in zip(edges, edges[1:]):
        segs.append(Segment(a, b, b - a, Uniform(), sign))
        sign = -sign
    return PiecewiseDistribution(tuple(segs))


def _staircase_source(rhos):
    """Source whose density concentrates near each optimal boundary at a
    level-dependent power-law rate; labels alternate starting at +1."""
    levels = len(rhos)
    anchors = [(k + 1) / (levels + 1) for k in range(levels)]
    edges = [0.0]
    edges += [(anchors[k] + anchors[k + 1]) / 2 for k in range(levels - 1)]
    edges += [1.0]
    raw = []
    for k, rho in enumerate(rhos):
        i = k + 1
        scale = 2.0 ** (-(2 * i * rho + i))
        w_left = anchors[k] - edges[k]
        w_right = edges[k + 1] - anchors[k]
        raw.append((scale * w_left**rho, scale * w_right**rho))
        if 0.0 in raw[-1]:
            raise ValueError(f"level {i}'s source mass underflows to 0 at rho {rho:g}")
    z = math.fsum(m for pair in raw for m in pair)
    segs = []
    for k, rho in enumerate(rhos):
        left_sign = 1 if k % 2 == 0 else -1
        m_left, m_right = raw[k]
        shape = PowerLaw(anchors[k], rho)
        segs.append(Segment(edges[k], anchors[k], m_left / z, shape, left_sign))
        segs.append(Segment(anchors[k], edges[k + 1], m_right / z, shape, -left_sign))
    return PiecewiseDistribution(tuple(segs)), anchors, z


def _staircase_truth(rhos, z, excess_q) -> dict[int, LevelTruth]:
    """Each level i's truth over the staircase source with normalizer z:
    exponent rhos[i-1] with its exact coefficient, and ``excess_q(i)``, the
    target excess risk of the level's source optimum."""
    return {i: LevelTruth(rho=rho, rho_const=z ** (1.0 / rho) * 2.0 ** (2 * i + i / rho),
                          excess_q_of_source_opt=excess_q(i))
            for i, rho in enumerate(rhos, 1)}


def _validate_rhos(rhos):
    if not rhos:
        raise ValueError("need at least one level exponent")
    if rhos[0] < 1.0 or any(a > b for a, b in zip(rhos, rhos[1:])):
        raise ValueError("level exponents must be nondecreasing and at least 1")


def build_threshold_nn(rhos) -> TransferInstance:
    """Nested boundary classes where the target is uniform with alternating
    cells and the source concentrates around each cell boundary.

    Level i transfers with exponent rhos[i-1]; the best source hypothesis at
    level i mislabels a known fraction of target cells, giving a staircase of
    target excess risks that is exactly ceil((L-i)/2)/(L+1) for L = len(rhos).
    """
    _validate_rhos(rhos)
    levels = len(rhos)
    source, anchors, z = _staircase_source(rhos)
    return TransferInstance(
        family="threshold_nn",
        source=source,
        target=_alternating_uniform(anchors),
        hierarchy=BoundaryClassHierarchy(max_level=levels),
        truth=_staircase_truth(rhos, z, lambda i: math.ceil((levels - i) / 2) / (levels + 1)),
        i_star_source=levels,
        i_star_target=levels,
        optimal_risk_source=0.0,
        optimal_risk_target=0.0,
        params={"rhos": rhos, "levels": levels, "anchors": tuple(anchors), "normalizer": z},
    )


def build_shifted_target(rhos=(1.0, 1.0, 2.0)) -> TransferInstance:
    """Same source as build_threshold_nn with three levels, but the target's
    label boundaries sit halfway between consecutive source boundaries, so
    every level's source optimum has the same target excess risk (3/8)."""
    _validate_rhos(rhos)
    if len(rhos) != 3:
        raise ValueError("shifted-target construction is defined for exactly 3 levels")
    source, anchors, z = _staircase_source(rhos)
    shifted = [(anchors[0] + anchors[1]) / 2, (anchors[1] + anchors[2]) / 2, (anchors[2] + 1.0) / 2]
    return TransferInstance(
        family="shifted_target",
        source=source,
        target=_alternating_uniform(shifted),
        hierarchy=BoundaryClassHierarchy(max_level=3),
        truth=_staircase_truth(rhos, z, lambda i: 3.0 / 8.0),
        i_star_source=3,
        i_star_target=3,
        optimal_risk_source=0.0,
        optimal_risk_target=0.0,
        params={"rhos": rhos, "levels": 3, "anchors": tuple(anchors), "target_cuts": tuple(shifted), "normalizer": z},
    )


def _gap_params(rho_a, rho_b, n_source, n_target, enforce_regime, hard_cap=None) -> dict:
    """The params shared by both gap families, their three interval masses
    included."""
    if not rho_a > rho_b >= 1.0:
        raise ValueError("need rho_a > rho_b >= 1")
    if n_source < 1:
        raise ValueError("n_source must be at least 1")
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    inner = 1.0 / (GAP_SCALE * n_source)
    big = inner ** (1.0 / rho_a)
    small = inner ** (1.0 / rho_b)
    if enforce_regime:
        cap = math.inf if n_target == 0 else 1.0 / (GAP_SCALE * n_target)
        if hard_cap is not None:
            cap = min(cap, hard_cap)
        if big > cap:
            raise ValueError(
                "sample-size regime violated: (1/(32*n_source))**(1/rho_a) "
                f"= {big} exceeds {cap}; the construction's guarantees need "
                "a larger n_source or smaller n_target"
            )
    if big > 0.5 or 5.0 / 12.0 - 2.0 * inner < 0.0:
        raise ValueError("n_source too small: interval masses would be negative")
    return {"rho_a": rho_a, "rho_b": rho_b, "n_source": n_source, "n_target": n_target,
            "inner_mass_source": inner, "inner_mass_target_big": big,
            "inner_mass_target_small": small}


def _gap_distribution(masses, signs, shapes=(Uniform(),) * 5) -> PiecewiseDistribution:
    """The five gap intervals, one label each from ``signs``."""
    edges = GAP_EDGES
    return PiecewiseDistribution(tuple(
        Segment(lo, hi, mass, shape, sign)
        for lo, hi, mass, shape, sign in zip(edges, edges[1:], masses, shapes, signs)
    ))


def _gap_instance(family, hierarchy, signs, target, params) -> TransferInstance:
    """The member of a gap family with index signs (inner_sign, swap_sign)."""
    inner_sign, swap_sign = signs
    inner, big = params["inner_mass_source"], params["inner_mass_target_big"]
    fast, slow = params["rho_b"], params["rho_a"]
    return TransferInstance(
        family=family,
        source=_gap_distribution(
            (1 / 3, inner, 5 / 12 - 2 * inner, inner, 1 / 4), (1, inner_sign, -1, inner_sign, 1)
        ),
        target=target,
        hierarchy=hierarchy,
        truth={
            level: LevelTruth(rho=rho, rho_const=1.0, excess_q_of_source_opt=0.0)
            for level, rho in enumerate((fast, slow) if swap_sign == 1 else (slow, fast), 1)
        },
        i_star_source=2,
        i_star_target=1,
        optimal_risk_source=0.25 + (inner if inner_sign == 1 else 0.0),
        optimal_risk_target=big if inner_sign == 1 else (big - params["inner_mass_target_small"]) / 2.0,
        index=ConstructionIndex(signs),
        params=params,
    )


def build_gap_family(rho_a, rho_b, n_source, n_target, enforce_regime: bool = True):
    """Four-instance family over a fixed finite hierarchy (two one-sided
    thresholds, then two left intervals) where which level transfers fast is
    hidden in the index signs.

    Returns instances for index signs (inner_sign, swap_sign) in
    (+1,+1), (+1,-1), (-1,+1), (-1,-1).  inner_sign sets the labels of the two
    narrow source intervals; swap_sign sets which of the two matching target
    intervals carries the larger mass, which swaps the levels' transfer
    exponents between rho_a and rho_b.  Both exponents hold with coefficient 1.
    """
    params = _gap_params(rho_a, rho_b, n_source, n_target, enforce_regime)
    big, small = params["inner_mass_target_big"], params["inner_mass_target_small"]
    _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
    step_near = BoundaryHypothesis((right_in,), -1)
    step_far = BoundaryHypothesis((right_out,), -1)
    interval_near = BoundaryHypothesis((left_in,), 1)
    interval_far = BoundaryHypothesis((left_out,), 1)
    hierarchy = FiniteClassHierarchy(
        {1: (step_near, step_far), 2: (step_near, step_far, interval_far, interval_near)},
        vc_dims=(1, 1),
    )
    out = []
    for signs in itertools.product((1, -1), repeat=2):
        inner_sign, swap_sign = signs
        left_mass, right_mass = (big, small) if swap_sign == 1 else (small, big)
        outer = (big - small) / 2.0
        target = _gap_distribution(
            (outer, left_mass, 1.0 - 2.0 * big, right_mass, outer),
            (-inner_sign * swap_sign, inner_sign, -1, inner_sign, swap_sign),
        )
        out.append(_gap_instance("gap", hierarchy, signs, target,
                                 {**params, "regime_enforced": enforce_regime}))
    return out


def build_extended_gap_family(rho_a, rho_b, n_source, n_target):
    """Variant of build_gap_family over the full one-sided threshold and
    left-interval classes, with power-law target densities inside the two
    narrow intervals anchored at the optimal decision boundaries so that the
    same per-level exponents hold along boundary perturbations."""
    params = _gap_params(rho_a, rho_b, n_source, n_target, True, hard_cap=1.0 / 24.0)
    big, small = params["inner_mass_target_big"], params["inner_mass_target_small"]
    _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
    hierarchy = OneSidedThresholdHierarchy(max_level=2)
    out = []
    for signs in itertools.product((1, -1), repeat=2):
        inner_sign, swap_sign = signs
        left_mass, right_mass = (big, small) if swap_sign == 1 else (small, big)
        left_exp, right_exp = (
            (1.0 / rho_a, 1.0 / rho_b) if swap_sign == 1 else (1.0 / rho_b, 1.0 / rho_a)
        )
        left_anchor, right_anchor = (left_in, right_in) if inner_sign == 1 else (left_out, right_out)
        if inner_sign == 1:
            outer_left, outer_right = ((0.0, big - small) if swap_sign == 1 else (big - small, 0.0))
        else:
            outer_left = outer_right = (big - small) / 2.0
        target = _gap_distribution(
            (outer_left, left_mass, 1.0 - 2.0 * big, right_mass, outer_right),
            (1, inner_sign, -1, inner_sign, 1),
            (Uniform(), PowerLaw(left_anchor, left_exp), Uniform(),
             PowerLaw(right_anchor, right_exp), Uniform()),
        )
        out.append(_gap_instance("extended_gap", hierarchy, signs, target,
                                 {**params, "inner_anchors": (left_anchor, right_anchor)}))
    return out


def event_b_probability(instance: TransferInstance) -> float:
    """Exact probability that no source draw lands in the two narrow source
    intervals and no target draw lands outside the central interval."""
    if instance.family not in ("gap", "extended_gap"):
        raise ValueError(f"event probability is defined for the gap families, not {instance.family!r}")
    p = instance.params
    inner, big = p["inner_mass_source"], p["inner_mass_target_big"]
    return (1.0 - 2.0 * inner) ** p["n_source"] * (1.0 - 2.0 * big) ** p["n_target"]


def _count_in(xs, lo, hi) -> int:
    """Entries of the ascending array ``xs`` in the closed interval [lo, hi]."""
    return int(np.searchsorted(xs, hi, side="right") - np.searchsorted(xs, lo, side="left"))


def event_b_holds(s_p, s_q) -> bool:
    """Empirical event B on one replicate of a gap family: no source draw
    lands in either (closed) inner interval and no target draw lands outside
    the (closed) middle interval.  A sample's ``xs`` are ascending, so each
    interval is read with two binary searches."""
    _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
    in_inner = _count_in(s_p.xs, left_out, left_in) + _count_in(s_p.xs, right_in, right_out)
    return in_inner == 0 and _count_in(s_q.xs, left_in, right_in) == len(s_q.xs)


def build_two_point_family(alpha, n_target):
    """Two instances on a two-point support where the target optimum lives at
    level 1 or level 2 and the other level's source optimum pays exactly alpha.

    Index signs: (+1,) puts the target optimum at level 1, (-1,) at level 2.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    if n_target > 0 and alpha > 1.0 / (2.0 * n_target):
        raise ValueError(
            f"sample-size regime violated: alpha = {alpha} exceeds 1/(2*n_target) = {1.0 / (2.0 * n_target)}"
        )
    points = (0.0, 1.0)
    h_flip = TabularHypothesis(points, (1, -1))
    h_flat = TabularHypothesis(points, (1, 1))
    hierarchy = FiniteClassHierarchy({1: (h_flip,), 2: (h_flip, h_flat)}, vc_dims=(1, 1))
    source = DiscreteDistribution(points, (0.5, 0.5), (1.0, 1.0))
    out = []
    for optimum_level, sign in ((1, 1), (2, -1)):
        pos = (1.0, 0.0) if optimum_level == 1 else (1.0, 1.0)
        target = DiscreteDistribution(points, (1.0 - alpha, alpha), pos)
        truth = {
            1: LevelTruth(rho=1.0, rho_const=0.0,
                          excess_q_of_source_opt=0.0 if optimum_level == 1 else alpha),
            2: LevelTruth(rho=1.0, rho_const=0.0 if optimum_level == 1 else 2.0 * alpha,
                          excess_q_of_source_opt=alpha if optimum_level == 1 else 0.0),
        }
        out.append(TransferInstance(
            family="two_point",
            source=source,
            target=target,
            hierarchy=hierarchy,
            truth=truth,
            i_star_source=2,
            i_star_target=optimum_level,
            optimal_risk_source=0.0,
            optimal_risk_target=0.0,
            index=ConstructionIndex((sign,)),
            params={"alpha": alpha, "n_target": n_target, "target_optimal_level": optimum_level},
        ))
    return out


def _tabular_risk(labels: np.ndarray, masses: np.ndarray, pos_probs: np.ndarray) -> np.ndarray:
    """Risk of each labeling row under atom masses and positive-label rates."""
    err = np.where(labels > 0, 1.0 - pos_probs, pos_probs)
    return err @ masses


def build_fixed_class_family(d, beta_p, beta_q, rho, alpha, n_source, n_target, c2=0.25):
    """Generator over a sign-indexed family on d atoms with one dominant clean
    atom and d-1 light noisy atoms whose label bias encodes the index.

    The single class is every labeling of the d atoms.  Yields one instance
    per sign vector of length d-1, in ascending tuple order with -1 before +1.
    Stored truth carries the exact enumerated transfer coefficient at the
    nominal exponent; the exact noise-condition coefficient is in
    params["bcc_const_target"].
    """
    if d < 9:
        raise ValueError("need at least 9 support points")
    if d > 12:
        raise ValueError("supports at most 12 points (class enumeration grows as 2**d)")
    if not 0.0 <= beta_p < 1.0:
        raise ValueError("beta_p must lie in [0, 1)")
    if not 0.0 < beta_q < 1.0:
        raise ValueError("beta_q must lie in (0, 1); 0 would remove the dominant atom")
    if rho < 1.0:
        raise ValueError("rho must be at least 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0.0 < c2 <= 2.0:
        raise ValueError("c2 must lie in (0, 2]")
    if max(n_source, n_target) <= d:
        raise ValueError("need max(n_source, n_target) > d")
    target_arm = math.inf if n_target == 0 else (d / n_target) ** (1.0 / (2.0 - beta_q))
    eps = c2 * min(alpha, target_arm)
    margin = eps ** (1.0 - beta_q)
    if margin >= 0.5:
        raise ValueError(f"label bias {margin} must stay below 1/2; shrink alpha or c2")
    light = eps**beta_q / (d - 1)
    points = tuple(float(i) for i in range(d))
    masses = np.array([1.0 - eps**beta_q] + [light] * (d - 1))
    if masses[0] <= 0.0:
        raise ValueError("dominant atom mass must be positive; shrink alpha or c2")
    all_labels = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=int)
    hypotheses = tuple(TabularHypothesis(points, tuple(int(v) for v in row)) for row in all_labels)
    hierarchy = FiniteClassHierarchy({1: hypotheses}, vc_dims=(d,))
    source = DiscreteDistribution(points, tuple(1.0 / d for _ in points), (1.0,) * d)
    source_risks = _tabular_risk(all_labels, np.full(d, 1.0 / d), np.ones(d))
    best_source = int(np.argmin(source_risks))
    excess_source = source_risks - source_risks[best_source]

    def generate():
        for signs in itertools.product((-1, 1), repeat=d - 1):
            pos = np.array([1.0] + [0.5 + s * margin / 4.0 for s in signs])
            target = DiscreteDistribution(points, tuple(masses), tuple(pos))
            risks = _tabular_risk(all_labels, masses, pos)
            best = float(np.min(risks))
            excess_q = risks - best
            rel_source_opt = risks - risks[best_source]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(excess_source > 0, rel_source_opt / excess_source ** (1.0 / rho), 0.0)
            rho_const = float(np.max(np.maximum(ratios, 0.0)))
            best_row = all_labels[int(np.argmin(risks))]
            disagree = (all_labels != best_row) @ masses
            live = excess_q > 1e-12
            bcc_const = float(np.max(disagree[live] / excess_q[live] ** beta_q)) if live.any() else 0.0
            yield TransferInstance(
                family="fixed_class",
                source=source,
                target=target,
                hierarchy=hierarchy,
                truth={1: LevelTruth(rho=rho, rho_const=rho_const,
                                     excess_q_of_source_opt=float(excess_q[best_source]),
                                     beta_p=beta_p, beta_q=beta_q)},
                i_star_source=1,
                i_star_target=1,
                optimal_risk_source=0.0,
                optimal_risk_target=best,
                index=ConstructionIndex(signs),
                params={
                    "d": d,
                    "alpha": alpha,
                    "c2": c2,
                    "rho": rho,
                    "n_source": n_source,
                    "n_target": n_target,
                    "target_scale": eps,
                    "label_margin": margin,
                    "bcc_const_target": bcc_const,
                },
            )

    return generate()


def _param_type(what, ok, convert, finite=lambda v: True):
    def check(name, value):
        if not ok(value):
            raise ValueError(f"{name} must be {what}")
        if not finite(value):
            raise ValueError(f"{name} must be finite")
        return convert(value)

    return check


NUMBER = _param_type("a number", _is_number, float, _is_finite)
INTEGER = _param_type("an integer", _is_int, int)
FLAG = _param_type("true or false", lambda v: isinstance(v, bool), bool)
NUMBERS = _param_type(
    "a list of numbers",
    lambda v: isinstance(v, (list, tuple)) and all(_is_number(r) for r in v),
    lambda v: tuple(float(r) for r in v),
    lambda v: all(map(_is_finite, v)),
)


def _family(factory: str, **types):
    return factory, types, inspect.signature(globals()[factory]).parameters


# Every family's factory and the type of each of its params: the only place a
# JSON-native param is checked and converted.  Factories are named, not held,
# so a wrapper installed on this module is called.  Required params, defaults
# and the sample sizes a factory takes come from the factory's signature.
FAMILIES = {
    "threshold_nn": _family("build_threshold_nn", rhos=NUMBERS),
    "shifted_target": _family("build_shifted_target", rhos=NUMBERS),
    "gap": _family("build_gap_family", rho_a=NUMBER, rho_b=NUMBER, enforce_regime=FLAG),
    "extended_gap": _family("build_extended_gap_family", rho_a=NUMBER, rho_b=NUMBER),
    "two_point": _family("build_two_point_family", alpha=NUMBER),
    "fixed_class": _family(
        "build_fixed_class_family",
        d=INTEGER, beta_p=NUMBER, beta_q=NUMBER, rho=NUMBER, alpha=NUMBER, c2=NUMBER,
    ),
}
