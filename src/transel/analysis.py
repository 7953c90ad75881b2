"""Closed-form study of benchmark transfer instances.

Everything here works off the exact integration in :mod:`transel.distributions`,
so minimizers, excess risks, and constant estimates are deterministic and
reproducible: no sampling is involved.  Three things still approximate:

- a transfer or noise-condition (BCC) constant is a supremum over a finite
  hypothesis grid (see :func:`default_ratio_grid`), so it is only a *lower*
  bound on the true constant;
- ties with a minimizer are decided with the tolerance ``RISK_ATOL``, not
  exactly;
- an exponent counts as bounded when its grid constant is at most a
  threshold, ``DEFAULT_STABLE_CAP``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .classifiers import BoundaryGrid
from .distributions import DiscreteDistribution, PiecewiseDistribution, PowerLaw
from .erm import FiniteClassHierarchy, hypothesis_sort_key
from .families import GAP_EDGES, TransferInstance
from .selection import level_confidence

# Excess risks below this are treated as ties with the minimizer.
RISK_ATOL = 1e-12

# Default ceiling above which a fitted leading constant is deemed unstable.
DEFAULT_STABLE_CAP = 100.0

_SWEEP_POINTS = 10_000
_JOINT_POINTS = 100
_APPROACH_DECADES = 12

__all__ = [
    "BccCheck",
    "RateProfile",
    "TransferExponentEstimate",
    "default_ratio_grid",
    "estimate_transfer_exponent",
    "excess_risk",
    "excess_risks",
    "extended_gap_witness_grid",
    "global_optimal_risk",
    "level_reference",
    "level_risk_minimizer",
    "rate_profile",
    "verify_bcc",
]


def _side(which: str, p, q):
    """``p`` for the source side ``"P"``, ``q`` for the target side ``"Q"``."""
    if which not in ("P", "Q"):
        raise ValueError(f"which must be 'P' or 'Q', got {which!r}")
    return p if which == "P" else q


def _interior_knots(source, target) -> tuple[float, ...]:
    """Breakpoints of both marginals strictly inside the common support.

    Collects segment endpoints and power-law anchors; any optimal boundary
    placement is attained at one of these (risk is piecewise monotone in each
    boundary between consecutive knots).
    """
    dists = (source, target)
    if any(not isinstance(d, PiecewiseDistribution) for d in dists):
        raise ValueError("boundary search needs piecewise marginals on both sides")
    lo = min(d.support[0] for d in dists)
    hi = max(d.support[1] for d in dists)
    pts: set[float] = set()
    for d in dists:
        for seg in d.segments:
            pts.add(seg.lo)
            pts.add(seg.hi)
            if isinstance(seg.shape, PowerLaw):
                pts.add(seg.shape.anchor)
    return tuple(sorted(p for p in pts if lo < p < hi))


@functools.lru_cache(maxsize=64)
def _reference(source, target, hierarchy, which: str, level: int):
    """The level's exact risk minimizer on side ``which``, with its P and Q risks.

    The level (the finite class, or every knot combination within its flip
    budgets) is enumerated once and scored by one kernel call per side; the
    cache keys hash by identity.  Ties within ``RISK_ATOL`` go, for the
    source, to the tied hypothesis with the largest target risk (worst-case
    representative), then to the smallest under ``hypothesis_sort_key``; for
    the target the sort key decides directly.
    """
    if isinstance(hierarchy, FiniteClassHierarchy):
        candidates = list(hierarchy.levels[level])
    else:
        candidates = BoundaryGrid.of_budgets(
            hierarchy.flip_budgets(level), _interior_knots(source, target))
    if not candidates:
        raise ValueError(f"level {level} has no hypotheses")
    risks_p, risks_q = source.expected_risks(candidates), target.expected_risks(candidates)
    own = _side(which, risks_p, risks_q)
    tied = np.flatnonzero(own <= own.min() + RISK_ATOL)
    if which == "P" and len(tied) > 1:
        tied = tied[risks_q[tied] >= risks_q[tied].max() - RISK_ATOL]
    # Only the tied rows become hypothesis objects.
    i = min(tied, key=lambda i: hypothesis_sort_key(candidates[i]))
    return candidates[i], float(risks_p[i]), float(risks_q[i])


def level_reference(instance: TransferInstance, which: str, level: int):
    """The level's one exact reference ``(h, risk_p, risk_q)``: its risk
    minimizer on side ``which``, under the tie rule of :func:`_reference`,
    with the minimizer's source and target risks."""
    return _reference(instance.source, instance.target, instance.hierarchy, which, level)


def level_risk_minimizer(instance: TransferInstance, which: str, level: int):
    """The minimizer of :func:`level_reference`."""
    return level_reference(instance, which, level)[0]


def global_optimal_risk(instance: TransferInstance, which: str) -> float:
    """Best risk over the full hierarchy; stored exactly by every factory."""
    return _side(which, instance.optimal_risk_source, instance.optimal_risk_target)


def excess_risks(instance: TransferInstance, which: str, hs) -> np.ndarray:
    """Risk of each hypothesis in ``hs`` minus the best achievable in the full
    hierarchy, from one kernel call."""
    dist = _side(which, instance.source, instance.target)
    return dist.expected_risks(hs) - global_optimal_risk(instance, which)


def excess_risk(instance: TransferInstance, which: str, h) -> float:
    """:func:`excess_risks` of the one hypothesis ``h``."""
    return excess_risks(instance, which, [h]).item()


def _approach_offsets(anchors, decades: int = _APPROACH_DECADES) -> np.ndarray:
    """``a -+ 10**-k`` for every anchor a and k = 1..decades."""
    steps = np.array([10.0 ** -k for k in range(1, decades + 1)])
    a = np.asarray(anchors, dtype=float)[:, None]
    return np.concatenate([a - steps, a + steps], axis=None)


def default_ratio_grid(instance: TransferInstance, level: int):
    """Hypothesis grid for constant estimation at a level.

    Finite classes are enumerated outright.  For boundary classes the grid
    combines, within the level's flip budget: the knot-combination candidates,
    a uniform sweep of ``10**4`` positions through each boundary slot of the
    level minimizer, single-boundary sweeps for every admissible leading sign,
    a ``100 x 100`` joint sweep when two boundaries are admissible at levels
    <= 2, and geometric approaches ``knot +- 10**-k`` (k = 1..12) so that
    ratios diverging only in a shrinking neighborhood of a breakpoint are
    still seen.  A boundary-class grid is a :class:`BoundaryGrid` holding
    each classifier once, at its first place in that order; witnesses are
    first maxima, so the order is part of the result.
    """
    hierarchy = instance.hierarchy
    if isinstance(hierarchy, FiniteClassHierarchy):
        return list(hierarchy.levels[level])

    knots = _interior_knots(instance.source, instance.target)
    lo = min(instance.source.support[0], instance.target.support[0])
    hi = max(instance.source.support[1], instance.target.support[1])
    sweep = np.linspace(lo, hi, _SWEEP_POINTS + 2)[1:-1]
    near = _approach_offsets(knots)
    positions = np.unique(np.concatenate([sweep, knots, near[(lo < near) & (near < hi)]]))
    budgets = sorted(hierarchy.flip_budgets(level).items(), reverse=True)

    candidates = BoundaryGrid.of_budgets(hierarchy.flip_budgets(level), knots)
    parts = [(candidates.bounds, candidates.signs)]
    ref = level_risk_minimizer(instance, "P", level)
    ref_bounds = np.asarray(ref.boundaries)
    for j in range(len(ref_bounds)):
        rest = np.delete(ref_bounds, j)
        moved = positions[~np.isin(positions, rest)]
        rows = np.column_stack([np.broadcast_to(rest, (len(moved), len(rest))), moved])
        parts.append((np.sort(rows, axis=1), ref.first_sign))

    for sign, budget in budgets:
        parts.append((np.empty((1, 0)), sign))
        if budget >= 1:
            parts.append((positions[:, None], sign))

    if level <= 2 and max(b for _, b in budgets) >= 2:
        joint = np.linspace(lo, hi, _JOINT_POINTS + 2)[1:-1]
        pairs = joint[np.column_stack(np.triu_indices(_JOINT_POINTS, k=1))]
        parts += [(pairs, sign) for sign, budget in budgets if budget >= 2]
    return BoundaryGrid.stack(parts).unique()


def extended_gap_witness_grid(instance: TransferInstance, level: int):
    """The certified sweep family of the one-sided power-law instances.

    The unit leading constant holds exactly for single-boundary moves off the
    level minimizer into the power-law interval matched to the level: at
    level 1 thresholds through the right interval, at level 2 the reversed
    threshold through the left one.  Hypotheses whose disagreement crosses
    the flat middle region (constants included) genuinely exceed that
    constant, which is what the default grid reports.
    """
    if instance.family != "extended_gap":
        raise ValueError("witness grid is specific to the extended_gap family")
    _, left_out, left_in, right_in, right_out, _ = GAP_EDGES
    if level == 1:
        lo, hi, sign = right_in, right_out, -1
    elif level == 2:
        lo, hi, sign = left_out, left_in, 1
    else:
        raise ValueError("this family has levels 1 and 2 only")
    # Finite-difference noise in the exact risks caps useful offsets near 1e-6.
    near = _approach_offsets((lo, hi), decades=6)
    positions = np.unique(np.concatenate(
        [np.linspace(lo, hi, _SWEEP_POINTS), near[(lo <= near) & (near <= hi)]]))
    return BoundaryGrid.stack([(positions[:, None], sign)])


@dataclass(frozen=True)
class TransferExponentEstimate:
    """Smallest candidate exponent whose fitted constant stays bounded."""

    level: int
    rho_hat: float
    c_hat: float
    witness: object | None
    grid_spec: str
    candidate_consts: tuple[tuple[float, float], ...]


def _excess_arrays(instance, level, grid):
    _, ref_p, ref_q = level_reference(instance, "P", level)
    e_p = instance.source.expected_risks(grid) - ref_p
    e_q = instance.target.expected_risks(grid) - ref_q
    np.maximum(e_p, 0.0, out=e_p)
    return e_p, e_q


def _ratio_sup(e_p: np.ndarray, e_q: np.ndarray, rho: float) -> tuple[float, int]:
    """Sup of e_q / e_p**(1/rho) and its argmax index (-1 when empty).

    Pairs with both excesses below RISK_ATOL carry no information and are
    skipped; nonpositive target excess contributes zero; zero source excess
    with positive target excess forces an infinite constant.
    """
    skip = (e_p < RISK_ATOL) & (e_q < RISK_ATOL)
    inf = (~skip) & (e_p <= 0.0) & (e_q >= RISK_ATOL)
    live = (~skip) & (~inf) & (e_q > 0.0)
    ratios = np.zeros(len(e_p))
    ratios[live] = e_q[live] / e_p[live] ** (1.0 / rho)
    ratios[inf] = np.inf
    considered = ~skip
    if not considered.any():
        return 0.0, -1
    idx = int(np.argmax(np.where(considered, ratios, -np.inf)))
    return float(ratios[idx]), idx


def estimate_transfer_exponent(
    instance: TransferInstance,
    level: int,
    candidate_rhos=None,
    grid=None,
    stable_cap: float = DEFAULT_STABLE_CAP,
) -> TransferExponentEstimate:
    """Fit the source-to-target exponent at a level by grid supremum.

    For each candidate exponent (ascending) the leading constant is the
    supremum over the grid of target excess over source excess to the inverse
    exponent, both taken relative to the level's source minimizer.  The
    estimate is the smallest candidate whose constant is at most
    ``stable_cap``; when none qualifies the estimate is infinite and the
    per-candidate constants are still reported.
    """
    if candidate_rhos is None:
        candidate_rhos = (instance.level_truth(level).rho,)
    cand = sorted(float(r) for r in candidate_rhos)
    if not cand:
        raise ValueError("need at least one candidate exponent")
    if any(r <= 0.0 for r in cand):
        raise ValueError("candidate exponents must be positive")
    if grid is None:
        grid = default_ratio_grid(instance, level)
        spec = f"default(level={level}, size={len(grid)})"
    else:
        grid = grid if isinstance(grid, BoundaryGrid) else list(grid)
        spec = f"custom(size={len(grid)})"
    if not grid:
        raise ValueError("empty hypothesis grid")
    e_p, e_q = _excess_arrays(instance, level, grid)
    consts = []
    chosen = None
    for rho in cand:
        sup, idx = _ratio_sup(e_p, e_q, rho)
        consts.append((rho, sup))
        if chosen is None and sup <= stable_cap:
            chosen = (rho, sup, grid[idx] if idx >= 0 else None)
    if chosen is None:
        return TransferExponentEstimate(
            level, math.inf, math.inf, None, spec, tuple(consts)
        )
    rho, sup, witness = chosen
    return TransferExponentEstimate(level, rho, sup, witness, spec, tuple(consts))


@dataclass(frozen=True)
class BccCheck:
    """Bound of disagreement mass by a power of excess risk at one level.

    ``degenerate_pairs`` counts grid hypotheses tied with the minimizer in
    risk yet differing from it on positive mass; any such pair breaks the
    bound outright for positive exponents, so they are counted separately
    rather than folded into the supremum.
    """

    level: int
    which: str
    beta: float
    sup_ratio: float
    confirmed: bool
    degenerate_pairs: int
    witness: object | None = None


def verify_bcc(
    instance: TransferInstance,
    which: str,
    level: int,
    beta: float | None = None,
    grid=None,
) -> BccCheck:
    """Check disagreement <= const * excess**beta against the level minimizer."""
    dist = _side(which, instance.source, instance.target)
    if beta is None:
        truth = instance.level_truth(level)
        beta = _side(which, truth.beta_p, truth.beta_q)
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if grid is None:
        grid = default_ratio_grid(instance, level)
    elif not isinstance(grid, BoundaryGrid):
        grid = list(grid)
    ref, risk_p, risk_q = level_reference(instance, which, level)
    dis = dist.disagreement_masses(grid, ref)
    exc = np.maximum(dist.expected_risks(grid) - _side(which, risk_p, risk_q), 0.0)
    live = dis >= RISK_ATOL
    # Zero excess with positive disagreement defeats any constant unless the
    # exponent is zero, where disagreement alone is bounded.
    degen = live & (exc < RISK_ATOL) & (beta > 0.0)
    live &= ~degen
    ratios = np.zeros(len(grid))
    if beta == 0.0:
        ratios[live] = dis[live]
    else:
        # Python's float power, not NumPy's, so each ratio keeps the bits of
        # the scalar definition dis / exc**beta.
        ratios[live] = dis[live] / np.array([e**beta for e in exc[live].tolist()])
    sup = float(ratios.max(initial=0.0))
    return BccCheck(
        level=level,
        which=which,
        beta=beta,
        sup_ratio=sup,
        confirmed=math.isfinite(sup) and not degen.any(),
        degenerate_pairs=int(degen.sum()),
        # argmax takes the first of tied maxima, as a strict running sup does.
        witness=grid[int(np.argmax(ratios))] if sup > 0.0 else None,
    )


@dataclass(frozen=True)
class RateProfile:
    """Per-level rate bounds for one instance at fixed sample sizes.

    ``rates_conf`` carries the confidence-weighted bound (log factors and
    per-level confidence shares included), ``rates_plain`` the plain proxy
    without either; each is the min of a source-transfer arm and a
    target-only arm.  Best levels break ties toward the smallest index.
    """

    rates_conf: dict[int, float]
    rates_plain: dict[int, float]
    i_best_conf: int
    i_best_plain: int
    i_star_source: int
    i_star_target: int
    n_source: int
    n_target: int
    delta: float
    beta_target: float = field(default=math.nan)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.rates_conf))


def _argmin_level(rates: dict[int, float]) -> int:
    best = None
    for i in sorted(rates):
        if best is None or rates[i] < rates[best]:
            best = i
    return best


def rate_profile(
    instance: TransferInstance,
    n_source: int,
    n_target: int,
    delta: float = 0.05,
) -> RateProfile:
    """Evaluate both rate functionals at every level with known structure.

    Levels run from the smallest one with stored structure up to the top of
    the hierarchy; a gap in that range is an error.  The target-only arm uses
    the target's own optimal level and the smallest target noise exponent at
    or above it.  A zero sample size sends the corresponding arm to infinity.
    """
    if n_source < 0 or n_target < 0:
        raise ValueError("sample sizes must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    hierarchy = instance.hierarchy
    if not instance.truth:
        raise ValueError("instance carries no per-level structure")
    levels = range(min(instance.truth), hierarchy.max_level + 1)
    missing = [i for i in levels if i not in instance.truth]
    if missing:
        raise ValueError(f"missing per-level structure for levels {missing}")

    i_q = instance.i_star_target
    betas_q = [instance.truth[i].beta_q for i in levels if i >= i_q]
    if not betas_q:
        raise ValueError("no per-level structure at or above the target optimal level")
    beta_q = min(betas_q)
    d_q = hierarchy.vc_dim(i_q)
    delta_q = level_confidence(delta, i_q, hierarchy.min_level)

    if n_target >= 1:
        target_conf = (d_q * math.log(n_target / delta_q) / n_target) ** (
            1.0 / (2.0 - beta_q)
        )
        target_plain = (d_q / n_target) ** (1.0 / (2.0 - beta_q))
    else:
        target_conf = math.inf
        target_plain = math.inf

    rates_conf: dict[int, float] = {}
    rates_plain: dict[int, float] = {}
    for i in levels:
        t = instance.truth[i]
        d_i = hierarchy.vc_dim(i)
        delta_i = level_confidence(delta, i, hierarchy.min_level)
        expo = 1.0 / ((2.0 - t.beta_p) * t.rho)
        if n_source >= 1:
            src_conf = t.excess_q_of_source_opt + t.rho_const * (
                d_i * math.log(n_source / delta_i) / n_source
            ) ** expo
            src_plain = t.rho_const * (d_i / n_source) ** expo + t.excess_q_of_source_opt
        else:
            src_conf = math.inf
            src_plain = math.inf
        rates_conf[i] = min(src_conf, target_conf)
        rates_plain[i] = min(src_plain, target_plain)

    return RateProfile(
        rates_conf=rates_conf,
        rates_plain=rates_plain,
        i_best_conf=_argmin_level(rates_conf),
        i_best_plain=_argmin_level(rates_plain),
        i_star_source=instance.i_star_source,
        i_star_target=instance.i_star_target,
        n_source=n_source,
        n_target=n_target,
        delta=delta,
        beta_target=beta_q,
    )

