"""Synthetic labeled distributions on the line with exact risk functionals.

Two representations cover everything the experiments need: piecewise
distributions whose marginal is a mixture of uniform or one-sided power-law
segments, and discrete distributions over a finite support.  Both expose
exact expected risk, Bayes risk, and disagreement mass, plus seeded sampling
with a fixed two-uniforms-per-draw stream layout so that samples are
reproducible across label-law changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classifiers import BoundaryHypothesis

_EDGE_TOL = 1e-12

# Hypotheses per block of the grid kernels; bounds their (block x pieces)
# temporaries whatever the grid size.
_GRID_BLOCK = 2048


@dataclass(frozen=True)
class Uniform:
    kind: str = field(default="uniform", init=False)


@dataclass(frozen=True)
class PowerLaw:
    """Density proportional to |x - anchor|**(exponent - 1) on the segment.

    The anchor may sit anywhere, including strictly inside the segment;
    exponent 1 recovers the uniform shape.
    """

    anchor: float
    exponent: float
    kind: str = field(default="power", init=False)

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")


def _power_antideriv(t: np.ndarray, anchor: float, p: float) -> np.ndarray:
    d = np.asarray(t, dtype=float) - anchor
    return np.sign(d) * np.abs(d) ** p / p


@dataclass(frozen=True)
class Deterministic:
    label: int
    kind: str = field(default="det", init=False)

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError("label must be -1 or +1")


@dataclass(frozen=True)
class Bernoulli:
    """P[Y = +1 | X in segment] = q."""

    q: float
    kind: str = field(default="bern", init=False)

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")


def _label_error(sign: int, law) -> float:
    """P[Y != sign] under the segment's label law."""
    if isinstance(law, Deterministic):
        return 0.0 if sign == law.label else 1.0
    return 1.0 - law.q if sign == 1 else law.q


def _label_errors(signs: np.ndarray, law) -> np.ndarray:
    """:func:`_label_error` over an array of signs."""
    if isinstance(law, Deterministic):
        return np.where(signs == law.label, 0.0, 1.0)
    return np.where(signs == 1, 1.0 - law.q, law.q)


def _piece_major_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Row sums of per-segment (rows x pieces) terms, piece by piece and then
    segment by segment: the order in which the scalar loops add them."""
    total = np.zeros(terms[0].shape[0])
    for j in range(terms[0].shape[1]):
        for term in terms:
            total += term[:, j]
    return total


def _label_bayes(law) -> float:
    if isinstance(law, Deterministic):
        return 0.0
    return min(law.q, 1.0 - law.q)


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    mass: float
    shape: Uniform | PowerLaw = Uniform()
    label_law: Deterministic | Bernoulli = Deterministic(1)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")

    def _norm(self) -> float:
        if isinstance(self.shape, Uniform):
            return self.hi - self.lo
        g = _power_antideriv(np.asarray([self.lo, self.hi]), self.shape.anchor, self.shape.exponent)
        return float(g[1] - g[0])

    def sub_mass(self, x1: float, x2: float) -> float:
        """Probability mass of [x1, x2] intersected with the segment."""
        a = max(self.lo, min(x1, x2))
        b = min(self.hi, max(x1, x2))
        if b <= a:
            return 0.0
        if isinstance(self.shape, Uniform):
            frac = (b - a) / (self.hi - self.lo)
        else:
            g = _power_antideriv(np.asarray([a, b]), self.shape.anchor, self.shape.exponent)
            frac = float(g[1] - g[0]) / self._norm()
        return self.mass * frac

    def sub_masses(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`sub_mass` for ``x1 <= x2``, with the same arithmetic."""
        a = np.maximum(self.lo, x1)
        b = np.minimum(self.hi, x2)
        if isinstance(self.shape, Uniform):
            frac = (b - a) / (self.hi - self.lo)
        else:
            v, p = self.shape.anchor, self.shape.exponent
            frac = (_power_antideriv(b, v, p) - _power_antideriv(a, v, p)) / self._norm()
        return np.where(b > a, self.mass * frac, 0.0)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of the normalized segment at u in [0, 1]."""
        u = np.asarray(u, dtype=float)
        if isinstance(self.shape, Uniform):
            return self.lo + u * (self.hi - self.lo)
        v, p = self.shape.anchor, self.shape.exponent
        g_lo = float(_power_antideriv(np.asarray([self.lo]), v, p)[0])
        y = g_lo + u * self._norm()
        x = v + np.sign(y) * (p * np.abs(y)) ** (1.0 / p)
        return np.clip(x, self.lo, self.hi)


@dataclass(frozen=True)
class LabeledSample:
    """Point sample with labels, stored sorted by (x, y) for canonical order.

    Sorted ``xs`` is an invariant that correctness relies on: a hypothesis
    is read on the sample only through its ``runs(xs)``, and every mistake
    and disagreement count is made from those runs.
    """

    xs: np.ndarray
    ys: np.ndarray
    seed: int | None = None
    source_tag: str = ""

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=np.int8)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        order = np.lexsort((ys, xs))
        object.__setattr__(self, "xs", xs[order])
        object.__setattr__(self, "ys", ys[order])

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    @cached_property
    def _positives_before(self) -> np.ndarray:
        """Entry i counts the +1 labels among the first i points."""
        return np.concatenate(([0], np.cumsum(self.ys == 1)))

    def mistakes(self, runs) -> int:
        """Points mislabeled by the hypothesis whose ``runs(xs)`` is ``runs``.

        Each run's mistakes are its points of the other label, read off the
        prefix count of +1 labels, so this costs O(k) for k cuts.
        """
        cuts, label = runs
        positives = self._positives_before
        total, start = 0, 0
        for end in (*cuts, len(self)):
            plus = positives.item(end) - positives.item(start)
            total += plus if label == -1 else end - start - plus
            start, label = end, -label
        return total


class PiecewiseDistribution:
    """Mixture of disjoint segments; total mass must be 1 up to 1e-9."""

    def __init__(self, segments):
        segs = sorted(segments, key=lambda s: (s.lo, s.hi))
        for a, b in zip(segs, segs[1:]):
            if b.lo < a.hi - _EDGE_TOL:
                raise ValueError(f"segments overlap: {a.lo}..{a.hi} and {b.lo}..{b.hi}")
        total = sum(s.mass for s in segs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"segment masses sum to {total}, expected 1")
        self.segments: tuple[Segment, ...] = tuple(segs)
        self._cum = np.concatenate([[0.0], np.cumsum([s.mass for s in segs])])
        self._cum[-1] = 1.0

    @property
    def support(self) -> tuple[float, float]:
        return self.segments[0].lo, self.segments[-1].hi

    def sample(self, n: int, rng: np.random.Generator, seed: int | None = None,
               source_tag: str = "") -> LabeledSample:
        u = rng.random((n, 2))
        if n == 0:
            return LabeledSample(np.empty(0), np.empty(0, dtype=np.int8), seed, source_tag)
        idx = np.searchsorted(self._cum, u[:, 0], side="right") - 1
        idx = np.clip(idx, 0, len(self.segments) - 1)
        xs = np.empty(n)
        ys = np.empty(n, dtype=np.int8)
        for i, seg in enumerate(self.segments):
            pick = idx == i
            if not np.any(pick):
                continue
            local = (u[pick, 0] - self._cum[i]) / max(seg.mass, _EDGE_TOL)
            xs[pick] = seg.quantile(np.clip(local, 0.0, 1.0))
            if isinstance(seg.label_law, Deterministic):
                ys[pick] = seg.label_law.label
            else:
                ys[pick] = np.where(u[pick, 1] < seg.label_law.q, 1, -1)
        return LabeledSample(xs, ys, seed, source_tag)

    def _pieces_with_sign(self, h: BoundaryHypothesis):
        """Yield (x1, x2, sign) covering the support, split at h's boundaries."""
        lo, hi = self.support
        cuts = [lo] + [b for b in h.boundaries if lo < b < hi] + [hi]
        for x1, x2 in zip(cuts, cuts[1:]):
            yield x1, x2, h.sign_on_interval_right_of(x1)

    def expected_risk(self, h: BoundaryHypothesis) -> float:
        total = 0.0
        for x1, x2, sign in self._pieces_with_sign(h):
            for seg in self.segments:
                m = seg.sub_mass(x1, x2)
                if m > 0.0:
                    total += m * _label_error(sign, seg.label_law)
        return total

    def bayes_risk(self) -> float:
        return sum(s.mass * _label_bayes(s.label_law) for s in self.segments)

    def disagreement_mass(self, h1: BoundaryHypothesis, h2: BoundaryHypothesis) -> float:
        lo, hi = self.support
        cuts = sorted({lo, hi} | {b for b in h1.boundaries if lo < b < hi}
                      | {b for b in h2.boundaries if lo < b < hi})
        total = 0.0
        for x1, x2 in zip(cuts, cuts[1:]):
            if h1.sign_on_interval_right_of(x1) != h2.sign_on_interval_right_of(x1):
                for seg in self.segments:
                    total += seg.sub_mass(x1, x2)
        return total

    def _grid_blocks(self, hs):
        """Yield (rows, boundaries, first signs) of ``hs`` grouped by boundary
        count, in blocks of at most ``_GRID_BLOCK`` rows."""
        by_count: dict[int, list[int]] = {}
        for i, h in enumerate(hs):
            if not isinstance(h, BoundaryHypothesis):
                raise ValueError(
                    f"piecewise grids hold BoundaryHypothesis, got {type(h).__name__}")
            by_count.setdefault(len(h.boundaries), []).append(i)
        for k, rows in sorted(by_count.items()):
            for start in range(0, len(rows), _GRID_BLOCK):
                block = rows[start:start + _GRID_BLOCK]
                bounds = np.array([hs[i].boundaries for i in block], dtype=float)
                signs = np.array([hs[i].first_sign for i in block])
                yield block, bounds.reshape(len(block), k), signs

    def _clipped_cuts(self, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right ends of the pieces that sorted boundary rows cut out
        of the support.  A boundary outside it is clipped onto an end and
        leaves a zero-length piece, whose ``sub_mass`` is exactly 0.0."""
        lo, hi = self.support
        n = bounds.shape[0]
        cuts = np.concatenate(
            [np.full((n, 1), lo), np.clip(bounds, lo, hi), np.full((n, 1), hi)], axis=1)
        return cuts[:, :-1], cuts[:, 1:]

    def expected_risks(self, hs) -> np.ndarray:
        """:meth:`expected_risk` of every hypothesis in ``hs``, as one array.

        Rows with the same boundary count share one piece layout, so the
        scalar method's anchor-local ``sub_mass`` arithmetic runs element-wise
        and sums piece by piece, then segment by segment, in the scalar order:
        the result is bit-equal to the scalar loop, which stays its oracle.
        """
        hs = list(hs)
        out = np.empty(len(hs))
        for rows, bounds, signs in self._grid_blocks(hs):
            x1, x2 = self._clipped_cuts(bounds)
            # Piece j lies right of exactly j boundaries when it has positive length.
            piece_signs = signs[:, None] * np.where(np.arange(x1.shape[1]) % 2 == 0, 1, -1)
            terms = [seg.sub_masses(x1, x2) * _label_errors(piece_signs, seg.label_law)
                     for seg in self.segments]
            out[rows] = _piece_major_sum(terms)
        return out

    def disagreement_masses(self, hs, ref: BoundaryHypothesis) -> np.ndarray:
        """:meth:`disagreement_mass` of every hypothesis in ``hs`` against
        ``ref``, as one array, bit-equal to the scalar loop."""
        hs = list(hs)
        if not isinstance(ref, BoundaryHypothesis):
            raise ValueError(f"piecewise grids hold BoundaryHypothesis, got {type(ref).__name__}")
        ref_bounds = np.asarray(ref.boundaries, dtype=float)
        out = np.empty(len(hs))
        for rows, bounds, signs in self._grid_blocks(hs):
            both = np.concatenate(
                [bounds, np.broadcast_to(ref_bounds, (len(rows), len(ref_bounds)))], axis=1)
            x1, x2 = self._clipped_cuts(np.sort(both, axis=1))
            # Each side's label right of x1 flips once per boundary <= x1.
            flips = ((bounds[:, None, :] <= x1[:, :, None]).sum(axis=2)
                     + np.searchsorted(ref_bounds, x1, side="right"))
            differ = (flips % 2 == 1) == (signs == ref.first_sign)[:, None]
            terms = [np.where(differ, seg.sub_masses(x1, x2), 0.0) for seg in self.segments]
            out[rows] = _piece_major_sum(terms)
        return out


class DiscreteDistribution:
    """Distribution over a finite support; pos_probs[i] = P[Y=+1 | X=points[i]]."""

    def __init__(self, points, masses, pos_probs):
        pts = tuple(float(x) for x in points)
        ms = tuple(float(m) for m in masses)
        qs = tuple(float(q) for q in pos_probs)
        if not len(pts) == len(ms) == len(qs):
            raise ValueError("points, masses, pos_probs must have equal length")
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be distinct")
        if any(m < 0 for m in ms):
            raise ValueError("masses must be nonnegative")
        if abs(sum(ms) - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {sum(ms)}, expected 1")
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValueError("pos_probs must lie in [0, 1]")
        order = np.argsort(pts)
        self.points = tuple(pts[i] for i in order)
        self.masses = tuple(ms[i] for i in order)
        self.pos_probs = tuple(qs[i] for i in order)
        self._cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        self._cum[-1] = 1.0

    def sample(self, n: int, rng: np.random.Generator, seed: int | None = None,
               source_tag: str = "") -> LabeledSample:
        u = rng.random((n, 2))
        if n == 0:
            return LabeledSample(np.empty(0), np.empty(0, dtype=np.int8), seed, source_tag)
        idx = np.searchsorted(self._cum, u[:, 0], side="right") - 1
        idx = np.clip(idx, 0, len(self.points) - 1)
        xs = np.asarray(self.points)[idx]
        qs = np.asarray(self.pos_probs)[idx]
        ys = np.where(u[:, 1] < qs, 1, -1)
        return LabeledSample(xs, ys, seed, source_tag)

    def _point_labels(self, h) -> np.ndarray:
        return h.evaluate_many(np.asarray(self.points))

    def expected_risk(self, h) -> float:
        signs = self._point_labels(h)
        total = 0.0
        for m, q, s in zip(self.masses, self.pos_probs, signs):
            total += m * ((1.0 - q) if s == 1 else q)
        return total

    def bayes_risk(self) -> float:
        return sum(m * min(q, 1.0 - q) for m, q in zip(self.masses, self.pos_probs))

    def disagreement_mass(self, h1, h2) -> float:
        s1 = self._point_labels(h1)
        s2 = self._point_labels(h2)
        return float(sum(m for m, a, b in zip(self.masses, s1, s2) if a != b))

    def expected_risks(self, hs) -> np.ndarray:
        """:meth:`expected_risk` of every hypothesis in ``hs``, as one array."""
        return np.array([self.expected_risk(h) for h in hs], dtype=float)

    def disagreement_masses(self, hs, ref) -> np.ndarray:
        """:meth:`disagreement_mass` of every hypothesis in ``hs`` against ``ref``."""
        return np.array([self.disagreement_mass(h, ref) for h in hs], dtype=float)
