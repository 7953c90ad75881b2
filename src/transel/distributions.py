"""Synthetic labeled distributions on the line with exact risk functionals.

Two representations cover everything the experiments need: piecewise
distributions whose marginal is a mixture of uniform or one-sided power-law
segments, and discrete distributions over a finite support.  Both expose
exact expected risk and disagreement mass, plus seeded sampling
with a fixed two-uniforms-per-draw stream layout.  A piecewise segment carries
one label, so its sampler reads only the first uniform of a draw; it still
draws the second, which keeps every sampled byte: the stream changes only
together with a version of it in the outputs.  The piecewise sampler draws
its points already ascending, and a sample sorts its points only when they
are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classifiers import BoundaryGrid, BoundaryHypothesis

_EDGE_TOL = 1e-12

# Hypotheses per block of the grid kernels; bounds their (block x pieces)
# temporaries whatever the grid size.
_GRID_BLOCK = 2048


@dataclass(frozen=True)
class Uniform:
    """Constant density on the segment."""


@dataclass(frozen=True)
class PowerLaw:
    """Density proportional to |x - anchor|**(exponent - 1) on the segment.

    The anchor may sit anywhere, including strictly inside the segment;
    exponent 1 recovers the uniform shape.
    """

    anchor: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")


def _power_antideriv(t: np.ndarray, anchor: float, p: float) -> np.ndarray:
    d = np.asarray(t, dtype=float) - anchor
    return np.sign(d) * np.abs(d) ** p / p


def _piece_major_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Row sums of per-segment (rows x pieces) terms, from 0.0 piece by piece
    and then segment by segment: the order of a scalar loop over pieces, so
    every sum keeps that loop's bits.  A discrete distribution passes one
    term whose pieces are its atoms."""
    total = np.zeros(terms[0].shape[0])
    for j in range(terms[0].shape[1]):
        for term in terms:
            total += term[:, j]
    return total


def _grid_blocks(grid: BoundaryGrid):
    """Yield (rows, boundaries, first signs) of ``grid`` grouped by boundary
    count, in blocks of at most ``_GRID_BLOCK`` rows."""
    for k in np.unique(grid.counts).tolist():
        rows = np.flatnonzero(grid.counts == k)
        for start in range(0, len(rows), _GRID_BLOCK):
            block = rows[start:start + _GRID_BLOCK]
            yield block, grid.bounds[block, :k], grid.signs[block]


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    mass: float
    shape: Uniform | PowerLaw = Uniform()
    label: int = 1

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if self.label not in (-1, 1):
            raise ValueError("label must be -1 or +1")

    def _norm(self) -> float:
        if isinstance(self.shape, Uniform):
            return self.hi - self.lo
        g = _power_antideriv(np.asarray([self.lo, self.hi]), self.shape.anchor, self.shape.exponent)
        return float(g[1] - g[0])

    def sub_masses(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Probability mass of [x1, x2] intersected with the segment,
        element-wise for ``x1 <= x2``."""
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


def count_dtype(n: int):
    """Integer type for counts of at most ``n`` points: int32 while it fits."""
    return np.int32 if n < np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """Labeled sample as groups: its distinct ``xs``, ascending, and the
    (+, −) counts ``pos``/``neg`` of the points at each.

    Every learner reads a sample only through mistake and disagreement
    counts, and a point's order among points with the same x changes neither,
    so the groups are all it keeps; ``len`` is still the number of points.  A
    hypothesis is read on the sample only through its ``runs(xs)``, whose
    cuts are group indices, and both counts are made from those runs.
    Samples compare and hash by identity.
    """

    xs: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    @classmethod
    def of_points(cls, xs, ys) -> LabeledSample:
        """The groups of points ``xs`` with labels ``ys`` in {−1, +1}; the
        points are sorted by x only when they are not already ascending."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        if not np.isfinite(xs).all():
            raise ValueError("sample xs must be finite")
        plus = ys == 1
        if not (plus | (ys == -1)).all():
            raise ValueError("sample labels must be -1 or +1")
        n = xs.size
        dtype = count_dtype(n)
        if not (xs[1:] >= xs[:-1]).all():
            order = np.argsort(xs)  # ties are counted, so their order does not matter
            xs, plus = xs[order], plus[order]
            del order  # 8 bytes a point: free it before the groups are built
        first = np.empty(n, dtype=bool)
        first[:1] = True
        np.not_equal(xs[1:], xs[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return cls(xs[starts], np.add.reduceat(plus, starts, dtype=dtype),
                   np.add.reduceat(~plus, starts, dtype=dtype))

    def __len__(self) -> int:
        return self._size

    @cached_property
    def _size(self) -> int:
        return int(self.pos.sum()) + int(self.neg.sum())

    @cached_property
    def _before(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry g of each counts the −1, then the +1, labels in the groups
        before g: the mistakes of a +1, then a −1, label on them."""
        before = np.zeros((2, len(self.xs) + 1), dtype=count_dtype(len(self)))
        np.cumsum(self.neg, out=before[0, 1:])
        np.cumsum(self.pos, out=before[1, 1:])
        return before[0], before[1]

    def mistakes(self, runs) -> int:
        """Points mislabeled by the hypothesis whose ``runs(xs)`` is ``runs``.

        Each run's mistakes are its points of the other label, read off the
        prefix counts, so this costs O(k) for k cuts.
        """
        cuts, label = runs
        neg, pos = self._before
        total, start = 0, 0
        for end in (*cuts, len(self.xs)):
            wrong = neg if label == 1 else pos
            total += wrong.item(end) - wrong.item(start)
            start, label = end, -label
        return total

    def disagreements(self, runs_a, runs_b) -> int:
        """Points on which the hypotheses with ``runs_a`` and ``runs_b`` differ.

        Every cut of either side toggles agreement, so the merged cuts split
        the groups into runs that alternate between agreeing and disagreeing.
        Costs O((k + k') log(k + k')) for k and k' cuts.
        """
        (cuts_a, label_a), (cuts_b, label_b) = runs_a, runs_b
        neg, pos = self._before
        total, start, differ = 0, 0, label_a != label_b
        for end in (*sorted(cuts_a + cuts_b), len(self.xs)):
            if differ:
                total += neg.item(end) - neg.item(start) + pos.item(end) - pos.item(start)
            start, differ = end, not differ
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

    def sample(self, n: int, rng: np.random.Generator) -> LabeledSample:
        """``n`` points drawn by inverse CDF, returned as their groups.

        Draw j reads column 0 of ``rng.random((n, 2))``: the segment i with
        ``_cum[i] <= u < _cum[i + 1]`` (a zero-mass segment holds no u), and
        x at that segment's quantile of ``(u - _cum[i]) / mass``.  The
        uniforms are sorted first, so each segment's draws are one slice of
        them, cut by one ``searchsorted``, and the slice is overwritten in
        place by its own quantiles: the points come out in ascending order
        and ``of_points`` skips its sort.

        Each x comes from the same float operations on the same uniform as
        drawing the points in stream order, so the multiset of (x, y) pairs,
        and with it every group, is the same.  Ascending order is checked,
        not assumed: segments may overlap by up to ``_EDGE_TOL`` and ``pow``
        need not be monotone to the last ulp, and then ``of_points`` sorts.
        """
        u = np.sort(rng.random((n, 2))[:, 0])
        cuts = [0, *np.searchsorted(u, self._cum[1:-1], side="left").tolist(), n]
        ys = np.empty(n, dtype=np.int8)
        for i, seg in enumerate(self.segments):
            a, b = cuts[i], cuts[i + 1]
            if a == b:
                continue
            u[a:b] = seg.quantile(
                np.clip((u[a:b] - self._cum[i]) / max(seg.mass, _EDGE_TOL), 0.0, 1.0))
            ys[a:b] = seg.label
        return LabeledSample.of_points(u, ys)

    def expected_risk(self, h: BoundaryHypothesis) -> float:
        """Exact risk of ``h``: one row of :meth:`expected_risks`."""
        return self.expected_risks([h]).item()

    def disagreement_mass(self, h1: BoundaryHypothesis, h2: BoundaryHypothesis) -> float:
        """Mass on which ``h1`` and ``h2`` differ: one row of :meth:`disagreement_masses`."""
        return self.disagreement_masses([h1], h2).item()

    def _clipped_cuts(self, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right ends of the pieces that sorted boundary rows cut out
        of the support.  A boundary outside it is clipped onto an end and
        leaves a zero-length piece, whose ``sub_masses`` entry is exactly 0.0."""
        lo, hi = self.support
        n = bounds.shape[0]
        cuts = np.concatenate(
            [np.full((n, 1), lo), np.clip(bounds, lo, hi), np.full((n, 1), hi)], axis=1)
        return cuts[:, :-1], cuts[:, 1:]

    def expected_risks(self, hs) -> np.ndarray:
        """Exact risk of every hypothesis in ``hs``, as one array.

        Rows with the same boundary count share one piece layout, so each
        segment's ``sub_masses`` runs on all of them at once, and the terms
        are summed piece by piece, then segment by segment: each risk is
        bit-equal to a scalar loop over the hypothesis's pieces.  ``hs`` is
        a :class:`BoundaryGrid` or a list of boundary classifiers.
        """
        grid = BoundaryGrid.from_hypotheses(hs)
        out = np.empty(len(grid))
        for rows, bounds, signs in _grid_blocks(grid):
            x1, x2 = self._clipped_cuts(bounds)
            # Piece j lies right of exactly j boundaries when it has positive length.
            piece_signs = signs[:, None] * np.where(np.arange(x1.shape[1]) % 2 == 0, 1, -1)
            terms = [np.where(piece_signs == seg.label, 0.0, seg.sub_masses(x1, x2))
                     for seg in self.segments]
            out[rows] = _piece_major_sum(terms)
        return out

    def disagreement_masses(self, hs, ref: BoundaryHypothesis) -> np.ndarray:
        """Disagreement mass of every hypothesis in ``hs`` against ``ref``,
        as one array, summed in the same order as :meth:`expected_risks`."""
        if not isinstance(ref, BoundaryHypothesis):
            raise ValueError(f"boundary grids hold BoundaryHypothesis, got {type(ref).__name__}")
        grid = BoundaryGrid.from_hypotheses(hs)
        ref_bounds = np.asarray(ref.boundaries, dtype=float)
        out = np.empty(len(grid))
        for rows, bounds, signs in _grid_blocks(grid):
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
        self._points, self._masses, self._pos_probs = (
            np.asarray(self.points), np.asarray(self.masses), np.asarray(self.pos_probs))
        self._cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        self._cum[-1] = 1.0

    def sample(self, n: int, rng: np.random.Generator) -> LabeledSample:
        u = rng.random((n, 2))
        idx = np.searchsorted(self._cum, u[:, 0], side="right") - 1
        idx = np.clip(idx, 0, len(self.points) - 1)
        xs = self._points[idx]
        ys = np.where(u[:, 1] < self._pos_probs[idx], 1, -1)
        del u, idx  # 24 bytes a point: free them before grouping
        return LabeledSample.of_points(xs, ys)

    def expected_risk(self, h) -> float:
        """Exact risk of ``h``: one row of :meth:`expected_risks`."""
        return self.expected_risks([h]).item()

    def disagreement_mass(self, h1, h2) -> float:
        """Mass on which ``h1`` and ``h2`` differ: one row of :meth:`disagreement_masses`."""
        return self.disagreement_masses([h1], h2).item()

    def _labels(self, hs) -> np.ndarray:
        """(hypotheses x atoms) label matrix, one ``evaluate_many`` per hypothesis."""
        return np.array([h.evaluate_many(self._points) for h in hs],
                        dtype=np.int8).reshape(-1, len(self.points))

    def expected_risks(self, hs) -> np.ndarray:
        """Exact risk of every hypothesis in ``hs``, as one array: atom i adds
        ``masses[i]`` times the chance its label is wrong, atom by atom from 0.0."""
        errors = np.where(self._labels(hs) == 1, 1.0 - self._pos_probs, self._pos_probs)
        return _piece_major_sum([self._masses * errors])

    def disagreement_masses(self, hs, ref) -> np.ndarray:
        """Disagreement mass of every hypothesis in ``hs`` against ``ref``, as
        one array, summed atom by atom like :meth:`expected_risks`."""
        differ = self._labels(hs) != self._labels([ref])
        return _piece_major_sum([np.where(differ, self._masses, 0.0)])
