"""One-dimensional classifiers and the nested class hierarchies built from them.

The basic object is a sign classifier on the real line described by a sorted
tuple of decision boundaries plus the sign taken left of all of them.  A point
that coincides with a boundary receives the label of the interval to its left.
Tabular classifiers over a finite support round out the family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class BoundaryHypothesis:
    """Sign classifier with sorted decision boundaries.

    ``first_sign`` is the label on ``(-inf, boundaries[0]]``; the label flips
    across each boundary.  With no boundaries the classifier is constant.
    """

    boundaries: tuple[float, ...] = ()
    first_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "boundaries", _as_float_tuple(self.boundaries))
        if self.first_sign not in (-1, 1):
            raise ValueError("first_sign must be -1 or +1")
        b = self.boundaries
        if any(not np.isfinite(v) for v in b):
            raise ValueError("boundaries must be finite")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def boundary_count(self) -> int:
        return len(self.boundaries)

    def evaluate(self, x: float) -> int:
        return int(self.evaluate_many(np.asarray([x], dtype=float))[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized labels in {-1, +1}; boundary points take the left label."""
        xs = np.asarray(xs, dtype=float)
        # number of boundaries strictly below x
        crossings = np.searchsorted(np.asarray(self.boundaries), xs, side="left")
        signs = np.where(crossings % 2 == 0, self.first_sign, -self.first_sign)
        return signs.astype(np.int8)

    def runs(self, sorted_xs: np.ndarray) -> tuple[tuple[int, ...], int]:
        """How h labels ascending ``sorted_xs``: ``(cuts, first_label)``.

        Point i carries ``first_label`` flipped once per cut <= i.  Each
        boundary makes one cut, O(log n); a point on a boundary stays in the
        run to its left, hence ``side="right"``.
        """
        cuts = np.searchsorted(sorted_xs, self.boundaries, side="right")
        return tuple(cuts.tolist()), self.first_sign


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Boundary classifiers as arrays, one per row.

    Row i has ``counts[i]`` sorted boundaries in ``bounds[i, :counts[i]]``,
    the rest of the row padded with ``+inf``, and first sign ``signs[i]``.
    The risk kernels read the arrays; indexing or iterating builds a row's
    :class:`BoundaryHypothesis`, which only results need.
    """

    bounds: np.ndarray
    counts: np.ndarray
    signs: np.ndarray

    @classmethod
    def stack(cls, parts) -> BoundaryGrid:
        """The rows of ``(bounds, signs)`` parts in order, padded with ``+inf``
        to the widest.  ``bounds`` is an (n, k) array of rows as in a grid,
        ``signs`` one first sign per row or one for all n."""
        width = max(np.shape(b)[1] for b, _ in parts)
        bounds = np.concatenate([np.hstack([b, np.full((len(b), width - np.shape(b)[1]), np.inf)])
                                 for b, _ in parts])
        signs = np.concatenate([np.broadcast_to(s, len(b)) for b, s in parts])
        return cls(bounds, np.isfinite(bounds).sum(axis=1), signs)

    @classmethod
    def of_budgets(cls, budgets, positions) -> BoundaryGrid:
        """Every classifier whose first sign s has a budget, with at most
        ``budgets[s]`` boundaries, all on the sorted ``positions``: by first
        sign (+1 first), then boundary count, then position combination.
        With no positions it holds exactly the constants of each sign."""
        positions = np.asarray(positions, dtype=float)
        parts = []
        for sign, budget in sorted(budgets.items(), reverse=True):
            for k in range(budget + 1):
                combos = list(itertools.combinations(range(len(positions)), k))
                parts.append((positions[np.array(combos, dtype=int).reshape(len(combos), k)], sign))
        return cls.stack(parts)

    @classmethod
    def from_hypotheses(cls, hs) -> BoundaryGrid:
        """The grid of boundary classifiers ``hs``, in order; a grid is
        returned as it is."""
        if isinstance(hs, BoundaryGrid):
            return hs
        hs = list(hs)
        for h in hs:
            if not isinstance(h, BoundaryHypothesis):
                raise ValueError(f"boundary grids hold BoundaryHypothesis, got {type(h).__name__}")
        counts = np.array([len(h.boundaries) for h in hs], dtype=int)
        bounds = np.full((len(hs), counts.max(initial=0)), np.inf)
        bounds[np.arange(bounds.shape[1]) < counts[:, None]] = [b for h in hs for b in h.boundaries]
        return cls(bounds, counts, np.array([h.first_sign for h in hs], dtype=int))

    def unique(self) -> BoundaryGrid:
        """The grid without repeated classifiers, each where it first occurs."""
        _, first = np.unique(np.column_stack([self.signs, self.bounds]), axis=0,
                             return_index=True)
        first.sort()
        return BoundaryGrid(self.bounds[first], self.counts[first], self.signs[first])

    def __len__(self) -> int:
        return len(self.signs)

    def __getitem__(self, i: int) -> BoundaryHypothesis:
        # An index past the end raises IndexError, which ends iteration.
        return BoundaryHypothesis(tuple(self.bounds[i, :self.counts[i]].tolist()),
                                  int(self.signs[i]))


def midpoints(xs) -> np.ndarray:
    """The halfway points between consecutive distinct values of ``xs``,
    ascending: the boundary positions that tell every labeling of ``xs`` apart."""
    values = np.unique(np.asarray(xs, dtype=float))
    return (values[:-1] + values[1:]) / 2.0


def disagreement_count(runs_a, runs_b, n: int) -> int:
    """Points of a sorted n-point sample on which two labelings differ.

    ``runs_a``/``runs_b`` are the two hypotheses' ``runs`` on that sample.
    Every cut of either side toggles agreement, so the merged cuts split the
    sample into runs that alternate between agreeing and disagreeing.  Costs
    O((k + k') log(k + k')) for k and k' cuts, independent of n.
    """
    (cuts_a, label_a), (cuts_b, label_b) = runs_a, runs_b
    total, start, differ = 0, 0, label_a != label_b
    for cut in sorted(cuts_a + cuts_b):
        if differ:
            total += cut - start
        start, differ = cut, not differ
    return total + n - start if differ else total


@dataclass(frozen=True)
class TabularHypothesis:
    """Classifier defined only on a finite support of distinct points."""

    support: tuple[float, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", _as_float_tuple(self.support))
        object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
        if len(self.support) != len(self.labels):
            raise ValueError("support and labels must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support points must be distinct")
        if any(y not in (-1, 1) for y in self.labels):
            raise ValueError("labels must be -1 or +1")

    def evaluate(self, x: float) -> int:
        try:
            return self.labels[self.support.index(float(x))]
        except ValueError:
            raise ValueError(f"point {x!r} is not in the tabular support") from None

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """The support in ascending order, then NaN, which matches no point;
        and the labels in that order."""
        order = np.argsort(self.support)
        points = np.append(np.asarray(self.support)[order], np.nan)
        return points, np.asarray(self.labels, dtype=np.int8)[order]

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Labels of ``xs`` by one O(n log d) lookup on the sorted support."""
        xs = np.asarray(xs, dtype=float)
        points, labels = self._lookup
        idx = np.searchsorted(points[:-1], xs)
        missing = points[idx] != xs
        if missing.any():
            raise ValueError(f"point {xs[missing][0]!r} is not in the tabular support")
        return labels[idx]

    def runs(self, sorted_xs: np.ndarray) -> tuple[tuple[int, ...], int]:
        """``(cuts, first_label)`` on ascending ``sorted_xs``, as for boundary
        classifiers: one O(n) lookup pass, then a cut wherever the label changes."""
        labels = self.evaluate_many(sorted_xs)
        cuts = np.nonzero(labels[1:] != labels[:-1])[0] + 1
        return tuple(cuts.tolist()), int(labels[0]) if labels.size else 1

