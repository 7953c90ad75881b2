"""One-dimensional classifiers and the nested class hierarchies built from them.

The basic object is a sign classifier on the real line described by a sorted
tuple of decision boundaries plus the sign taken left of all of them.  A point
that coincides with a boundary receives the label of the interval to its left.
Tabular classifiers over a finite support and continuous piecewise-linear
(CPWL) surrogates round out the family: every boundary classifier is the sign
of a CPWL function, and every CPWL function is expressible with one linear
term plus hinge units, which is what a one-hidden-layer ReLU network computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

CONTINUITY_TOL = 1e-9


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

    def sign_on_interval_right_of(self, x: float) -> int:
        """Label on a small interval starting at x (the right limit at x)."""
        crossings = int(np.searchsorted(np.asarray(self.boundaries), x, side="right"))
        return self.first_sign if crossings % 2 == 0 else -self.first_sign

    def runs(self, sorted_xs: np.ndarray) -> tuple[tuple[int, ...], int]:
        """How h labels ascending ``sorted_xs``: ``(cuts, first_label)``.

        Point i carries ``first_label`` flipped once per cut <= i.  Each
        boundary makes one cut, O(log n); a point on a boundary stays in the
        run to its left, hence ``side="right"``.
        """
        cuts = np.searchsorted(sorted_xs, self.boundaries, side="right")
        return tuple(cuts.tolist()), self.first_sign


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

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray([self.evaluate(x) for x in np.asarray(xs, dtype=float)], dtype=np.int8)

    def runs(self, sorted_xs: np.ndarray) -> tuple[tuple[int, ...], int]:
        """``(cuts, first_label)`` on ascending ``sorted_xs``, as for boundary
        classifiers: one O(n) lookup pass, then a cut wherever the label changes."""
        labels = self.evaluate_many(sorted_xs)
        cuts = np.nonzero(labels[1:] != labels[:-1])[0] + 1
        return tuple(cuts.tolist()), int(labels[0]) if labels.size else 1


def enumerate_hypotheses(points, max_changes: int):
    """All canonical classifiers on ``points`` with at most ``max_changes`` sign changes.

    Yields each sample-distinguishable classifier exactly once, in order of
    increasing boundary count; the total count is sum_j 2*C(n-1, j).
    """
    points = _as_float_tuple(points)
    n = len(points)
    if n == 0:
        raise ValueError("need at least one point")
    if any(points[i] >= points[i + 1] for i in range(n - 1)):
        raise ValueError("points must be strictly increasing")
    gaps = [(points[i] + points[i + 1]) / 2.0 for i in range(n - 1)]
    for changes in range(min(max_changes, n - 1) + 1):
        for combo in itertools.combinations(range(n - 1), changes):
            cuts = tuple(gaps[i] for i in combo)
            for sign in (1, -1):
                yield BoundaryHypothesis(boundaries=cuts, first_sign=sign)


@dataclass(frozen=True)
class CpwlFunction:
    """Continuous piecewise-linear function on the real line.

    Piece i applies on [knots[i-1], knots[i]] (unbounded at the ends); pieces
    must agree at the knots to within a 1e-9 relative tolerance.
    """

    knots: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", _as_float_tuple(self.knots))
        object.__setattr__(self, "slopes", _as_float_tuple(self.slopes))
        object.__setattr__(self, "intercepts", _as_float_tuple(self.intercepts))
        k = self.knots
        if len(self.slopes) != len(k) + 1 or len(self.intercepts) != len(k) + 1:
            raise ValueError("need exactly one more piece than knots")
        if any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise ValueError("knots must be strictly increasing")
        for i, t in enumerate(k):
            left = self.slopes[i] * t + self.intercepts[i]
            right = self.slopes[i + 1] * t + self.intercepts[i + 1]
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > CONTINUITY_TOL * scale:
                raise ValueError(f"pieces {i} and {i + 1} disagree at knot {t}")

    @property
    def piece_count(self) -> int:
        return len(self.slopes)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(np.asarray(self.knots), xs, side="left")
        slopes = np.asarray(self.slopes)[idx]
        intercepts = np.asarray(self.intercepts)[idx]
        return slopes * xs + intercepts

    def __call__(self, x: float) -> float:
        return float(self.evaluate_many(np.asarray([x]))[0])


def to_cpwl(h: BoundaryHypothesis) -> CpwlFunction:
    """CPWL function whose sign realizes ``h`` away from its boundaries.

    Each piece is the line through one boundary's zero crossing and the
    adjacent interval's midpoint sign value, so the function vanishes exactly
    at the boundaries and has at most boundary_count + 1 pieces.
    """
    b = h.boundaries
    k = len(b)
    if k == 0:
        raise ValueError("constant classifiers have no boundary to interpolate")
    if k == 1:
        slope = -float(h.first_sign)
        return CpwlFunction(knots=(), slopes=(slope,), intercepts=(-slope * b[0],))
    mids = [(b[j] + b[j + 1]) / 2.0 for j in range(k - 1)]
    # sign of the interval (b[j], b[j+1])
    interval_sign = [h.first_sign * (-1) ** (j + 1) for j in range(k - 1)]
    slopes = []
    intercepts = []
    for j in range(k - 1):
        m = interval_sign[j] / (mids[j] - b[j])
        slopes.append(m)
        intercepts.append(-m * b[j])
    m_last = -interval_sign[k - 2] / (b[k - 1] - mids[k - 2])
    slopes.append(m_last)
    intercepts.append(-m_last * b[k - 1])
    knots = []
    for j in range(k - 1):
        knots.append((intercepts[j + 1] - intercepts[j]) / (slopes[j] - slopes[j + 1]))
    return CpwlFunction(knots=tuple(knots), slopes=tuple(slopes), intercepts=tuple(intercepts))


@dataclass(frozen=True)
class ReluParams:
    """One-hidden-layer ReLU representation c0 + m0*x + sum_i a_i * max(0, x - t_i)."""

    intercept: float
    linear_coef: float
    knots: tuple[float, ...]
    hinge_coefs: tuple[float, ...]

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = self.intercept + self.linear_coef * xs
        for t, a in zip(self.knots, self.hinge_coefs):
            out = out + a * np.maximum(0.0, xs - t)
        return out

    def __call__(self, x: float) -> float:
        return float(self.evaluate_many(np.asarray([x]))[0])


def cpwl_to_relu_params(f: CpwlFunction) -> ReluParams:
    """Hinge expansion of a CPWL function.

    The coefficient at each knot is the slope change across it, which is the
    unique choice that reproduces f pointwise.
    """
    coefs = tuple(f.slopes[i + 1] - f.slopes[i] for i in range(len(f.knots)))
    return ReluParams(
        intercept=f.intercepts[0],
        linear_coef=f.slopes[0],
        knots=f.knots,
        hinge_coefs=coefs,
    )


@dataclass(frozen=True)
class HierarchySpec:
    """Static description of a nested hierarchy: level range and VC dimensions."""

    min_level: int
    max_level: int
    vc_dims: tuple[int, ...]

    def __post_init__(self):
        if self.min_level < 0 or self.max_level < self.min_level:
            raise ValueError("need 0 <= min_level <= max_level")
        if len(self.vc_dims) != self.max_level - self.min_level + 1:
            raise ValueError("need one VC dimension per level")
        if any(d < 1 for d in self.vc_dims):
            raise ValueError("VC dimensions must be >= 1")
        if any(
            self.vc_dims[i] > self.vc_dims[i + 1] for i in range(len(self.vc_dims) - 1)
        ):
            raise ValueError("VC dimensions must be nondecreasing")

    def vc_dim(self, level: int) -> int:
        if not self.min_level <= level <= self.max_level:
            raise ValueError(f"level {level} outside [{self.min_level}, {self.max_level}]")
        return self.vc_dims[level - self.min_level]
