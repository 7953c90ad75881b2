"""The points of a grouped sample, a per-group grouping, an out-of-place
quantile, a point-by-point piecewise sampler, and DP tables over points: the
oracles that prefix counts, in-place quantiles, the sorted piecewise sampler
and label-run tables are checked against."""

import numpy as np

from transel.distributions import _EDGE_TOL, LabeledSample, Uniform, _power_antideriv, count_dtype
from transel.erm import _DpWorkspace


def points(sample) -> tuple[np.ndarray, np.ndarray]:
    """The sample's points in (x, y) order, as ``np.lexsort((ys, xs))`` sorts
    them: each group's ``neg`` −1s, then its ``pos`` +1s."""
    xs = np.repeat(sample.xs, sample.pos + sample.neg)
    labels = np.tile(np.array([-1, 1], dtype=np.int8), len(sample.xs))
    ys = np.repeat(labels, np.column_stack([sample.neg, sample.pos]).ravel())
    return xs, ys


def group_points(xs, ys) -> LabeledSample:
    """``LabeledSample.of_points`` by per-group counts: one ``reduceat`` per
    label over the group starts, then one cumsum of each into the prefix
    counts."""
    xs = np.asarray(xs, dtype=float)
    plus = np.asarray(ys) == 1
    n = xs.size
    dtype = count_dtype(n)
    if not (xs[1:] >= xs[:-1]).all():
        order = np.argsort(xs)
        xs, plus = xs[order], plus[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    pos = np.add.reduceat(plus, starts, dtype=dtype)
    neg = np.add.reduceat(~plus, starts, dtype=dtype)
    before = np.zeros((2, len(starts) + 1), dtype=dtype)
    np.cumsum(neg, out=before[0, 1:])
    np.cumsum(pos, out=before[1, 1:])
    return LabeledSample(xs[starts], before[0], before[1])


def quantile(seg, u: np.ndarray) -> np.ndarray:
    """``Segment.quantile`` out of place: a new array for each step."""
    u = np.asarray(u, dtype=float)
    if isinstance(seg.shape, Uniform):
        return seg.lo + u * (seg.hi - seg.lo)
    v, p = seg.shape.anchor, seg.shape.exponent
    g_lo = float(_power_antideriv(np.asarray([seg.lo]), v, p)[0])
    y = g_lo + u * seg._norm()
    x = v + np.sign(y) * (p * np.abs(y)) ** (1.0 / p)
    return np.clip(x, seg.lo, seg.hi)


def sample_points(dist, n: int, rng: np.random.Generator) -> LabeledSample:
    """``PiecewiseDistribution.sample`` point by point, in stream order: each
    draw's segment by ``searchsorted`` on the cumulative masses, then one
    boolean mask per segment, the out-of-place ``quantile``, and
    ``group_points`` with its sort."""
    u = rng.random((n, 2))
    idx = np.searchsorted(dist._cum, u[:, 0], side="right") - 1
    idx = np.clip(idx, 0, len(dist.segments) - 1)
    xs = np.empty(n)
    ys = np.empty(n, dtype=np.int8)
    for i, seg in enumerate(dist.segments):
        pick = idx == i
        if not np.any(pick):
            continue
        xs[pick] = quantile(
            seg, np.clip((u[pick, 0] - dist._cum[i]) / max(seg.mass, _EDGE_TOL), 0.0, 1.0))
        ys[pick] = seg.label
    return group_points(xs, ys)


def point_workspace(sample, max_flips: int) -> _DpWorkspace:
    """DP tables over the sample's own groups, its distinct xs, which every
    labeling of the sample can be cut along: the oracle that the label-run
    tables of ``make_workspace`` are checked against."""
    return _DpWorkspace(sample.xs, sample.xs, sample.pos, sample.neg, max_flips)
