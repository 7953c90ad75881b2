"""The points of a grouped sample, a point-by-point piecewise sampler, and DP
tables over points: the oracles that group counts, the sorted piecewise
sampler and label-run tables are checked against."""

import numpy as np

from transel.distributions import _EDGE_TOL, LabeledSample
from transel.erm import _DpWorkspace


def points(sample) -> tuple[np.ndarray, np.ndarray]:
    """The sample's points in (x, y) order, as ``np.lexsort((ys, xs))`` sorts
    them: each group's ``neg`` −1s, then its ``pos`` +1s."""
    xs = np.repeat(sample.xs, sample.pos + sample.neg)
    labels = np.tile(np.array([-1, 1], dtype=np.int8), len(sample.xs))
    ys = np.repeat(labels, np.column_stack([sample.neg, sample.pos]).ravel())
    return xs, ys


def sample_points(dist, n: int, rng: np.random.Generator) -> LabeledSample:
    """``PiecewiseDistribution.sample`` point by point, in stream order: each
    draw's segment by ``searchsorted`` on the cumulative masses, then one
    boolean mask per segment, grouped by ``of_points`` with its sort."""
    u = rng.random((n, 2))
    idx = np.searchsorted(dist._cum, u[:, 0], side="right") - 1
    idx = np.clip(idx, 0, len(dist.segments) - 1)
    xs = np.empty(n)
    ys = np.empty(n, dtype=np.int8)
    for i, seg in enumerate(dist.segments):
        pick = idx == i
        if not np.any(pick):
            continue
        xs[pick] = seg.quantile(
            np.clip((u[pick, 0] - dist._cum[i]) / max(seg.mass, _EDGE_TOL), 0.0, 1.0))
        ys[pick] = seg.label
    return LabeledSample.of_points(xs, ys)


def point_workspace(sample, max_flips: int) -> _DpWorkspace:
    """DP tables over the sample's own groups, its distinct xs, which every
    labeling of the sample can be cut along: the oracle that the label-run
    tables of ``make_workspace`` are checked against."""
    return _DpWorkspace(sample.xs, sample.xs, sample.pos, sample.neg, max_flips)
