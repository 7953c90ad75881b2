"""The points of a grouped sample, and DP tables over them: the oracles that
group counts and label-run tables are checked against."""

import numpy as np

from transel.erm import _DpWorkspace


def points(sample) -> tuple[np.ndarray, np.ndarray]:
    """The sample's points in (x, y) order, as ``np.lexsort((ys, xs))`` sorts
    them: each group's ``neg`` −1s, then its ``pos`` +1s."""
    xs = np.repeat(sample.xs, sample.pos + sample.neg)
    labels = np.tile(np.array([-1, 1], dtype=np.int8), len(sample.xs))
    ys = np.repeat(labels, np.column_stack([sample.neg, sample.pos]).ravel())
    return xs, ys


def point_workspace(sample, max_flips: int) -> _DpWorkspace:
    """DP tables over the sample's own groups, its distinct xs, which every
    labeling of the sample can be cut along: the oracle that the label-run
    tables of ``make_workspace`` are checked against."""
    return _DpWorkspace(sample.xs, sample.xs, sample.pos, sample.neg, max_flips)
