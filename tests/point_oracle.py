"""The points of a grouped sample: the oracle that group counts are checked against."""

import numpy as np


def points(sample) -> tuple[np.ndarray, np.ndarray]:
    """The sample's points in (x, y) order, as ``np.lexsort((ys, xs))`` sorts
    them: each group's ``neg`` −1s, then its ``pos`` +1s."""
    xs = np.repeat(sample.xs, sample.pos + sample.neg)
    labels = np.tile(np.array([-1, 1], dtype=np.int8), len(sample.xs))
    ys = np.repeat(labels, np.column_stack([sample.neg, sample.pos]).ravel())
    return xs, ys
