"""Scalar risk loops: the oracle that the exact-risk kernels are checked against.

One hypothesis and one piece (or atom) at a time, in Python floats.  The
array kernels of :mod:`transel.distributions` must equal these loops bit for
bit, and the tests compare them with ``same_bits``.
"""

import numpy as np

from transel.distributions import (
    Deterministic,
    DiscreteDistribution,
    Uniform,
    _power_antideriv,
)


def same_bits(got: np.ndarray, want) -> bool:
    """Whether ``got`` holds exactly the float64 bits of ``want``."""
    want = np.asarray(want, dtype=float)
    return got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()


def sign_on_interval_right_of(h, x: float) -> int:
    """Label of boundary classifier ``h`` on a small interval starting at x
    (the right limit at x)."""
    crossings = int(np.searchsorted(np.asarray(h.boundaries), x, side="right"))
    return h.first_sign if crossings % 2 == 0 else -h.first_sign


def label_error(sign: int, law) -> float:
    """P[Y != sign] under the segment's label law."""
    if isinstance(law, Deterministic):
        return 0.0 if sign == law.label else 1.0
    return 1.0 - law.q if sign == 1 else law.q


def sub_mass(seg, x1: float, x2: float) -> float:
    """Probability mass of [x1, x2] intersected with the segment."""
    a = max(seg.lo, min(x1, x2))
    b = min(seg.hi, max(x1, x2))
    if b <= a:
        return 0.0
    if isinstance(seg.shape, Uniform):
        frac = (b - a) / (seg.hi - seg.lo)
    else:
        g = _power_antideriv(np.asarray([a, b]), seg.shape.anchor, seg.shape.exponent)
        frac = float(g[1] - g[0]) / seg._norm()
    return seg.mass * frac


def _pieces_with_sign(dist, h):
    """Yield (x1, x2, sign) covering the support, split at h's boundaries."""
    lo, hi = dist.support
    cuts = [lo] + [b for b in h.boundaries if lo < b < hi] + [hi]
    for x1, x2 in zip(cuts, cuts[1:]):
        yield x1, x2, sign_on_interval_right_of(h, x1)


def _piecewise_expected_risk(dist, h) -> float:
    total = 0.0
    for x1, x2, sign in _pieces_with_sign(dist, h):
        for seg in dist.segments:
            m = sub_mass(seg, x1, x2)
            if m > 0.0:
                total += m * label_error(sign, seg.label_law)
    return total


def _piecewise_disagreement_mass(dist, h1, h2) -> float:
    lo, hi = dist.support
    cuts = sorted({lo, hi} | {b for b in h1.boundaries if lo < b < hi}
                  | {b for b in h2.boundaries if lo < b < hi})
    total = 0.0
    for x1, x2 in zip(cuts, cuts[1:]):
        if sign_on_interval_right_of(h1, x1) != sign_on_interval_right_of(h2, x1):
            for seg in dist.segments:
                total += sub_mass(seg, x1, x2)
    return total


def _discrete_expected_risk(dist, h) -> float:
    signs = h.evaluate_many(np.asarray(dist.points))
    total = 0.0
    for m, q, s in zip(dist.masses, dist.pos_probs, signs):
        total += m * ((1.0 - q) if s == 1 else q)
    return total


def _discrete_disagreement_mass(dist, h1, h2) -> float:
    s1 = h1.evaluate_many(np.asarray(dist.points))
    s2 = h2.evaluate_many(np.asarray(dist.points))
    return float(sum(m for m, a, b in zip(dist.masses, s1, s2) if a != b))


def expected_risk(dist, h) -> float:
    """Exact risk of ``h`` under a piecewise or discrete distribution."""
    if isinstance(dist, DiscreteDistribution):
        return _discrete_expected_risk(dist, h)
    return _piecewise_expected_risk(dist, h)


def disagreement_mass(dist, h1, h2) -> float:
    """Mass on which ``h1`` and ``h2`` differ under ``dist``."""
    if isinstance(dist, DiscreteDistribution):
        return _discrete_disagreement_mass(dist, h1, h2)
    return _piecewise_disagreement_mass(dist, h1, h2)
