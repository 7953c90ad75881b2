"""Exact empirical risk minimization over nested 1-D classifier hierarchies.

A sample is its distinct xs and its prefix counts of each label
(:class:`LabeledSample`).  Boundary classes are optimized with a suffix-table
dynamic program over the sample's label runs, maximal stretches of groups
that carry one label (a group with both labels is a run of its own):
T[g][j][s] is the least number of mistakes on runs g..m-1 when run g carries
sign s and at most j sign changes remain.  One set of tables per sample
serves every level: it gives each level's ERM in O(runs), and it drives a
best-first enumeration of classifiers in increasing-mistake order, which
Algorithm-style intersection searches consume.  Ties are always broken by
the canonical key (mistakes, boundary count, boundary vector,
plus-sign-first), so every routine is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .classifiers import BoundaryGrid, BoundaryHypothesis, TabularHypothesis, midpoint, midpoints
from .distributions import LabeledSample, count_dtype

DEFAULT_POP_CAP = 1_000_000

SEARCH_FOUND = "found"
SEARCH_EMPTY = "empty"
SEARCH_INCONCLUSIVE = "inconclusive"


def mistake_count(h, sample: LabeledSample) -> int:
    return sample.mistakes(h.runs(sample.xs))


def hypothesis_sort_key(h):
    """Total deterministic order; smaller is preferred in every tie-break."""
    if isinstance(h, BoundaryHypothesis):
        return (0, h.boundary_count, h.boundaries, 0 if h.first_sign == 1 else 1)
    if isinstance(h, TabularHypothesis):
        return (1, h.support, h.labels)
    raise TypeError(f"no sort key for {type(h).__name__}")


@dataclass(frozen=True)
class ErmResult:
    hypothesis: object
    mistakes: int


@dataclass(frozen=True)
class SearchResult:
    status: str
    hypothesis: object | None
    mistakes: int | None
    pops: int


def _check_level(hierarchy, level: int):
    if not hierarchy.min_level <= level <= hierarchy.max_level:
        raise ValueError(f"level {level} outside [{hierarchy.min_level}, {hierarchy.max_level}]")


def _sign_index(sign: int) -> int:
    return 0 if sign == 1 else 1


_SIGN_OF_INDEX = (1, -1)


class _DpWorkspace:
    """Suffix tables over the label runs of one sample, shared by every level.

    A run is a maximal stretch of distinct-x groups that all carry one label;
    a group that holds both labels is a run of its own.  Run g = 0..m-1 has
    first x ``left[g]``, last x ``right[g]`` and (+, −) counts, and a boundary
    falls only between runs, at ``midpoint(right[g-1], left[g])``.
    tables[j][g, s] = min mistakes on runs g.. with sign s at run g and at
    most j further sign changes; cs[g, s] = mistakes of the constant
    continuation.  No entry exceeds n, so all are stored as int32 (int64 past
    its range), and every sum of entries is taken in Python ints.

    Cutting only at run edges loses nothing.  Take a labeling in a level's
    class whose first cut p lies strictly inside a pure run R = [u, w) of
    label l; the labeling is constant, say s, on [u, p).  If s != l, move p
    to u.  Otherwise [p, p') is -l up to the next cut p': if p' is also
    strictly inside R, drop both cuts; if not, move p to w.  A cut moved onto
    another cut cancels with it, and one moved to the sample's end drops,
    which at the start flips the first sign with one change fewer: both
    hierarchies' budgets for the two signs differ by at most one, so the
    result stays in the class.  Each move uses no more sign changes and only
    relabels points the labeling got wrong, at least one, as every group
    holds a point.  So every optimal labeling of a level, for either first
    sign and under ``_walk_cuts``'s exactly-``flips`` rule, cuts only at run
    edges.  So does the first labeling in canonical order that lies in given
    empirical minimal sets, as fixing mistakes never breaks membership: let
    h be a member at level j, h* equal h except on a share k of the sample
    that h mislabels, x = dis(h*, ERM_j) and A the level's complexity term.
    If x <= C²A, h*'s risk gap is at most x <= C·sqrt(xA).  Otherwise its gap
    is h's less k, and its slack h's less at most
    C·sqrt(A)·(sqrt(x + k) - sqrt(x)) < k/2.  A run edge is a distinct-x
    edge, so its midpoint is the same two floats: the level ERMs, and the
    first member a search finds, are bit for bit those over every distinct x.
    """

    def __init__(self, left, right, pos, neg, max_flips: int):
        m = len(left)
        dtype = count_dtype(int(pos.sum()) + int(neg.sum()))
        self.left, self.right = left, right
        self.m = m
        self.dtype = dtype
        self._aux_cache = {}
        cs = np.zeros((m + 1, 2), dtype=dtype)
        for si, wrong in enumerate((neg, pos)):
            cs[:m, si] = np.cumsum(wrong[::-1], dtype=dtype)[::-1]
        self.cs = cs
        tables = [cs]
        for _ in range(max_flips):
            prev = tables[-1]
            nxt = np.zeros_like(cs)
            for si in (0, 1):
                v = prev[:, 1 - si] - cs[:, si]
                sufmin = np.minimum.accumulate(v[::-1])[::-1]
                nxt[:m, si] = cs[:m, si] + np.minimum(0, sufmin[1:])
            tables.append(nxt)
        self.tables = tables

    @classmethod
    def of_runs(cls, sample: LabeledSample, max_flips: int) -> "_DpWorkspace":
        """Tables over the label runs of the sample, in one O(groups) pass:
        consecutive groups of one label merge, and a group that holds both
        labels is a run of its own.  A run's counts are differences of the
        sample's prefix counts at its ends."""
        neg, pos = sample.before_neg, sample.before_pos
        # +1 or −1 for a group of one label, 0 for a mixed one
        kind = (pos[1:] > pos[:-1]).astype(np.int8) - (neg[1:] > neg[:-1])
        first = np.empty(len(kind), dtype=bool)
        first[:1] = True
        np.not_equal(kind[1:], kind[:-1], out=first[1:])
        first |= kind == 0
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(kind)) if len(kind) else starts
        return cls(sample.xs[starts], sample.xs[ends - 1], pos[ends] - pos[starts],
                   neg[ends] - neg[starts], max_flips)

    def _mid(self, q: int) -> float:
        return float(midpoint(self.right[q - 1], self.left[q]))

    def _flip_aux(self, jj: int, si: int):
        """Flip-continuation bounds for a constant run with sign ``si``.

        d[q] is the exact best completion after flipping into group q with
        tables[jj] budget left, minus the run's own suffix cost; q_at[lo] is
        the smallest argmin of d over [lo, m-1], so ties pick the earliest
        boundary, matching the canonical order.
        """
        key = (jj, si)
        cached = self._aux_cache.get(key)
        if cached is None:
            m = self.m
            d = self.tables[jj][:, 1 - si] - self.cs[:, si]
            rev = d[1:m][::-1]
            run_min = np.minimum.accumulate(rev)
            seen = np.empty_like(rev)
            seen[:1] = np.iinfo(self.dtype).max
            seen[1:] = run_min[:-1]
            fresh = rev <= seen
            arg = np.maximum.accumulate(
                np.where(fresh, np.arange(rev.size, dtype=self.dtype), -1))
            q_at = np.empty(m, dtype=self.dtype)
            q_at[1:] = (m - 1) - arg[::-1]
            cached = (d, q_at)
            self._aux_cache[key] = cached
        return cached

    def best_mistakes(self, budgets: dict[int, int]) -> int:
        return min(
            int(self.tables[k][0, _sign_index(f)]) for f, k in budgets.items()
        )

    def _walk_cuts(self, best: int, first_sign: int, flips: int) -> tuple[float, ...]:
        """Lex-least boundary vector among optimal labelings using exactly
        ``flips`` changes: always take the earliest feasible change."""
        si = _sign_index(first_sign)
        g, acc, j = 0, 0, flips
        cuts = []
        while j > 0:
            v = self.tables[j - 1][:, 1 - si] - self.cs[:, si]
            target = best - acc - int(self.cs[g, si])
            hits = np.nonzero(v[g + 1 : self.m] == target)[0]
            if hits.size == 0:
                break
            q = g + 1 + int(hits[0])
            cuts.append(self._mid(q))
            acc += int(self.cs[g, si] - self.cs[q, si])
            g, si, j = q, 1 - si, j - 1
        acc += int(self.cs[g, si])
        if acc != best:
            raise AssertionError("optimal labeling reconstruction went off-table")
        return tuple(cuts)

    def canonical_erm(self, budgets: dict[int, int]) -> ErmResult:
        best = self.best_mistakes(budgets)
        candidates = []
        for f, k in budgets.items():
            si = _sign_index(f)
            if int(self.tables[k][0, si]) != best:
                continue
            flips = next(
                j for j in range(k + 1) if int(self.tables[j][0, si]) == best
            )
            candidates.append((flips, f))
        min_flips = min(flips for flips, _ in candidates)
        keyed = []
        for flips, f in candidates:
            if flips != min_flips:
                continue
            cuts = self._walk_cuts(best, f, flips)
            keyed.append(((cuts, _sign_index(f)), BoundaryHypothesis(cuts, f)))
        keyed.sort(key=lambda kv: kv[0])
        return ErmResult(keyed[0][1], best)

    def search(self, budgets, predicate, mistake_cap=None, pop_cap=DEFAULT_POP_CAP):
        """Best-first scan, in canonical order, of the labelings that cut at
        run edges, until ``predicate`` accepts one.  A heap node is either a
        full labeling or a lazy cursor over where the next flip goes, bounded
        exactly by the tables, so complete labelings still pop in canonical
        (mistakes, flips, boundary vector, sign) order.  A cap below the
        level ERM's mistakes admits nothing, so it returns before any bound
        is built."""
        if mistake_cap is not None and mistake_cap < self.best_mistakes(budgets):
            return SearchResult(SEARCH_EMPTY, None, None, 0)
        heap = []
        counter = 0
        m = self.m

        def admissible(bound):
            return mistake_cap is None or bound <= mistake_cap

        def push(key, tag, payload):
            nonlocal counter
            heapq.heappush(heap, (key, counter, tag, payload))
            counter += 1

        for f, k in budgets.items():
            si = _sign_index(f)
            b0 = int(self.cs[0, si])
            if admissible(b0):
                push((b0, 0, (), si, m), 0, None)
            if k >= 1 and m >= 2:
                d, q_at = self._flip_aux(k - 1, si)
                q0 = int(q_at[1])
                bg = b0 + int(d[q0])
                if admissible(bg):
                    push((bg, 1, (self._mid(q0),), si, q0), 1, (b0, si, k, ()))
        pops = 0
        while heap:
            key, _, tag, payload = heapq.heappop(heap)
            pops += 1
            if pops > pop_cap:
                return SearchResult(SEARCH_INCONCLUSIVE, None, None, pops)
            bound, flips, cuts, first_si, q = key
            if tag == 0:
                h = BoundaryHypothesis(cuts, _SIGN_OF_INDEX[first_si])
                if predicate(h, bound):
                    return SearchResult(SEARCH_FOUND, h, bound, pops)
                continue
            # cursor: emit the labeling that flips here, advance the cursor,
            # and open the child's own cursor one flip deeper
            acc_base, si, j, parent_cuts = payload
            si2 = 1 - si
            base2 = acc_base - int(self.cs[q, si]) + int(self.cs[q, si2])
            if admissible(base2):
                push((base2, flips, cuts, first_si, m), 0, None)
            if j >= 2 and q + 1 <= m - 1:
                d2, q_at2 = self._flip_aux(j - 2, si2)
                q2 = int(q_at2[q + 1])
                b2 = base2 + int(d2[q2])
                if admissible(b2):
                    push(
                        (b2, flips + 1, cuts + (self._mid(q2),), first_si, q2),
                        1,
                        (base2, si2, j - 1, cuts),
                    )
            if q + 1 <= m - 1:
                d, q_at = self._flip_aux(j - 1, si)
                q3 = int(q_at[q + 1])
                b3 = acc_base + int(d[q3])
                if admissible(b3):
                    push(
                        (b3, flips, parent_cuts + (self._mid(q3),), first_si, q3),
                        1,
                        (acc_base, si, j, parent_cuts),
                    )
        return SearchResult(SEARCH_EMPTY, None, None, pops)


class _NestedBoundaryHierarchy:
    """Shared machinery for hierarchies indexed by a sign-change budget.

    Subclasses define the floor ``min_level``, ``flip_budgets`` and ``vc_dim``.
    """

    def __init__(self, max_level: int):
        if max_level < self.min_level:
            raise ValueError(f"need max_level >= {self.min_level}")
        self.max_level = max_level

    def make_workspace(self, sample: LabeledSample) -> _DpWorkspace:
        max_flips = max(self.flip_budgets(self.max_level).values())
        return _DpWorkspace.of_runs(sample, max_flips)

    def erm(self, sample, level, workspace=None) -> ErmResult:
        _check_level(self, level)
        ws = workspace if workspace is not None else self.make_workspace(sample)
        return ws.canonical_erm(self.flip_budgets(level))

    def search_min_mistakes(
        self, sample, level, predicate, mistake_cap=None,
        pop_cap=DEFAULT_POP_CAP, workspace=None,
    ) -> SearchResult:
        _check_level(self, level)
        ws = workspace if workspace is not None else self.make_workspace(sample)
        return ws.search(self.flip_budgets(level), predicate, mistake_cap, pop_cap)

    def contains(self, h: BoundaryHypothesis, level: int) -> bool:
        _check_level(self, level)
        budget = self.flip_budgets(level).get(h.first_sign)
        return budget is not None and h.boundary_count <= budget

    def enumerate_on(self, points, level: int) -> BoundaryGrid:
        """Every classifier of the level that ``points`` tell apart, as the
        :meth:`BoundaryGrid.of_budgets` grid on their midpoints: by first sign
        (+1 first), then boundary count, then midpoint combination."""
        return BoundaryGrid.of_budgets(self.flip_budgets(level), midpoints(points))


class BoundaryClassHierarchy(_NestedBoundaryHierarchy):
    """Level i = classifiers with at most i boundaries, either leading sign."""

    min_level = 0

    def flip_budgets(self, level: int) -> dict[int, int]:
        _check_level(self, level)
        return {1: level, -1: level}

    def vc_dim(self, level: int) -> int:
        _check_level(self, level)
        return level + 1


class OneSidedThresholdHierarchy(_NestedBoundaryHierarchy):
    """Level 1 = thresholds that are negative to the left; higher levels add
    one more sign change but only patterns reachable from a negative lead or
    a one-shorter positive lead (level 2 = thresholds plus positive-inside
    intervals, with reversed thresholds as their unbounded limits)."""

    min_level = 1

    def flip_budgets(self, level: int) -> dict[int, int]:
        _check_level(self, level)
        return {-1: level, 1: level - 1}

    def vc_dim(self, level: int) -> int:
        _check_level(self, level)
        return level


class FiniteClassHierarchy:
    """Explicitly enumerated nested classes, e.g. tabular or hand-built ones."""

    def __init__(self, levels: dict[int, tuple], vc_dims: tuple[int, ...]):
        keys = sorted(levels)
        if not keys:
            raise ValueError("need at least one level")
        if keys[0] < 0:
            raise ValueError("levels must be >= 0")
        if keys != list(range(keys[0], keys[-1] + 1)):
            raise ValueError("levels must be consecutive integers")
        for lo, hi in zip(keys, keys[1:]):
            missing = [h for h in levels[lo] if h not in levels[hi]]
            if missing:
                raise ValueError(f"level {lo} is not contained in level {hi}")
        if any(len(set(levels[k])) != len(levels[k]) for k in keys):
            raise ValueError("duplicate hypotheses within a level")
        vc_dims = tuple(vc_dims)
        if len(vc_dims) != len(keys):
            raise ValueError("need one VC dimension per level")
        if any(d < 1 for d in vc_dims):
            raise ValueError("VC dimensions must be >= 1")
        if any(a > b for a, b in zip(vc_dims, vc_dims[1:])):
            raise ValueError("VC dimensions must be nondecreasing")
        self.min_level = keys[0]
        self.max_level = keys[-1]
        self.levels = {k: tuple(levels[k]) for k in keys}
        self.vc_dims = vc_dims
        # (first level, h) over the top level in canonical order, fixed once
        first = {h: k for k in reversed(keys) for h in levels[k]}
        self._canonical = tuple(
            (first[h], h) for h in sorted(self.levels[keys[-1]], key=hypothesis_sort_key))

    def vc_dim(self, level: int) -> int:
        _check_level(self, level)
        return self.vc_dims[level - self.min_level]

    def make_workspace(self, sample: LabeledSample) -> list:
        """The top level ranked on ``sample``: ``(mistakes, first level, h)``
        by mistakes, ties in canonical order.  Each level's ranking is this
        list without the hypotheses whose first level lies above it."""
        return sorted(((mistake_count(h, sample), first, h) for first, h in self._canonical),
                      key=itemgetter(0))

    def erm(self, sample, level, workspace=None) -> ErmResult:
        _check_level(self, level)
        ws = workspace if workspace is not None else self.make_workspace(sample)
        return next(ErmResult(h, mistakes) for mistakes, first, h in ws if first <= level)

    def search_min_mistakes(
        self, sample, level, predicate, mistake_cap=None,
        pop_cap=DEFAULT_POP_CAP, workspace=None,
    ) -> SearchResult:
        _check_level(self, level)
        ws = workspace if workspace is not None else self.make_workspace(sample)
        pops = 0
        for mistakes, first, h in ws:
            if first > level:
                continue
            if mistake_cap is not None and mistakes > mistake_cap:
                break
            pops += 1
            if pops > pop_cap:
                return SearchResult(SEARCH_INCONCLUSIVE, None, None, pops)
            if predicate(h, mistakes):
                return SearchResult(SEARCH_FOUND, h, mistakes, pops)
        return SearchResult(SEARCH_EMPTY, None, None, pops)

    def contains(self, h, level: int) -> bool:
        return h in self.levels[level]

    def enumerate_on(self, points, level: int):
        yield from self.levels[level]


def erm_bruteforce(sample: LabeledSample, budgets: dict[int, int]) -> ErmResult:
    """Exhaustive reference minimizer over the :meth:`BoundaryGrid.of_budgets`
    grid on the sample's midpoints; guards against large samples.  The least
    (mistakes, canonical key) wins, so the grid's row order does not matter."""
    if len(sample) > 20:
        raise ValueError("brute force is limited to 20 points")
    best = None
    for h in BoundaryGrid.of_budgets(budgets, midpoints(sample.xs)):
        key = (mistake_count(h, sample), *hypothesis_sort_key(h)[1:])
        if best is None or key < best[0]:
            best = (key, h)
    return ErmResult(best[1], best[0][0])
