"""Exact empirical risk minimization over nested 1-D classifier hierarchies.

Boundary classes are optimized with a suffix-table dynamic program over the
grouped sample: T[g][j][s] is the least number of mistakes on groups g..m-1
when group g carries sign s and at most j sign changes remain.  The same
tables drive a best-first enumeration of classifiers in increasing-mistake
order, which Algorithm-style intersection searches consume.  Ties are always
broken by the canonical key (mistakes, boundary count, boundary vector,
plus-sign-first), so every routine is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .classifiers import (
    BoundaryHypothesis,
    HierarchySpec,
    TabularHypothesis,
    enumerate_hypotheses,
)
from .distributions import LabeledSample

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


def _sign_index(sign: int) -> int:
    return 0 if sign == 1 else 1


_SIGN_OF_INDEX = (1, -1)


class _DpWorkspace:
    """Grouped sample plus suffix tables, reusable across levels.

    tables[j][g, s] = min mistakes on groups g.. with sign s at group g and
    at most j further sign changes; cs[g, s] = mistakes of the constant
    continuation.  All entries are int64 and exact.
    """

    def __init__(self, sample: LabeledSample, max_flips: int):
        xs, ys = sample.xs, sample.ys
        ux, inverse = np.unique(xs, return_inverse=True)
        m = len(ux)
        self.ux = ux
        self.m = m
        self._aux_cache = {}
        pos = np.bincount(inverse, weights=(ys == 1), minlength=m).astype(np.int64)
        neg = np.bincount(inverse, weights=(ys == -1), minlength=m).astype(np.int64)
        cost = np.stack([neg, pos], axis=1)
        cs = np.zeros((m + 1, 2), dtype=np.int64)
        cs[:m] = cost[::-1].cumsum(axis=0)[::-1]
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

    def _mid(self, q: int) -> float:
        return (self.ux[q - 1] + self.ux[q]) / 2.0

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
            seen = np.concatenate(([np.iinfo(np.int64).max], run_min[:-1]))
            fresh = rev <= seen
            arg = np.maximum.accumulate(np.where(fresh, np.arange(rev.size), -1))
            q_at = np.empty(m, dtype=np.int64)
            q_at[1:] = (m - 1) - arg[::-1]
            cached = (d, q_at)
            self._aux_cache[key] = cached
        return cached

    def table(self, j: int) -> np.ndarray:
        # more changes than the tables were built for cannot help
        return self.tables[min(j, len(self.tables) - 1)]

    def best_mistakes(self, budgets: dict[int, int]) -> int:
        return min(
            int(self.table(k)[0, _sign_index(f)]) for f, k in budgets.items()
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
            cuts.append((self.ux[q - 1] + self.ux[q]) / 2.0)
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
            k = min(k, len(self.tables) - 1)
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
        """Best-first scan of labelings in canonical order until ``predicate``
        accepts one.  Constant runs are collapsed: a heap node is either a
        full labeling or a lazy cursor over where the next flip goes, bounded
        exactly by the tables, so complete labelings still pop in canonical
        (mistakes, flips, boundary vector, sign) order."""
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
            k = min(k, len(self.tables) - 1)
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

    Subclasses define ``_floor_level``, ``flip_budgets`` and ``vc_dim``.
    """

    def __init__(self, max_level: int, min_level: int):
        if min_level < self._floor_level():
            raise ValueError(f"min_level must be >= {self._floor_level()}")
        if max_level < min_level:
            raise ValueError("need max_level >= min_level")
        self.min_level = min_level
        self.max_level = max_level

    def _check_level(self, level: int):
        if not self.min_level <= level <= self.max_level:
            raise ValueError(
                f"level {level} outside [{self.min_level}, {self.max_level}]"
            )

    def make_workspace(self, sample: LabeledSample) -> _DpWorkspace:
        max_flips = max(self.flip_budgets(self.max_level).values())
        return _DpWorkspace(sample, max_flips)

    def erm(self, sample, level, workspace=None) -> ErmResult:
        self._check_level(level)
        ws = workspace if workspace is not None else self.make_workspace(sample)
        return ws.canonical_erm(self.flip_budgets(level))

    def search_min_mistakes(
        self, sample, level, predicate, mistake_cap=None,
        pop_cap=DEFAULT_POP_CAP, workspace=None,
    ) -> SearchResult:
        self._check_level(level)
        ws = workspace if workspace is not None else self.make_workspace(sample)
        return ws.search(self.flip_budgets(level), predicate, mistake_cap, pop_cap)

    def contains(self, h: BoundaryHypothesis, level: int) -> bool:
        self._check_level(level)
        budget = self.flip_budgets(level).get(h.first_sign)
        return budget is not None and h.boundary_count <= budget

    def enumerate_on(self, points, level: int):
        self._check_level(level)
        budgets = self.flip_budgets(level)
        top = max(budgets.values())
        for h in enumerate_hypotheses(points, top):
            if self.contains(h, level):
                yield h


class BoundaryClassHierarchy(_NestedBoundaryHierarchy):
    """Level i = classifiers with at most i boundaries, either leading sign."""

    def __init__(self, max_level: int, min_level: int = 0):
        super().__init__(max_level, min_level)

    def _floor_level(self) -> int:
        return 0

    def flip_budgets(self, level: int) -> dict[int, int]:
        self._check_level(level)
        return {1: level, -1: level}

    def vc_dim(self, level: int) -> int:
        self._check_level(level)
        return level + 1


class OneSidedThresholdHierarchy(_NestedBoundaryHierarchy):
    """Level 1 = thresholds that are negative to the left; higher levels add
    one more sign change but only patterns reachable from a negative lead or
    a one-shorter positive lead (level 2 = thresholds plus positive-inside
    intervals, with reversed thresholds as their unbounded limits)."""

    def __init__(self, max_level: int, min_level: int = 1):
        super().__init__(max_level, min_level)

    def _floor_level(self) -> int:
        return 1

    def flip_budgets(self, level: int) -> dict[int, int]:
        self._check_level(level)
        return {-1: level, 1: level - 1}

    def vc_dim(self, level: int) -> int:
        self._check_level(level)
        return level


class FiniteClassHierarchy:
    """Explicitly enumerated nested classes, e.g. tabular or hand-built ones."""

    def __init__(self, levels: dict[int, tuple], vc_dims: tuple[int, ...]):
        keys = sorted(levels)
        if not keys:
            raise ValueError("need at least one level")
        if keys != list(range(keys[0], keys[-1] + 1)):
            raise ValueError("levels must be consecutive integers")
        for lo, hi in zip(keys, keys[1:]):
            missing = [h for h in levels[lo] if h not in levels[hi]]
            if missing:
                raise ValueError(f"level {lo} is not contained in level {hi}")
        if any(len(set(levels[k])) != len(levels[k]) for k in keys):
            raise ValueError("duplicate hypotheses within a level")
        self.min_level = keys[0]
        self.max_level = keys[-1]
        self.levels = {k: tuple(levels[k]) for k in keys}
        self._spec = HierarchySpec(self.min_level, self.max_level, tuple(vc_dims))

    def vc_dim(self, level: int) -> int:
        return self._spec.vc_dim(level)

    def make_workspace(self, sample: LabeledSample) -> dict:
        return {"ranked": {}}

    def _ranked(self, sample, level, workspace):
        if workspace is not None and level in workspace["ranked"]:
            return workspace["ranked"][level]
        ranked = sorted(
            ((mistake_count(h, sample), hypothesis_sort_key(h), h)
             for h in self.levels[level]),
            key=lambda t: (t[0], t[1]),
        )
        if workspace is not None:
            workspace["ranked"][level] = ranked
        return ranked

    def erm(self, sample, level, workspace=None) -> ErmResult:
        ranked = self._ranked(sample, level, workspace)
        mistakes, _, h = ranked[0]
        return ErmResult(h, mistakes)

    def search_min_mistakes(
        self, sample, level, predicate, mistake_cap=None,
        pop_cap=DEFAULT_POP_CAP, workspace=None,
    ) -> SearchResult:
        pops = 0
        for mistakes, _, h in self._ranked(sample, level, workspace):
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
    """Exhaustive reference minimizer; guards against large samples."""
    n = len(sample)
    if n > 20:
        raise ValueError("brute force is limited to 20 points")
    if n == 0:
        sign = 1 if 1 in budgets else -1
        return ErmResult(BoundaryHypothesis((), sign), 0)
    points = tuple(np.unique(sample.xs))
    best = None
    for h in enumerate_hypotheses(points, max(budgets.values())):
        budget = budgets.get(h.first_sign)
        if budget is None or h.boundary_count > budget:
            continue
        key = (mistake_count(h, sample), *hypothesis_sort_key(h)[1:])
        if best is None or key < best[0]:
            best = (key, h)
    return ErmResult(best[1], best[0][0])
