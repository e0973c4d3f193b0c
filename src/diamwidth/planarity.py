"""Left-right planarity test.

Decision version only (no embedding is produced): a DFS orientation pass
computes heights, lowpoints and nesting order, then the testing pass
maintains a stack of conflict pairs of back-edge intervals; a forced
same-side conflict proves nonplanarity.  Linear-time in spirit, written
recursively (graph sizes here are desk scale).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .graphs import Graph, bit_indices


@dataclass
class _Interval:
    low: tuple | None = None
    high: tuple | None = None

    def empty(self) -> bool:
        return self.low is None and self.high is None


@dataclass
class _ConflictPair:
    L: _Interval = field(default_factory=_Interval)
    R: _Interval = field(default_factory=_Interval)


class _NonPlanar(Exception):
    pass


class _LRTest:
    def __init__(self, g: Graph):
        self.g = g
        n = g.n
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[tuple | None] = [None] * n
        self.lowpt: dict[tuple, int] = {}
        self.lowpt2: dict[tuple, int] = {}
        self.nesting: dict[tuple, int] = {}
        self.oriented: set[tuple[int, int]] = set()
        self.out: list[list[tuple]] = [[] for _ in range(n)]
        self.ref: dict[tuple, tuple | None] = {}
        self.lowpt_edge: dict[tuple, tuple] = {}
        self.stack: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple, _ConflictPair | None] = {}

    # -- phase 1: orientation ------------------------------------------

    def _dfs1(self, v: int) -> None:
        e = self.parent_edge[v]
        for w in bit_indices(self.g.adj[v]):
            key = (v, w) if v < w else (w, v)
            if key in self.oriented:
                continue
            self.oriented.add(key)
            ei = (v, w)
            self.out[v].append(ei)
            self.lowpt[ei] = self.height[v]
            self.lowpt2[ei] = self.height[v]
            if self.height[w] is None:
                self.parent_edge[w] = ei
                self.height[w] = self.height[v] + 1
                self._dfs1(w)
            else:
                self.lowpt[ei] = self.height[w]
            self.nesting[ei] = 2 * self.lowpt[ei]
            if self.lowpt2[ei] < self.height[v]:
                self.nesting[ei] += 1
            if e is not None:
                if self.lowpt[ei] < self.lowpt[e]:
                    self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[ei])
                    self.lowpt[e] = self.lowpt[ei]
                elif self.lowpt[ei] > self.lowpt[e]:
                    self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[ei])
                else:
                    self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[ei])

    # -- phase 2: testing -------------------------------------------------

    def _top(self) -> _ConflictPair | None:
        return self.stack[-1] if self.stack else None

    def _conflicting(self, interval: _Interval, b: tuple) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _lowest(self, pair: _ConflictPair) -> int:
        if pair.L.empty():
            return self.lowpt[pair.R.low]
        if pair.R.empty():
            return self.lowpt[pair.L.low]
        return min(self.lowpt[pair.L.low], self.lowpt[pair.R.low])

    def _dfs2(self, v: int) -> None:
        e = self.parent_edge[v]
        ordered = sorted(self.out[v], key=lambda d: self.nesting[d])
        for i, ei in enumerate(ordered):
            self.stack_bottom[ei] = self._top()
            if ei == self.parent_edge[ei[1]]:
                self._dfs2(ei[1])
            else:
                self.lowpt_edge[ei] = ei
                self.stack.append(_ConflictPair(R=_Interval(ei, ei)))
            if self.lowpt[ei] < self.height[v]:
                if i == 0:
                    if e is not None:
                        self.lowpt_edge[e] = self.lowpt_edge[ei]
                else:
                    self._add_constraints(ei, e)
        if e is not None:
            u = e[0]
            self._trim_back_edges(u)
            if self.lowpt[e] < self.height[u]:
                top = self._top()
                hl = top.L.high if top else None
                hr = top.R.high if top else None
                if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                    self.ref[e] = hl
                else:
                    self.ref[e] = hr

    def _add_constraints(self, ei: tuple, e: tuple) -> None:
        pair = _ConflictPair()
        # merge return edges of ei into pair.R
        while True:
            q = self.stack.pop()
            if not q.L.empty():
                q.L, q.R = q.R, q.L
            if not q.L.empty():
                raise _NonPlanar
            if self.lowpt[q.R.low] > self.lowpt[e]:
                if pair.R.empty():
                    pair.R.high = q.R.high
                else:
                    self.ref[pair.R.low] = q.R.high
                pair.R.low = q.R.low
            else:
                self.ref[q.R.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into pair.L
        while self._conflicting(self._top().L, ei) or self._conflicting(
            self._top().R, ei
        ):
            q = self.stack.pop()
            if self._conflicting(q.R, ei):
                q.L, q.R = q.R, q.L
            if self._conflicting(q.R, ei):
                raise _NonPlanar
            if pair.R.low is not None:
                self.ref[pair.R.low] = q.R.high
            if q.R.low is not None:
                pair.R.low = q.R.low
            if pair.L.empty():
                pair.L.high = q.L.high
            else:
                self.ref[pair.L.low] = q.L.high
            pair.L.low = q.L.low
        if not (pair.L.empty() and pair.R.empty()):
            self.stack.append(pair)

    def _trim_back_edges(self, u: int) -> None:
        while self.stack and self._lowest(self.stack[-1]) == self.height[u]:
            self.stack.pop()
        if self.stack:
            pair = self.stack.pop()
            while pair.L.high is not None and pair.L.high[1] == u:
                pair.L.high = self.ref.get(pair.L.high)
            if pair.L.high is None and pair.L.low is not None:
                self.ref[pair.L.low] = pair.R.low
                pair.L.low = None
            while pair.R.high is not None and pair.R.high[1] == u:
                pair.R.high = self.ref.get(pair.R.high)
            if pair.R.high is None and pair.R.low is not None:
                self.ref[pair.R.low] = pair.L.low
                pair.R.low = None
            self.stack.append(pair)

    def run(self) -> bool:
        g = self.g
        if g.n <= 4:
            return True
        if g.m > 3 * g.n - 6:
            return False
        depth = sys.getrecursionlimit()
        if g.n + 100 > depth:
            sys.setrecursionlimit(g.n * 2 + 200)
        roots = []
        for s in range(g.n):
            if self.height[s] is None:
                self.height[s] = 0
                roots.append(s)
                self._dfs1(s)
        try:
            for s in roots:
                self._dfs2(s)
        except _NonPlanar:
            return False
        return True


def is_planar(g: Graph) -> bool:
    return _LRTest(g).run()


def is_apex_planar(g: Graph) -> bool:
    """True iff deleting at most one vertex makes g planar.

    A non-planar g has n >= 5, and a planar graph on n - 1 >= 4 vertices
    has at most 3(n - 1) - 6 edges (Euler), so only a vertex v with
    m - deg(v) <= 3n - 9 is tried."""
    from .graphs import delete_vertex

    if is_planar(g):
        return True
    low = g.m - 3 * g.n + 9
    return any(is_planar(delete_vertex(g, v)) for v, dv in enumerate(g.degrees) if dv >= low)
