"""Exact desk-scale solvers for treedepth, pathwidth and treewidth.

Height convention: counted in vertices, so td(K_1) = 1 and td(K_n) = n;
td of the empty graph is 0 (recursion base).  Every exact result carries a
verifiable certificate: an elimination forest for treedepth, an optimal
vertex ordering for pathwidth (vertex separation view), and a tree
decomposition for treewidth.  Above the size limits the treedepth entry
point degrades to (lower, upper) bounds from the longest path, never to a
silent heuristic value.

Each solver decides "width <= k" for k upward from a lower bound and
stops at the first feasible k, or at a greedy upper bound whose own
order is the certificate (Bodlaender, Fomin, Koster, Kratsch & Thilikos,
*On exact algorithms for treewidth*, TALG 2012).  Greedy min-degree
elimination gives the bounds: its width bounds treewidth from above, and
the degeneracy (the same elimination without fill-in) from below.

* treewidth and pathwidth: one depth-first search over the sets S of
  vertices placed so far, which visits each set once and adds v to S
  only while the step costs at most k.  For treewidth a step eliminates
  v after S and costs the number of vertices outside S u {v} reachable
  from v through S; for pathwidth it costs the vertex separation of
  S u {v}, the number of its vertices with a neighbour outside it.  The
  upper bound for pathwidth is the separation of the reversed greedy
  order, the lower bound its treewidth.
* treedepth: a recursive decision over connected vertex sets C from
  k = degeneracy + 1: td(C) <= k iff C has at most k vertices (a chain)
  or some root v leaves components of treedepth <= k - 1.  Each set
  remembers the largest k it failed and the least k it passed, with
  that root, from which the elimination forest is rebuilt.  Roots are
  tried by descending degree in C, and only while the root's degree
  covers the edges that height-(k - 1) forests on the other |C| - 1
  vertices cannot hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, bit_indices, component_masks
from .paths import longest_path

TD_LIMIT = 24
PW_LIMIT = 20
TW_LIMIT = 16


class SizeLimitError(ValueError):
    pass


@dataclass(frozen=True)
class EliminationForest:
    """Rooted forest over the graph's vertex ids; parents[v] = -1 at roots."""

    parents: tuple[int, ...]

    @property
    def height(self) -> int:
        n = len(self.parents)
        depth = [0] * n

        def d(v: int) -> int:
            if depth[v]:
                return depth[v]
            p = self.parents[v]
            depth[v] = 1 if p == -1 else d(p) + 1
            return depth[v]

        return max((d(v) for v in range(n)), default=0)

    def is_ancestor(self, a: int, v: int) -> bool:
        while v != -1:
            if v == a:
                return True
            v = self.parents[v]
        return False


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


@dataclass(frozen=True)
class WidthResult:
    parameter: str  # "td" | "pw" | "tw"
    value: int | None
    certificate: object | None
    exact: bool
    bounds: tuple[int, int] | None = None


# -- bounds -------------------------------------------------------------------


def _min_degree_elimination(g: Graph, fill: bool = True) -> tuple[int, list[int]]:
    """Greedy min-degree elimination: its width and its order.  With
    fill-in the width bounds treewidth from above (Bodlaender & Koster,
    Inf. Comput. 2010); without, it is the degeneracy, a lower bound."""
    adj = list(g.adj)
    alive = (1 << g.n) - 1
    width = 0
    order = []
    while alive:
        v = min(bit_indices(alive), key=lambda u: (adj[u] & alive).bit_count())
        alive &= ~(1 << v)
        nb = adj[v] & alive
        width = max(width, nb.bit_count())
        if fill:
            for u in bit_indices(nb):
                adj[u] |= nb & ~(1 << u)
        order.append(v)
    return width, order


def _width_upper_bound(g: Graph, parameter: str) -> int:
    """An upper bound on the exact width, valid by construction: the
    greedy elimination width for tw, the vertex separation of the
    reversed elimination order for pw, the order of the graph for td."""
    if parameter == "td":
        return g.n
    width, order = _min_degree_elimination(g)
    if parameter == "tw":
        return width
    return pathwidth_of_order(g, tuple(reversed(order)))


# -- treedepth ---------------------------------------------------------------


def treedepth_exact(g: Graph) -> WidthResult:
    if g.n > TD_LIMIT:
        lo, hi = treedepth_bounds(g)
        return WidthResult("td", None, None, False, (lo, hi))
    if g.n == 0:
        return WidthResult("td", 0, EliminationForest(()), True)
    failed: dict[int, int] = {}  # mask -> largest k with td(mask) > k
    passed: dict[int, tuple[int, int]] = {}  # mask -> (least k seen with td <= k, root)
    parts = component_masks(g, (1 << g.n) - 1)
    value = _min_degree_elimination(g, fill=False)[0] + 1  # degeneracy <= tw <= td - 1
    for p in parts:
        while not _within(g, p, value, failed, passed):
            value += 1
    parents = [-1] * g.n
    for p in parts:
        _rebuild(g, p, value, -1, parents, passed)
    return WidthResult("td", value, EliminationForest(tuple(parents)), True)


def _within(
    g: Graph, mask: int, k: int, failed: dict[int, int], passed: dict[int, tuple[int, int]]
) -> bool:
    """Whether the connected set ``mask`` has treedepth <= k.  A module
    function, not a closure, like ``_grow``: ``failed`` and ``passed``
    (hundreds of megabytes at 24 vertices) are freed when the call
    returns, not when the garbage collector runs."""
    c = mask.bit_count()
    if c <= k:
        return True  # a chain
    if k <= failed.get(mask, 0):
        return False
    hit = passed.get(mask)
    if hit is not None and hit[0] <= k:
        return True
    adj = g.adj
    degree = {v: (adj[v] & mask).bit_count() for v in bit_indices(mask)}
    # Forests of height k - 1 on the other c - 1 vertices hold at most
    # (c-1)(k-2) - (k-1)(k-2)/2 edges; the root's edges cover the rest.
    need = sum(degree.values()) // 2 - (c - 1) * (k - 2) + (k - 1) * (k - 2) // 2
    for v in sorted(degree, key=degree.__getitem__, reverse=True):
        if degree[v] < need:
            break
        rest = mask & ~(1 << v)
        if k - 1 <= failed.get(rest, 0):
            continue  # a connected rest already refuted, without splitting it
        if all(_within(g, p, k - 1, failed, passed) for p in component_masks(g, rest)):
            passed[mask] = (k, v)
            return True
    failed[mask] = k
    return False


def _rebuild(
    g: Graph, mask: int, k: int, parent: int, parents: list[int], passed: dict[int, tuple[int, int]]
) -> None:
    """Write into ``parents`` the forest of height <= k that ``_within``
    found for the connected set ``mask``, under ``parent``."""
    if mask.bit_count() <= k:
        for v in bit_indices(mask):
            parents[v] = parent
            parent = v
        return
    k, root = passed[mask]
    parents[root] = parent
    for p in component_masks(g, mask & ~(1 << root)):
        _rebuild(g, p, k - 1, root, parents, passed)


def treedepth_bounds(g: Graph) -> tuple[int, int]:
    """Longest-path sandwich: ceil(log2 of path vertex count + 1) below,
    path vertex count above (graph order when the path is heuristic)."""
    if g.n == 0:
        return (0, 0)
    w = longest_path(g)
    lv = w.num_vertices
    le = w.length
    lower = max(
        1,
        math.ceil(math.log2(le)) if le >= 1 else 1,
        math.ceil(math.log2(lv + 1)),
    )
    upper = lv if w.exact else g.n
    return (lower, upper)


# -- pathwidth and treewidth ----------------------------------------------------


def _order_within(g: Graph, k: int, step) -> list[int] | None:
    """An order of V(G) whose every step costs at most k, or None.

    A depth-first search over the vertex sets S placed so far, from the
    empty set, adding one vertex v at a time while ``step(S, v) <= k``.
    Each set T = S | {v} is tried once.  What can follow T does not
    depend on how it was reached, and a step over k rules T out for
    every last vertex: for pathwidth the step is T's own separation, and
    for treewidth it is the number of neighbours of v's component C in
    G[T], which every order reaching T paid when it placed C's last
    vertex."""
    order: list[int] = []
    return order if _grow(0, (1 << g.n) - 1, k, step, set(), order) else None


def _grow(placed: int, full: int, k: int, step, seen: set[int], order: list[int]) -> bool:
    """``_order_within`` from the set ``placed``.  A module function, not
    a closure: a recursive closure is a reference cycle, which would keep
    ``seen`` (megabytes at 18 vertices) alive until the garbage collector
    runs."""
    if placed == full:
        return True
    todo = full & ~placed
    while todo:
        low = todo & -todo
        todo ^= low
        nxt = placed | low
        if nxt in seen:
            continue
        seen.add(nxt)
        v = low.bit_length() - 1
        if step(placed, v) > k:
            continue
        order.append(v)
        if _grow(nxt, full, k, step, seen, order):
            return True
        order.pop()
    return False


def _least_width(g: Graph, lower: int, upper: int, order: list[int], step) -> tuple[int, list[int]]:
    """The least k >= ``lower`` with an order of steps costing <= k, and
    that order; ``order`` is one of cost ``upper``, returned if no
    smaller k is feasible."""
    for k in range(lower, upper):
        found = _order_within(g, k, step)
        if found is not None:
            return k, found
    return upper, order


def _separation(g: Graph, placed: int) -> int:
    """Vertices of ``placed`` with a neighbour outside it."""
    adj = g.adj
    outside = ((1 << g.n) - 1) & ~placed
    count = 0
    while placed:
        low = placed & -placed
        if adj[low.bit_length() - 1] & outside:
            count += 1
        placed ^= low
    return count


def pathwidth_of_order(g: Graph, order: tuple[int, ...]) -> int:
    placed = 0
    worst = 0
    for v in order:
        placed |= 1 << v
        worst = max(worst, _separation(g, placed))
    return worst


def pathwidth_exact(g: Graph) -> WidthResult:
    if g.n > PW_LIMIT:
        raise SizeLimitError(f"pathwidth solver limited to {PW_LIMIT} vertices")
    lower, _ = _treewidth(g)
    order = _min_degree_elimination(g)[1][::-1]
    value, order = _least_width(
        g, lower, pathwidth_of_order(g, tuple(order)), order,
        lambda placed, v: _separation(g, placed | 1 << v),
    )
    return WidthResult("pw", value, tuple(order), True)


def _q_size(g: Graph, inside: int, v: int) -> int:
    """Vertices outside inside|{v} reachable from v through ``inside``."""
    adj = g.adj
    reach_in = 0
    out = adj[v] & ~inside & ~(1 << v)
    frontier = adj[v] & inside
    while frontier:
        reach_in |= frontier
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        out |= grow & ~inside & ~(1 << v)
        frontier = grow & inside & ~reach_in
    return out.bit_count()


def _treewidth(g: Graph) -> tuple[int, list[int]]:
    """Treewidth and an optimal elimination order (first eliminated first)."""
    upper, order = _min_degree_elimination(g)
    lower, _ = _min_degree_elimination(g, fill=False)
    return _least_width(g, lower, upper, order, lambda placed, v: _q_size(g, placed, v))


def treewidth_exact(g: Graph) -> WidthResult:
    if g.n > TW_LIMIT:
        raise SizeLimitError(f"treewidth solver limited to {TW_LIMIT} vertices")
    value, order = _treewidth(g)
    return WidthResult("tw", value, _decomposition_from_order(g, order), True)


def _decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Bags from simulated elimination with fill-in along ``order``."""
    n = g.n
    adj = list(g.adj)
    alive = (1 << n) - 1
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    attach: list[int | None] = []
    for v in order:
        alive &= ~(1 << v)
        nb = adj[v] & alive
        bags.append(frozenset([v] + list(bit_indices(nb))))
        nxt = None
        if nb:
            nxt = min(bit_indices(nb), key=lambda u: pos[u])
        attach.append(nxt)
        for u in bit_indices(nb):
            adj[u] |= nb & ~(1 << u)
    # A bag with no later neighbour ends a component; joining it to the
    # last bag makes the forest one tree without breaking any subtree.
    edges = [(i, n - 1 if nxt is None else pos[nxt]) for i, nxt in enumerate(attach[:-1])]
    return TreeDecomposition(tuple(bags), tuple(edges))


# -- certificate verification --------------------------------------------------


def _is_tree(nodes: int, edges) -> bool:
    """Whether ``edges`` form one tree on the nodes 0..nodes-1."""
    if len(edges) != max(nodes - 1, 0):
        return False
    root = list(range(nodes))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in edges:
        if not (0 <= a < nodes and 0 <= b < nodes):
            return False
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    # nodes - 1 edges and no cycle: the edges span one tree
    return True


def _ids(values) -> bool:
    """Whether ``values`` is a tuple of int ids (a bool or a float is none)."""
    return isinstance(values, tuple) and all(type(v) is int for v in values)


def verify_certificate(g: Graph, result: WidthResult) -> bool:
    if not result.exact or result.value is None:
        return False
    if result.parameter == "td":
        forest = result.certificate
        if not isinstance(forest, EliminationForest) or not _ids(forest.parents):
            return False
        if len(forest.parents) != g.n or any(not -1 <= p < g.n for p in forest.parents):
            return False
        # acyclic parent structure over exactly V(G)
        for v in range(g.n):
            seen = set()
            u = v
            while u != -1:
                if u in seen:
                    return False
                seen.add(u)
                u = forest.parents[u]
        for u, v in g.edges():
            if not (forest.is_ancestor(u, v) or forest.is_ancestor(v, u)):
                return False
        return forest.height == result.value
    if result.parameter == "pw":
        order = result.certificate
        if not _ids(order) or sorted(order) != list(range(g.n)):
            return False
        return pathwidth_of_order(g, tuple(order)) == result.value
    if result.parameter == "tw":
        dec = result.certificate
        if not (
            isinstance(dec, TreeDecomposition)
            and isinstance(dec.bags, tuple)
            and all(isinstance(b, frozenset) and _ids(tuple(b)) for b in dec.bags)
            and isinstance(dec.tree_edges, tuple)
            and all(_ids(e) and len(e) == 2 for e in dec.tree_edges)
        ):
            return False
        covered = set()
        for b in dec.bags:
            covered |= b
        if covered != set(range(g.n)) and g.n > 0:
            return False
        for u, v in g.edges():
            if not any(u in b and v in b for b in dec.bags):
                return False
        nb = len(dec.bags)
        if not _is_tree(nb, dec.tree_edges):
            return False
        # bags containing each vertex form a connected subtree
        tree: list[set[int]] = [set() for _ in range(nb)]
        for a, b in dec.tree_edges:
            tree[a].add(b)
            tree[b].add(a)
        for v in range(g.n):
            holding = [i for i in range(nb) if v in dec.bags[i]]
            if not holding:
                return False
            seen = {holding[0]}
            stack = [holding[0]]
            hold = set(holding)
            while stack:
                x = stack.pop()
                for y in tree[x]:
                    if y in hold and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen != hold:
                return False
        return dec.width == result.value
    return False
