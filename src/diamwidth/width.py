"""Exact desk-scale solvers for treedepth, pathwidth and treewidth.

Height convention: counted in vertices, so td(K_1) = 1 and td(K_n) = n;
td of the empty graph is 0 (recursion base).  Every exact result carries a
verifiable certificate: an elimination forest for treedepth, an optimal
vertex ordering for pathwidth (vertex separation view), and a tree
decomposition for treewidth.  Above the size limits the treedepth entry
point degrades to (lower, upper) bounds from the longest path, never to a
silent heuristic value.

* treedepth: memoized recursion over connected vertex subsets,
  td(G) = 1 + min_v td(G - v) on connected G, max over components
  otherwise.
* pathwidth: subset DP over vertex orderings; the cost of a prefix S is
  the number of its vertices with a neighbour outside S.
* treewidth: subset DP over elimination orderings; eliminating v last
  within S costs the number of vertices outside S u {v} reachable from v
  through S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, bit_indices, component_masks
from .paths import PathWitness, longest_path

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


# -- treedepth ---------------------------------------------------------------


def treedepth_exact(g: Graph) -> WidthResult:
    if g.n > TD_LIMIT:
        lo, hi = treedepth_bounds(g)
        return WidthResult("td", None, None, False, (lo, hi))
    memo: dict[int, tuple[int, int]] = {}  # mask -> (td, root)
    adj = g.adj

    def solve(mask: int) -> int:
        k = mask.bit_count()
        if k <= 1:
            return k
        if k == 2:
            return 2  # connected two-vertex set
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        best = k
        best_root = (mask & -mask).bit_length() - 1
        for v in bit_indices(mask):
            rest = mask & ~(1 << v)
            parts = component_masks(g, rest)
            sub = max(solve(p) for p in parts)
            if 1 + sub < best:
                best = 1 + sub
                best_root = v
                if best == 2:
                    break  # a connected set with >= 2 vertices never beats 2
        memo[mask] = (best, best_root)
        return best

    def rebuild(mask: int, parent: int, parents: list[int]) -> None:
        for comp in component_masks(g, mask):
            k = comp.bit_count()
            if k == 1:
                v = comp.bit_length() - 1
                parents[v] = parent
                continue
            if k == 2:
                a = comp & -comp
                v = a.bit_length() - 1
                u = (comp ^ a).bit_length() - 1
                parents[v] = parent
                parents[u] = v
                continue
            entry = memo.get(comp)
            if entry is None:
                solve(comp)
                entry = memo[comp]
            rv = entry[1]
            parents[rv] = parent
            rebuild(comp & ~(1 << rv), rv, parents)

    full = (1 << g.n) - 1
    if g.n == 0:
        return WidthResult("td", 0, EliminationForest(()), True)
    value = max(solve(c) for c in component_masks(g, full))
    parents = [-1] * g.n
    rebuild(full, -1, parents)
    forest = EliminationForest(tuple(parents))
    return WidthResult("td", value, forest, True)


def treedepth_bounds(g: Graph, witness: PathWitness | None = None) -> tuple[int, int]:
    """Longest-path sandwich: ceil(log2 of path vertex count + 1) below,
    path vertex count above (graph order when the path is heuristic)."""
    if g.n == 0:
        return (0, 0)
    w = witness or longest_path(g)
    lv = w.num_vertices
    le = w.length
    lower = max(
        1,
        math.ceil(math.log2(le)) if le >= 1 else 1,
        math.ceil(math.log2(lv + 1)),
    )
    upper = lv if w.exact else g.n
    return (lower, upper)


# -- pathwidth ----------------------------------------------------------------


def pathwidth_exact(g: Graph) -> WidthResult:
    if g.n > PW_LIMIT:
        raise SizeLimitError(f"pathwidth solver limited to {PW_LIMIT} vertices")
    n = g.n
    if n == 0:
        return WidthResult("pw", 0, (), True)
    full = (1 << n) - 1
    INF = n + 1
    f = [INF] * (full + 1)
    choice = [-1] * (full + 1)
    f[0] = 0
    # subsets in increasing numeric order: f[mask ^ low] is always ready
    adj = g.adj
    for mask in range(1, full + 1):
        outside = full & ~mask
        delta = 0
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            if adj[low.bit_length() - 1] & outside:
                delta += 1
        best = INF
        bv = -1
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            prev = f[mask ^ low]
            cost = prev if prev > delta else delta
            if cost < best:
                best = cost
                bv = low.bit_length() - 1
        f[mask] = best
        choice[mask] = bv
    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return WidthResult("pw", f[full], tuple(order), True)


def pathwidth_of_order(g: Graph, order: tuple[int, ...]) -> int:
    placed = 0
    full = (1 << g.n) - 1
    worst = 0
    for v in order:
        placed |= 1 << v
        outside = full & ~placed
        cost = sum(1 for u in bit_indices(placed) if g.adj[u] & outside)
        worst = max(worst, cost)
    return worst


# -- treewidth ----------------------------------------------------------------


def _q_size(g: Graph, inside: int, v: int) -> int:
    """Vertices outside inside|{v} reachable from v through ``inside``."""
    reach_in = 0
    out = g.adj[v] & ~inside & ~(1 << v)
    frontier = g.adj[v] & inside
    while frontier:
        reach_in |= frontier
        grow = 0
        for u in bit_indices(frontier):
            grow |= g.adj[u]
        out |= grow & ~inside & ~(1 << v)
        frontier = grow & inside & ~reach_in
    return out.bit_count()


def treewidth_exact(g: Graph) -> WidthResult:
    if g.n > TW_LIMIT:
        raise SizeLimitError(f"treewidth solver limited to {TW_LIMIT} vertices")
    n = g.n
    if n == 0:
        return WidthResult("tw", 0, TreeDecomposition((), ()), True)
    full = (1 << n) - 1
    INF = n + 1
    f = [INF] * (full + 1)
    choice = [-1] * (full + 1)
    f[0] = 0
    for mask in range(1, full + 1):
        best = INF
        bv = -1
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            rest = mask ^ low
            q = _q_size(g, rest, v)
            prev = f[rest]
            cost = prev if prev > q else q
            if cost < best:
                best = cost
                bv = v
        f[mask] = best
        choice[mask] = bv
    # elimination order: choice[full] eliminated last
    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()  # order[0] eliminated first
    decomposition = _decomposition_from_order(g, order)
    return WidthResult("tw", f[full], decomposition, True)


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


def verify_certificate(g: Graph, result: WidthResult) -> bool:
    if not result.exact or result.value is None:
        return False
    if result.parameter == "td":
        forest = result.certificate
        if not isinstance(forest, EliminationForest) or len(forest.parents) != g.n:
            return False
        if any(not -1 <= p < g.n for p in forest.parents):
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
        if sorted(order) != list(range(g.n)):
            return False
        return pathwidth_of_order(g, tuple(order)) == result.value
    if result.parameter == "tw":
        dec = result.certificate
        if not isinstance(dec, TreeDecomposition):
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
