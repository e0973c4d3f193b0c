"""Immutable simple-graph value type and the elementary operations on it.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as one Python
int bitmask per vertex, which keeps the exhaustive searches used throughout
the package fast without third-party dependencies.  Graph values never
mutate; every operation returns a new value.

Vertices may carry short text labels ("apex", "p:3", "Z:x:0,1", ...).
Constructions use them to make gadget roles addressable; labels never
influence adjacency-level semantics such as isomorphism or containment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

INFINITE = math.inf


# -- the budget contract -------------------------------------------------------
#
# Every budgeted decision search returns its witness, ``ABSENT`` only after
# an exhaustive search, or ``BUDGET`` when its node budget ran out first.  A
# run-out budget is never coerced to absence or to a verdict.  One ``Budget``
# bounds one call, whatever searches it runs, and ``budgeted`` is the one
# rule for who converts running out (``BudgetExhausted``) into ``BUDGET``.


class _Marker:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


ABSENT = _Marker("ABSENT")
BUDGET = _Marker("BUDGET")

DEFAULT_BUDGET = 2_000_000


class BudgetExhausted(Exception):
    """The node budget of the running search is spent."""


@dataclass(slots=True)
class Budget:
    """Search nodes spent so far against a limit (``None``: unlimited)."""

    limit: int | None = DEFAULT_BUDGET
    spent: int = 0

    def spend(self, k: int = 1) -> None:
        """Pay for ``k`` nodes; raises BudgetExhausted past the limit."""
        self.spent += k
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExhausted


def budgeted(search, *args):
    """``search(*args)``, whose last argument is a budget.  A caller's Budget
    is spent from, and BudgetExhausted reaches the call that created it; an
    ``int`` or ``None`` becomes a new Budget, and running out returns BUDGET."""
    if isinstance(args[-1], Budget):
        return search(*args)
    try:
        return search(*args[:-1], Budget(args[-1]))
    except BudgetExhausted:
        return BUDGET


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertex ids ``0..n-1``.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.  Invariants
    (checked on construction): no self-loops, symmetric adjacency, all
    bits below ``n``.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} adjacent to out-of-range id")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, mask in enumerate(self.adj):
            rest = mask
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                rest ^= low
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge {v}->{u}")
        for v, _lab in self.labels:
            if not 0 <= v < self.n:
                raise ValueError(f"label on out-of-range vertex {v}")

    # -- basic accessors -------------------------------------------------

    @cached_property
    def m(self) -> int:
        """Number of edges."""
        return sum(mask.bit_count() for mask in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            rest = self.adj[v] >> (v + 1)
            base = v + 1
            while rest:
                low = rest & -rest
                yield v, base + low.bit_length() - 1
                rest ^= low

    def find_label(self, text: str) -> int:
        """Return the id carrying label ``text`` (it must be unique)."""
        hits = [v for v, lab in self.labels if lab == text]
        if len(hits) != 1:
            raise KeyError(f"label {text!r} found {len(hits)} times")
        return hits[0]

    def with_labels(self, labels: Mapping[int, str]) -> "Graph":
        return Graph(self.n, self.adj, tuple(sorted(labels.items())))

    def __repr__(self) -> str:  # keep test failures readable
        return f"Graph(n={self.n}, m={self.m})"


def graph_from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Mapping[int, str] | None = None,
) -> Graph:
    """Build a Graph from an edge list; duplicate edges are merged."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    lab = tuple(sorted(labels.items())) if labels else ()
    return Graph(n, tuple(adj), lab)


def edgeless_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


# -- connectivity and distances -----------------------------------------


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Vertex-set bitmasks of the connected components (of ``within``)."""
    todo = within if within is not None else (1 << g.n) - 1
    adj = g.adj
    comps = []
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & todo & ~comp
            comp |= frontier
        comps.append(comp)
        todo &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return len(component_masks(g)) == 1


def distances_from(g: Graph, source: int) -> list[int | float]:
    """Hop distances from ``source``; unreachable vertices get INFINITE."""
    dist: list[int | float] = [INFINITE] * g.n
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier:
        for v in bit_indices(frontier):
            dist[v] = d
        grow = 0
        for v in bit_indices(frontier):
            grow |= g.adj[v]
        frontier = grow & ~seen
        seen |= frontier
        d += 1
    return dist


def diameter(g: Graph) -> int | float:
    """Max pairwise distance; INFINITE when disconnected; error on empty."""
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    if g.n == 1:
        return 0
    best: int | float = 0
    for v in range(g.n):
        ecc = max(distances_from(g, v))
        if ecc == INFINITE:
            return INFINITE
        if ecc > best:
            best = ecc
    return best


# -- composition operations ----------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [mask << g.n for mask in h.adj]
    labels = dict(g.labels)
    labels.update({v + g.n: lab for v, lab in h.labels})
    return Graph(g.n + h.n, tuple(adj), tuple(sorted(labels.items())))


def subdivide(g: Graph, k: int) -> Graph:
    """Replace every edge by a path with ``k`` internal vertices.

    Original ids (and labels) are preserved; internal vertices are appended
    in sorted-edge order and labelled ``sub:u-v:t``.
    """
    if k < 0:
        raise ValueError("subdivision count must be >= 0")
    if k == 0:
        return g
    edges = list(g.edges())
    n = g.n + k * len(edges)
    out = []
    labels = dict(g.labels)
    nxt = g.n
    for u, v in edges:
        chain = [u] + list(range(nxt, nxt + k)) + [v]
        for t, w in enumerate(chain[1:-1]):
            labels[w] = f"sub:{u}-{v}:{t}"
        for a, b in zip(chain, chain[1:]):
            out.append((a, b))
        nxt += k
    return graph_from_edges(n, out, labels)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``vertices`` (relabelled densely).

    Returns the new graph and the list mapping new ids to old ids.
    """
    keep = sorted(set(vertices))
    index = {old: new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u in keep
        for v in bit_indices(g.adj[u])
        if v in index and u < v
    ]
    labels = {index[v]: lab for v, lab in g.labels if v in index}
    return graph_from_edges(len(keep), edges, labels), keep


def delete_vertex(g: Graph, v: int) -> Graph:
    return induced_subgraph(g, [u for u in range(g.n) if u != v])[0]


def are_vertex_ids(g: Graph, values) -> bool:
    """Whether ``values`` is a tuple of ints in 0..n-1: vertex ids of g, not
    a bool, a float or a negative index from the end."""
    return isinstance(values, tuple) and all(type(v) is int and 0 <= v < g.n for v in values)


# -- structural predicates -----------------------------------------------


def bipartition(g: Graph) -> tuple[int, int] | None:
    """(mask0, mask1) of a proper 2-colouring, or None if non-bipartite.

    Colour 0 is the class containing the smallest vertex of each component.
    """
    color = [-1] * g.n
    m0 = m1 = 0
    for comp in component_masks(g):
        seed = (comp & -comp).bit_length() - 1
        color[seed] = 0
        frontier = [seed]
        while frontier:
            nxt = []
            for v in frontier:
                for u in bit_indices(g.adj[v]):
                    if color[u] == -1:
                        color[u] = 1 - color[v]
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return None
            frontier = nxt
    for v, c in enumerate(color):
        if c == 0:
            m0 |= 1 << v
        elif c == 1:
            m1 |= 1 << v
    return m0, m1


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def cyclomatic_number(g: Graph, within: int | None = None) -> int:
    """Number of independent cycles of g (induced on the vertex mask
    ``within``): edges - vertices + components."""
    mask = (1 << g.n) - 1 if within is None else within
    edges = sum((g.adj[v] & mask).bit_count() for v in bit_indices(mask)) // 2
    return edges - mask.bit_count() + len(component_masks(g, mask))


def is_forest(g: Graph, within: int | None = None) -> bool:
    """True iff g (induced on ``within``) has no cycle."""
    return cyclomatic_number(g, within) == 0


def is_linear_forest(g: Graph, within: int | None = None) -> bool:
    """True iff g (induced on ``within``) is acyclic with every degree at
    most 2, i.e. every component is a path."""
    mask = (1 << g.n) - 1 if within is None else within
    return (
        all((g.adj[v] & mask).bit_count() <= 2 for v in bit_indices(mask))
        and is_forest(g, within)
    )


def is_path_graph(g: Graph, within: int | None = None) -> bool:
    """True iff g (induced on ``within``) is a (possibly single-vertex)
    path: a connected, nonempty linear forest."""
    return len(component_masks(g, within)) == 1 and is_linear_forest(g, within)


def cycle_order(g: Graph) -> list[int] | None:
    """g's vertices in cyclic order if g is one cycle on >= 3 vertices,
    else None."""
    if g.n < 3 or any(d != 2 for d in g.degrees):
        return None
    walk, seen = [0], 1
    while nxt := g.adj[walk[-1]] & ~seen:
        low = nxt & -nxt
        walk.append(low.bit_length() - 1)
        seen |= low
    # a 2-regular graph is one cycle iff the walk from 0 covers it
    return walk if len(walk) == g.n else None
