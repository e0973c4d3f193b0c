"""Small-graph census: enumerate connected graphs up to isomorphism,
filter by diameter and forbidden-pattern freeness, record extremal widths.

Enumeration is vertex augmentation: every connected graph on n vertices
arises from a connected graph on n-1 by adding one vertex with a nonempty
neighbourhood (every connected graph has a non-cut vertex), deduplicated
by canonical code.  The augmentation is orbit-pruned (McKay,
*Isomorph-free exhaustive generation*, J. Algorithms 1998): neighbourhoods
in one orbit of the parent's automorphisms give isomorphic graphs, so
only the least neighbourhood mask of each orbit is tried, under the
automorphisms ``canonical_code`` found for the parent.  The first graph
seen in each class is always built from such a least mask, so the levels
and their representatives are those of the unpruned enumeration.  The
unfiltered counts 1, 1, 2, 6, 21, 112 for n = 1..6 anchor correctness.

Most children are duplicates, and a cheap test rejects many of them
before they get a ``Graph`` or a canonical form (McKay's canonical
deletion, in a form that keeps these representatives).  The first child
seen in a class X comes from the earliest parent in level order, and
level order is canonical-code order, whose codes begin with the
fixed-length prefix (n, m, sorted degrees).  So that parent has the
least prefix among the graphs X - v over the non-cut vertices v of X.
In a child C with new vertex w, key(v) = (-deg v, sorted degrees of
C - v) orders the prefixes of the C - v; if some non-cut vertex v has
key(v) < key(w), an earlier parent ≅ C - v also yields X, so C is not
the first child seen in X and is dropped.  Degrees are compared first,
and connectivity is checked only for vertices that beat w.  Most
rejections are read off the parent before the child is built: if a
non-cut vertex v of the parent has deg v + [v in N] > |N| for the new
neighbourhood N != {v}, then v is non-cut in the child (N - {v} joins w
to the parent - v) and its degree beats w's.  Every child
that passes is deduplicated by canonical code as before, so the levels,
their order and their representatives are unchanged.  With a hereditary
``keep``, a kept X has every connected X - v kept, so the earlier parent
is on the pruned level too.  ``keep`` is asked of each such child before
its canonical form.  It is a property of the graph, so it cannot split
an isomorphism class: a class is dropped whole, and the first child seen
in a kept class is the same.  Only kept children pay for a canonical
form.

A census grows only F-free graphs.  Freeness under subgraph, induced
subgraph or minor is hereditary, so every parent G - v of an F-free
child is F-free: enumerating with freeness as the ``keep`` predicate
gives exactly the filtered levels, with the same representatives, from
a fraction of the canonical-form calls.  Since only kept graphs grow,
the parent G - w of every child asked is F-free, so the child is
F-free iff no copy of F contains w: the census searches only copies
through w (``containment.through_vertex``), and runs the full test only
for minors other than cycles and linear forests.  Within a level, the exact
width solver runs only on graphs whose width upper bound (the greedy
min-degree elimination bound of ``width`` for tw and pw, the order for
td) exceeds the running maximum; the witness is the first graph with a
strictly larger width, so skipping the others changes no row.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .canon import canonical_code
from .containment import ABSENT, has_induced_subgraph, has_minor, has_subgraph, through_vertex
from .formats import to_graph6
from .graphs import INFINITE, Graph, component_masks, diameter, graph_from_edges
from .width import _width_upper_bound, pathwidth_exact, treedepth_exact, treewidth_exact

CENSUS_LIMIT = 9


def _orbit_minimal_masks(k: int, generators: list[tuple[int, ...]]) -> list[int]:
    """The least mask of each orbit of the group generated by
    ``generators`` acting on the nonempty subsets of range(k), ascending."""
    if not generators:
        return list(range(1, 1 << k))
    images = []
    for gamma in generators:
        image = [0] * (1 << k)
        for mask in range(1, 1 << k):
            low = mask & -mask
            image[mask] = image[mask ^ low] | (1 << gamma[low.bit_length() - 1])
        images.append(image)
    done = bytearray(1 << k)
    minimal = []
    for mask in range(1, 1 << k):
        if done[mask]:
            continue
        minimal.append(mask)
        done[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not done[y]:
                    done[y] = 1
                    stack.append(y)
    return minimal


def _deletion_key(adj: Sequence[int], degrees: Sequence[int], v: int) -> tuple[int, list[int]]:
    """(-deg v, sorted degrees of G - v) for the graph with these
    neighbourhood masks and degrees.  Its order on the vertices of G is
    the order of the (n, m, sorted degrees) prefixes of canonical_code(G - v)."""
    rest = list(degrees)
    nbrs = adj[v]
    while nbrs:
        low = nbrs & -nbrs
        rest[low.bit_length() - 1] -= 1
        nbrs ^= low
    del rest[v]
    rest.sort()
    return -degrees[v], rest


def _last_may_be_first(adj: Sequence[int]) -> bool:
    """False if some non-cut vertex v has a smaller deletion key than the
    last vertex w: then the graph, built from G - w, is not the first
    child seen in its class (module docstring)."""
    degrees = [a.bit_count() for a in adj]
    w = len(adj) - 1
    key_w = None
    for v in range(w):
        if degrees[v] < degrees[w]:
            continue
        if degrees[v] == degrees[w]:
            if key_w is None:
                key_w = _deletion_key(adj, degrees, w)
            if _deletion_key(adj, degrees, v) >= key_w:
                continue
        # v beats w: is G - v connected?
        todo = ((1 << len(adj)) - 1) ^ (1 << v)
        comp = frontier = 1 << w
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & todo & ~comp
            comp |= frontier
        if comp == todo:
            return False
    return True


def _beaten(parent: Graph) -> Callable[[int], bool]:
    """A test of the new neighbourhoods N whose child ``_last_may_be_first``
    rejects on degrees, read off the parent (module docstring)."""
    full = (1 << parent.n) - 1
    noncut = [(1 << v, d) for v, d in enumerate(parent.degrees)
              if len(component_masks(parent, full ^ 1 << v)) == 1]
    top = max((d for _, d in noncut), default=-1)

    def test(nbhd: int) -> bool:
        size = nbhd.bit_count()
        return size <= top and any(
            d + (nbhd & bit > 0) > size and nbhd != bit for bit, d in noncut)

    return test


def enumerate_connected_graphs(
    n_max: int, keep: Callable[[Graph], bool] | None = None
) -> list[list[Graph]]:
    """levels[n] = connected graphs on n vertices up to isomorphism,
    in canonical-code order (levels[0] is empty).  ``keep``, if given,
    must be invariant under isomorphism and hereditary (true of G
    implies true of every connected induced subgraph of G); the levels
    are then those of the unpruned enumeration filtered by it, with the
    same representatives, and only the graphs it accepts grow the next
    level."""
    if type(n_max) is not int:  # a bool or a float is no order here
        raise ValueError("n_max must be an integer")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > CENSUS_LIMIT:
        raise ValueError(f"census enumeration limited to {CENSUS_LIMIT} vertices")
    k1 = graph_from_edges(1, [])
    levels: list[list[Graph]] = [[], [k1] if keep is None or keep(k1) else []]
    generators: list[list[tuple[int, ...]]] = [[] for _ in levels[1]]  # per graph of the last level
    for n in range(2, n_max + 1):
        seen: dict[bytes, tuple[Graph, list[tuple[int, ...]]]] = {}
        for base, gens in zip(levels[n - 1], generators):
            beaten = _beaten(base)
            for nbhd in _orbit_minimal_masks(n - 1, gens):
                if beaten(nbhd):
                    continue
                adj = [a | ((nbhd >> v) & 1) << (n - 1) for v, a in enumerate(base.adj)]
                adj.append(nbhd)
                if not _last_may_be_first(adj):
                    continue
                g = Graph(n, tuple(adj))
                if keep is not None and not keep(g):
                    continue
                auts: list[tuple[int, ...]] = []
                code = canonical_code(g, automorphisms=auts)
                if code not in seen:
                    seen[code] = (g, auts)
        codes = sorted(seen)
        levels.append([seen[c][0] for c in codes])
        generators = [seen[c][1] for c in codes]
    return levels


@dataclass(frozen=True)
class CensusRow:
    n: int
    count: int
    max_width: int | None
    witness_graph6: str | None


_CHECKERS = {
    "subgraph": has_subgraph,
    "induced": has_induced_subgraph,
    "minor": has_minor,
}

_SOLVERS = {
    "td": treedepth_exact,
    "pw": pathwidth_exact,
    "tw": treewidth_exact,
}


def is_pattern_free(g: Graph, forbidden: Graph, relation: str) -> bool:
    return _CHECKERS[relation](g, forbidden, None) is ABSENT


def _free_keep(forbidden: Graph, relation: str, n_max: int) -> Callable[[Graph], bool]:
    """Freeness as the census's ``keep``, asked only of children whose
    parent G - w (w the last vertex) is free: those of kept graphs."""
    if forbidden.n == 0:
        return lambda g: False  # every graph contains the empty graph
    if forbidden.n > n_max:
        return lambda g: True  # no host has room for it
    through = through_vertex(forbidden, relation)
    if through is None:
        return lambda g: is_pattern_free(g, forbidden, relation)
    return lambda g: not through(g, g.n - 1)


def census(
    n_max: int,
    forbidden: Graph,
    relation: str,
    d: int | float,
    parameter: str,
) -> list[CensusRow]:
    """One row per order n <= n_max over connected graphs of diameter <= d
    that avoid ``forbidden`` under ``relation``: count, max exact width,
    and a graph6 witness attaining it (the first graph of the level, in
    canonical-code order, with that width)."""
    if relation not in _CHECKERS:
        raise ValueError(f"unknown relation {relation!r}")
    if parameter not in _SOLVERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    if not (d == INFINITE or (type(d) is int and d >= 1)):
        raise ValueError("d must be an integer >= 1 or infinity")
    solver = _SOLVERS[parameter]
    rows = []
    levels = enumerate_connected_graphs(n_max, _free_keep(forbidden, relation, n_max))
    for n in range(1, n_max + 1):
        count = 0
        best: int | None = None
        witness: Graph | None = None
        for g in levels[n]:
            if d != INFINITE and diameter(g) > d:  # level graphs are connected
                continue
            count += 1
            if best is not None and _width_upper_bound(g, parameter) <= best:
                continue
            value = solver(g).value
            if best is None or value > best:
                best = value
                witness = g
        rows.append(
            CensusRow(n, count, best, to_graph6(witness) if witness else None)
        )
    return rows


def census_to_csv(rows: list[CensusRow]) -> str:
    lines = ["n,count,max_width,witness_graph6"]
    for r in rows:
        lines.append(
            f"{r.n},{r.count},"
            f"{'' if r.max_width is None else r.max_width},"
            f"{r.witness_graph6 or ''}"
        )
    return "\n".join(lines) + "\n"
