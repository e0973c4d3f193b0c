"""Canonical forms for small graphs.

``canonical_code`` returns a byte string equal for two graphs iff they are
isomorphic.  The form is the lexicographically smallest upper-triangle
adjacency encoding over the orderings produced by iterated degree
refinement with individualization, prefixed by (n, m, degree histogram) so
that inequivalent graphs usually differ in the first bytes.  Deterministic
across runs and platforms.  ``census`` relies on that fixed-length
(n, m, sorted degrees) prefix: it predicts the order of two codes from
it without computing them.

Refinement works in rounds.  A round splits each cell by its vertices'
counts into the cells of the partition, in ascending order of the count
vectors, and refinement stops at the first round that splits nothing.
Only the cells the last round created (the splitters) are counted into:
after a round, all vertices of a cell have equal counts into every cell
of the previous partition, so only counts into its new sub-cells can
differ.  The last sub-cell of each split cell is dropped too, since the
counts into its siblings fix it.  Sub-cells are contiguous, so two such
shorter vectors, in partition order, first differ where the full vectors
do: the cells and their order are those of the full rounds.  After
individualizing v the one splitter is {v}; at the root, the degree
classes split the unit partition, so all but the last are splitters.

The search prunes by automorphisms found on the way (McKay & Piperno,
*Practical graph isomorphism II*, JSC 2014).  A leaf whose code equals
the first leaf's or the best leaf's gives an automorphism; the search
then returns to the deepest node the two leaves share, and at every node
it skips a child lying in the orbit of an explored child under the
automorphisms found so far that fix the node's individualized vertices.
It also skips a child that is a twin of an explored child: twins have
equal open or equal closed neighbourhoods, and swapping two twins is an
automorphism that fixes every other vertex.  These transpositions are
returned with the automorphisms found.  Skipped subtrees are images of
explored ones, so the minimum code is the one the full search finds,
while K_n and edgeless graphs need one leaf and K_{n,n} two.
"""

from __future__ import annotations

from .graphs import Graph

CANON_LIMIT = 16


class CanonicalLimitError(ValueError):
    pass


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` (vertex masks) until it is
    equitable.  ``splitters`` are the cells the last split created, in
    partition order, less the last part of each split cell: the only
    cells into which counts can differ within a cell (module docstring).

    A round splits each cell by its vertices' counts into the splitters,
    ascending.  The counts are summed in binary over bit planes, most
    significant first, so the round splits by one mask at a time, the
    vertices with that bit clear first.  The parts of each split cell
    but its last are the next round's splitters."""
    while splitters:
        planes: list[int] = []
        for s in splitters:
            counts: list[int] = []  # counts[i]: the vertices whose count has bit i set
            while s:
                low = s & -s
                s ^= low
                m = adj[low.bit_length() - 1]
                i = 0
                while m:
                    if i == len(counts):
                        counts.append(m)
                        break
                    carry = counts[i] & m
                    counts[i] ^= m
                    m = carry
                    i += 1
            planes += reversed(counts)
        out: list[int] = []
        splitters = []
        for cell in cells:
            parts = [cell]
            if cell & (cell - 1):
                for m in planes:
                    one = cell & m
                    if one and one != cell:  # else no part of the cell splits
                        split = []
                        for p in parts:
                            one = p & m
                            if one and one != p:
                                split += (p ^ one, one)
                            else:
                                split.append(p)
                        parts = split
                splitters += parts[:-1]
            out += parts
        cells = out
    return cells


def _code_for_order(adj: tuple[int, ...], order: list[int]) -> bytes:
    """The upper triangle of the adjacency matrix under ``order``, row by
    row, packed most significant bit first and zero-padded to bytes."""
    acc = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for u in order[:j]:
            acc = (acc << 1) | ((row >> u) & 1)
    bits = len(order) * (len(order) - 1) // 2
    pad = -bits % 8
    return (acc << pad).to_bytes((bits + pad) // 8, "big")


def _root(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = orbit[orbit[v]]
        v = orbit[v]
    return v


def _twins(adj: tuple[int, ...]) -> list[int]:
    """twin[v]: the least vertex with v's open or v's closed neighbourhood.
    A vertex with an open twin has no closed twin, so these classes
    partition the vertices."""
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    twin = []
    for v, a in enumerate(adj):
        t = by_open.setdefault(a, v)
        if t == v:
            t = by_closed.setdefault(a | 1 << v, v)
        twin.append(t)
    return twin


class _Search:
    """One search tree.  A class, not recursive closures: those would be
    a reference cycle, kept with its codes until the garbage collector
    runs."""

    def __init__(self, adj: tuple[int, ...], twin: list[int]) -> None:
        self.adj = adj
        self.twin = twin
        self.path: list[int] = []  # vertices individualized on the way to the current node
        self.found: list[tuple[int, ...]] = []
        # (code, order, path) of the first leaf and of the best leaf so far
        self.first: tuple[bytes, list[int], list[int]] | None = None
        self.best: tuple[bytes, list[int], list[int]] | None = None

    def leaf(self, order: list[int]) -> int:
        path = self.path
        code = _code_for_order(self.adj, order)
        if self.first is None:
            self.first = self.best = (code, order, path[:])
            return len(path)
        for ref_code, ref_order, ref_path in (self.first, self.best):
            if code == ref_code:
                gamma = [0] * len(order)
                for a, b in zip(order, ref_order):
                    gamma[a] = b
                self.found.append(tuple(gamma))
                # gamma fixes the shared prefix and maps this leaf's branch
                # at the deepest shared node onto the reference leaf's
                # branch, which is already explored: resume there.
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                return common
        if code < self.best[0]:
            self.best = (code, order, path[:])
        return len(path)

    def search(self, cells: list[int], splitters: list[int]) -> int:
        """Explore the node whose individualized vertices are ``path``;
        return the depth (length of ``path``) of the node at which the
        search resumes."""
        adj = self.adj
        n = len(adj)
        cells = _refine(adj, cells, splitters)
        if len(cells) == n:
            return self.leaf([cell.bit_length() - 1 for cell in cells])
        target = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1 :]
        path, found, twin = self.path, self.found, self.twin
        # union-find over the orbits of the automorphisms found so far that
        # fix ``path`` pointwise, built on first use
        orbit: list[int] = []
        used = 0  # automorphisms already merged into ``orbit``
        explored: list[int] = []
        twins_explored = 0  # mask of the twin classes of ``explored``
        depth = len(path)
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if twins_explored >> twin[v] & 1:
                continue
            if explored and found:
                if not orbit:
                    orbit = list(range(n))
                for gamma in found[used:]:
                    if all(gamma[p] == p for p in path):
                        for a, b in enumerate(gamma):
                            ra, rb = _root(orbit, a), _root(orbit, b)
                            if ra != rb:
                                orbit[max(ra, rb)] = min(ra, rb)
                used = len(found)
                rv = _root(orbit, v)
                if any(_root(orbit, u) == rv for u in explored):
                    continue
            path.append(v)
            back = self.search(head + [low, cell ^ low] + tail, [low])
            path.pop()
            explored.append(v)
            twins_explored |= 1 << twin[v]
            if back < depth:
                return back
        return depth


def canonical_code(
    g: Graph, *, automorphisms: list[tuple[int, ...]] | None = None
) -> bytes:
    """The canonical code of ``g``.  If ``automorphisms`` is a list, the
    automorphisms found by the search are appended to it, each as a tuple
    ``gamma`` with ``gamma[v]`` the image of vertex v; they generate a
    subgroup of Aut(g), often all of it."""
    if g.n > CANON_LIMIT:
        raise CanonicalLimitError(
            f"canonical form limited to {CANON_LIMIT} vertices, got {g.n}"
        )
    degs = sorted(g.degrees)
    prefix = bytes([g.n]) + g.m.to_bytes(2, "big") + bytes(degs)
    if g.n <= 1:
        return prefix
    # Initial partition: degree classes, ascending.  They split the unit
    # partition, so every class but the last is a splitter.
    by_deg: dict[int, int] = {}
    for v, d in enumerate(g.degrees):
        by_deg[d] = by_deg.get(d, 0) | 1 << v
    start = [by_deg[d] for d in sorted(by_deg)]
    twin = _twins(g.adj)
    run = _Search(g.adj, twin)
    run.search(start, start[:-1])
    assert run.best is not None
    if automorphisms is not None:
        automorphisms.extend(run.found)
        for v, t in enumerate(twin):
            if t != v:
                gamma = list(range(g.n))
                gamma[v], gamma[t] = t, v
                automorphisms.append(tuple(gamma))
    return prefix + run.best[0]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or sorted(g.degrees) != sorted(h.degrees):
        return False
    return canonical_code(g) == canonical_code(h)
