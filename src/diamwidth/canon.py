"""Canonical forms for small graphs.

``canonical_code`` returns a byte string equal for two graphs iff they are
isomorphic.  The form is the lexicographically smallest upper-triangle
adjacency encoding over the orderings produced by iterated degree
refinement with individualization, prefixed by (n, m, degree histogram) so
that inequivalent graphs usually differ in the first bytes.  Deterministic
across runs and platforms.  ``census`` relies on that fixed-length
(n, m, sorted degrees) prefix: it predicts the order of two codes from
it without computing them.

The search prunes by automorphisms found on the way (McKay & Piperno,
*Practical graph isomorphism II*, JSC 2014).  A leaf whose code equals
the first leaf's or the best leaf's gives an automorphism; the search
then returns to the deepest node the two leaves share, and at every node
it skips a child lying in the orbit of an explored child under the
automorphisms found so far that fix the node's individualized vertices.
Skipped subtrees are images of explored ones, so the minimum code is the
one the full search finds, while K_n, edgeless graphs and K_{n,n} need
about n leaves instead of n!.
"""

from __future__ import annotations

from .graphs import Graph

CANON_LIMIT = 16


class CanonicalLimitError(ValueError):
    pass


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Stable iterated refinement by neighbour counts per cell."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
            for v in cell:
                key = tuple(map(int.bit_count, map(adj[v].__and__, masks)))
                sig.setdefault(key, []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    new_cells.append(sig[key])
        cells = new_cells
        if not changed:
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
    adj = g.adj
    n = g.n
    # Initial partition: degree classes, ascending.
    by_deg: dict[int, list[int]] = {}
    for v in range(n):
        by_deg.setdefault(g.degree(v), []).append(v)
    start = [by_deg[d] for d in sorted(by_deg)]
    path: list[int] = []  # vertices individualized on the way to the current node
    found: list[tuple[int, ...]] = []
    # (code, order, path) of the first leaf and of the best leaf so far
    first: tuple[bytes, list[int], list[int]] | None = None
    best: tuple[bytes, list[int], list[int]] | None = None

    def leaf(order: list[int]) -> int:
        nonlocal first, best
        code = _code_for_order(adj, order)
        if first is None:
            first = best = (code, order, path[:])
            return len(path)
        for ref_code, ref_order, ref_path in (first, best):
            if code == ref_code:
                gamma = [0] * n
                for a, b in zip(order, ref_order):
                    gamma[a] = b
                found.append(tuple(gamma))
                # gamma fixes the shared prefix and maps this leaf's branch
                # at the deepest shared node onto the reference leaf's
                # branch, which is already explored: resume there.
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                return common
        if code < best[0]:
            best = (code, order, path[:])
        return len(path)

    def search(cells: list[list[int]]) -> int:
        """Explore the node whose individualized vertices are ``path``;
        return the depth (length of ``path``) of the node at which the
        search resumes."""
        cells = _refine(adj, cells)
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), -1)
        if target < 0:
            return leaf([c[0] for c in cells])
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1 :]
        # union-find over the orbits of the automorphisms found so far that
        # fix ``path`` pointwise, built on first use
        orbit: list[int] = []
        used = 0  # automorphisms already merged into ``orbit``
        explored: list[int] = []
        depth = len(path)
        for v in cell:
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
            back = search(head + [[v], [u for u in cell if u != v]] + tail)
            path.pop()
            explored.append(v)
            if back < depth:
                return back
        return depth

    search(start)
    assert best is not None
    if automorphisms is not None:
        automorphisms.extend(found)
    return prefix + best[0]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or sorted(g.degrees) != sorted(h.degrees):
        return False
    return canonical_code(g) == canonical_code(h)
