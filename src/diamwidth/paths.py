"""Longest plain and longest induced path searches.

Both searches are exhaustive up to a fixed size limit and degrade to a
bounded heuristic above it; the returned witness always says which it got
via the ``exact`` flag (a non-exact witness is a lower bound only).

The plain-path search runs a DP over (vertex-set, endpoint) states per
component, which enumerates the same space as exhaustive DFS without the
factorial blowup on dense graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    ABSENT, DEFAULT_BUDGET, Budget, BudgetExhausted, Graph, are_vertex_ids, bit_indices, budgeted,
    component_masks,
)

PLAIN_EXACT_LIMIT = 18
INDUCED_EXACT_LIMIT = 20
HEURISTIC_NODES = 500_000


@dataclass(frozen=True)
class PathWitness:
    vertices: tuple[int, ...]
    kind: str  # "plain" | "induced"
    exact: bool

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def length(self) -> int:
        """Edge length."""
        return max(0, len(self.vertices) - 1)


def verify_path_witness(g: Graph, w: PathWitness) -> bool:
    """Whether ``w`` is a path of g, and an induced one when its kind is
    "induced"; a kind other than "plain" or "induced" is refused."""
    vs = w.vertices
    if w.kind not in ("plain", "induced"):
        return False
    if not are_vertex_ids(g, vs) or len(set(vs)) != len(vs) or not vs:
        return False
    for a, b in zip(vs, vs[1:]):
        if not g.has_edge(a, b):
            return False
    if w.kind == "induced":
        for i, a in enumerate(vs):
            for b in vs[i + 2 :]:
                if g.has_edge(a, b):
                    return False
    return True


def longest_path(g: Graph) -> PathWitness:
    """A longest path (most vertices); exact when within limits."""
    if g.n == 0:
        raise ValueError("longest path of the empty graph is undefined")
    if g.n > PLAIN_EXACT_LIMIT:
        return _heuristic_path(g)
    best_mask = 1 << 0
    # layers[mask] = bitmask of endpoints v such that mask has a hamiltonian
    # path of mask ending at v.  Processed per component.
    layers: dict[int, int] = {}
    for comp in component_masks(g):
        frontier: dict[int, int] = {}
        for v in bit_indices(comp):
            frontier[1 << v] = frontier.get(1 << v, 0) | (1 << v)
        while frontier:
            layers.update(frontier)
            nxt: dict[int, int] = {}
            for mask, lasts in frontier.items():
                for v in bit_indices(lasts):
                    ext = g.adj[v] & comp & ~mask
                    for u in bit_indices(ext):
                        key = mask | (1 << u)
                        nxt[key] = nxt.get(key, 0) | (1 << u)
            for mask in nxt:
                if mask.bit_count() > best_mask.bit_count():
                    best_mask = mask
            frontier = nxt
    # Reconstruct a witness for best_mask.
    last = next(bit_indices(layers[best_mask]))
    seq = [last]
    mask = best_mask
    while mask != (1 << seq[-1]):
        mask ^= 1 << seq[-1]
        prev_candidates = layers[mask] & g.adj[seq[-1]]
        seq.append(next(bit_indices(prev_candidates)))
    seq.reverse()
    return PathWitness(tuple(seq), "plain", True)


def _heuristic_path(g: Graph) -> PathWitness:
    """Greedy DFS-deepening lower bound from the 60 highest-degree starts;
    deterministic."""
    best: tuple[int, ...] = (0,) if g.n else ()
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for start in order[:60]:
        path = [start]
        used = 1 << start
        while True:
            ext = g.adj[path[-1]] & ~used
            if not ext:
                break
            # prefer low remaining degree, break ties by id
            nv = min(
                bit_indices(ext),
                key=lambda u: ((g.adj[u] & ~used).bit_count(), u),
            )
            path.append(nv)
            used |= 1 << nv
        if len(path) > len(best):
            best = tuple(path)
    return PathWitness(best, "plain", False)


def _induced_search(g: Graph, starts, target: int, best: list[int], budget: Budget):
    """Depth-first search over induced paths from each start in turn: the
    tail is extended by a vertex adjacent to it and to no other path
    vertex, one node per extension.  Leaves in ``best`` the first path with
    ``target`` vertices, else the first longest path seen; when the budget
    runs out, ``best`` keeps the longest path seen so far.

    Nodes are counted on a local countdown and added to ``budget.spent``
    on the way out, so the budget contract is that of ``Budget.spend``:
    BudgetExhausted at the first node past the limit, with ``spent`` one
    past it."""
    adj = g.adj
    path = [0] * g.n  # path[depth] is the vertex at that depth
    best_len = len(best)
    limit = budget.limit
    # raises when it reaches 0; unlimited starts at 0 and never does
    left = first = 0 if limit is None else max(limit - budget.spent, 0) + 1

    def extend(depth: int, cand: int, seen: int) -> bool:
        # cand: the extensions of the tail at ``depth``; seen: the path and
        # the neighbourhoods of all its vertices, which no extension of a
        # child may touch
        nonlocal left, best_len
        depth += 1
        while cand:
            low = cand & -cand
            cand ^= low
            left -= 1
            if not left:
                raise BudgetExhausted
            v = low.bit_length() - 1
            path[depth] = v
            if depth >= best_len:
                best_len = depth + 1
                best[:] = path[:best_len]
                if best_len >= target:
                    return True
            nbrs = adj[v]
            nxt = nbrs & ~seen
            if nxt and extend(depth, nxt, seen | nbrs):
                return True
        return False

    try:
        for s in starts:
            path[0] = s
            if not best_len:
                best_len = 1
                best[:] = [s]
                if target <= 1:
                    return
            if adj[s] and extend(0, adj[s], adj[s] | 1 << s):
                return
    finally:
        budget.spent += first - left


def longest_induced_path(g: Graph) -> PathWitness:
    """A maximum-cardinality induced path when g has at most
    INDUCED_EXACT_LIMIT vertices; above that, the longest one a
    HEURISTIC_NODES-node search finds, trying the highest-degree starts
    first (``exact=False``)."""
    if g.n == 0:
        raise ValueError("longest induced path of the empty graph is undefined")
    best: list[int] = []
    if g.n <= INDUCED_EXACT_LIMIT:
        _induced_search(g, range(g.n), g.n, best, Budget(None))
        return PathWitness(tuple(best), "induced", True)
    starts = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    budgeted(_induced_search, g, starts, g.n, best, HEURISTIC_NODES)  # keeps best if cut
    return PathWitness(tuple(best), "induced", False)


def find_induced_path(
    g: Graph, target_vertices: int, budget: int | Budget | None = DEFAULT_BUDGET
):
    """First induced path with >= target_vertices vertices as a
    ``PathWitness``, ``ABSENT`` after an exhaustive search, or ``BUDGET``."""

    def search(budget):
        best: list[int] = []
        _induced_search(g, range(g.n), target_vertices, best, budget)
        if best and len(best) >= target_vertices:
            return PathWitness(tuple(best), "induced", True)
        return ABSENT

    return budgeted(search, budget)
