"""Longest plain and longest induced path searches.

Both searches are exhaustive below a caller-visible exact limit and degrade
to a bounded heuristic above it; the returned witness always says which it
got via the ``exact`` flag (a non-exact witness is a lower bound only).

The plain-path search runs a DP over (vertex-set, endpoint) states per
component, which enumerates the same space as exhaustive DFS without the
factorial blowup on dense graphs.  A state budget keeps it memory-safe; on
overflow it falls back to the heuristic with ``exact=False``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ABSENT, BUDGET, BudgetExhausted, Graph, bit_indices, component_masks

PLAIN_EXACT_LIMIT = 18
INDUCED_EXACT_LIMIT = 20
DEFAULT_STATE_BUDGET = 4_000_000


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
    vs = w.vertices
    if len(set(vs)) != len(vs) or not vs:
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


def longest_path(
    g: Graph,
    exact_limit: int = PLAIN_EXACT_LIMIT,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> PathWitness:
    """A longest path (most vertices); exact when within limits."""
    if g.n == 0:
        raise ValueError("longest path of the empty graph is undefined")
    if g.n > exact_limit:
        return _heuristic_path(g)
    best_mask = 1 << 0
    best_last = 0
    # layers[mask] = bitmask of endpoints v such that mask has a hamiltonian
    # path of mask ending at v.  Processed per component.
    layers: dict[int, int] = {}
    states = 0
    for comp in component_masks(g):
        frontier: dict[int, int] = {}
        for v in bit_indices(comp):
            frontier[1 << v] = frontier.get(1 << v, 0) | (1 << v)
        while frontier:
            layers.update(frontier)
            states += len(frontier)
            if states > state_budget:
                return _heuristic_path(g)
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


def _heuristic_path(g: Graph, rounds: int = 60) -> PathWitness:
    """Greedy DFS-deepening lower bound; deterministic."""
    best: tuple[int, ...] = (0,) if g.n else ()
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for start in order[: min(rounds, g.n)]:
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


def longest_induced_path(
    g: Graph,
    exact_limit: int = INDUCED_EXACT_LIMIT,
    node_budget: int | None = None,
) -> PathWitness:
    """A maximum-cardinality induced path when exact, else a maximal one.

    Exact mode (n <= exact_limit and no budget hit) enumerates every induced
    path by extending the tail; a candidate extension must be adjacent to
    the tail and to no other path vertex.
    """
    if g.n == 0:
        raise ValueError("longest induced path of the empty graph is undefined")
    exact = g.n <= exact_limit
    if not exact and node_budget is None:
        node_budget = 500_000  # heuristic mode is a bounded best-effort search
    best: list[int] = [0]
    nodes = 0
    adj = g.adj
    path: list[int] = []

    def extend(used: int, blocked: int) -> None:
        # blocked = used + neighbourhoods of all non-tail path vertices
        nonlocal nodes, best
        if len(path) > len(best):
            best = path[:]
        tail = path[-1]
        cand = adj[tail] & ~blocked & ~used
        blocked |= adj[tail]
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetExhausted
            path.append(low.bit_length() - 1)
            extend(used | low, blocked)
            path.pop()

    starts = range(g.n) if exact else sorted(
        range(g.n), key=lambda v: (-g.degree(v), v)
    )
    try:
        for s in starts:
            path.append(s)
            extend(1 << s, 0)
            path.pop()
    except BudgetExhausted:
        exact = False
    return PathWitness(tuple(best), "induced", exact)


def find_induced_path(g: Graph, target_vertices: int, node_budget: int | None = None):
    """First induced path with >= target_vertices vertices as a
    ``PathWitness``, ``ABSENT`` after an exhaustive search, or ``BUDGET``."""
    nodes = 0
    adj = g.adj
    path: list[int] = []

    def extend(used: int, blocked: int) -> bool:
        nonlocal nodes
        if len(path) >= target_vertices:
            return True
        tail = path[-1]
        cand = adj[tail] & ~blocked & ~used
        blocked |= adj[tail]
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetExhausted
            path.append(low.bit_length() - 1)
            if extend(used | low, blocked):
                return True
            path.pop()
        return False

    try:
        for s in range(g.n):
            path.append(s)
            if extend(1 << s, 0):
                return PathWitness(tuple(path), "induced", True)
            path.pop()
    except BudgetExhausted:
        return BUDGET
    return ABSENT
