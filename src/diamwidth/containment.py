"""Exact pattern containment: subgraph, induced subgraph, minor.

Every search keeps the budget contract of ``graphs``: an ``Embedding``
when found, ``ABSENT`` only after exhaustive search, else ``BUDGET``; it
takes a node limit or a caller's ``Budget``.

The subgraph matcher is a backtracking search over candidate bitmasks with
degree and adjacency-consistency pruning; pattern vertices are ordered by
descending degree with connectivity preference, host candidates ascending.
The contract is exactness, not any particular search order.

Minor containment decides cycle and linear-forest patterns exactly before
the general branch-set search.  A pattern of maximum degree <= 3 is a
minor iff it is a topological minor (Diestel, *Graph Theory*, Prop.
1.7.3), so C_k (k >= 3) is a minor iff the host has a cycle of length
>= k, and a linear forest is a minor iff it is a subgraph.  Every other
pattern goes to the branch-set search.
"""

from __future__ import annotations

from dataclasses import dataclass
from .graphs import (
    ABSENT,
    BUDGET,  # re-exported: callers read the contract from this module
    DEFAULT_BUDGET,
    Budget,
    Graph,
    are_vertex_ids,
    bit_indices,
    budgeted,
    component_masks,
    cycle_order,
    is_linear_forest,
)
from .cycles import find_cycle_subgraph
from .paths import find_induced_path  # unused here: perfbench/layers.py patches this name


@dataclass(frozen=True)
class Embedding:
    """Injective map of pattern ids into the host.

    ``vertex_map[i]`` is the host image of pattern vertex i for subgraph
    and induced modes; minor mode instead maps each pattern vertex to a
    connected host branch set (``branch_sets``).
    """

    mode: str  # "subgraph" | "induced" | "minor"
    vertex_map: tuple[int, ...] = ()
    branch_sets: tuple[frozenset[int], ...] = ()


def verify_embedding(host: Graph, pattern: Graph, emb: Embedding) -> bool:
    if emb.mode in ("subgraph", "induced"):
        vm = emb.vertex_map
        if not are_vertex_ids(host, vm) or len(vm) != pattern.n or len(set(vm)) != pattern.n:
            return False
        for u, v in pattern.edges():
            if not host.has_edge(vm[u], vm[v]):
                return False
        if emb.mode == "induced":
            for u in range(pattern.n):
                for v in range(u + 1, pattern.n):
                    if not pattern.has_edge(u, v) and host.has_edge(vm[u], vm[v]):
                        return False
        return True
    if emb.mode == "minor":
        sets = emb.branch_sets
        if not isinstance(sets, tuple) or len(sets) != pattern.n:
            return False
        seen: set[int] = set()
        for bs in sets:
            if not (isinstance(bs, frozenset) and bs and are_vertex_ids(host, tuple(bs))) or seen & bs:
                return False
            seen |= bs
            mask = 0
            for v in bs:
                mask |= 1 << v
            if len(component_masks(host, mask)) != 1:
                return False
        for u, v in pattern.edges():
            if not any(host.has_edge(a, b) for a in sets[u] for b in sets[v]):
                return False
        return True
    return False


def _pattern_order(pattern: Graph) -> list[int]:
    order: list[int] = []
    placed = 0
    while len(order) < pattern.n:
        best = None
        key = None
        for v in range(pattern.n):
            if (placed >> v) & 1:
                continue
            anchored = (pattern.adj[v] & placed).bit_count()
            k = (anchored, pattern.degree(v), -v)
            if key is None or k > key:
                key = k
                best = v
        order.append(best)
        placed |= 1 << best
    return order


def _match(host: Graph, pattern: Graph, induced: bool, budget: Budget):
    if pattern.n == 0:
        return Embedding("induced" if induced else "subgraph")
    if pattern.n > host.n or pattern.m > host.m:
        return ABSENT
    order = _pattern_order(pattern)
    mode = "induced" if induced else "subgraph"
    hdeg = host.degrees
    pdeg = pattern.degrees
    full = (1 << host.n) - 1
    base_cand = []
    for p in order:
        mask = 0
        for v in range(host.n):
            if hdeg[v] >= pdeg[p]:
                mask |= 1 << v
        base_cand.append(mask)
    # earlier-neighbour constraints per position
    nbr_pos: list[list[tuple[int, bool]]] = []
    for k, p in enumerate(order):
        cons = []
        for k2 in range(k):
            q = order[k2]
            if pattern.has_edge(p, q):
                cons.append((k2, True))
            elif induced:
                cons.append((k2, False))
        nbr_pos.append(cons)

    images = [0] * pattern.n
    used = 0
    spend = budget.spend
    k = 0
    cand_stack: list[int] = [0] * pattern.n

    def candidates(k: int) -> int:
        cand = base_cand[k] & ~used
        for k2, adjacent in nbr_pos[k]:
            img = images[k2]
            if adjacent:
                cand &= host.adj[img]
            else:
                cand &= full & ~host.adj[img] & ~(1 << img)
        return cand

    cand_stack[0] = candidates(0)
    while True:
        cand = cand_stack[k]
        if cand == 0:
            if k == 0:
                return ABSENT
            k -= 1
            used &= ~(1 << images[k])
            continue
        low = cand & -cand
        cand_stack[k] = cand ^ low
        v = low.bit_length() - 1
        spend()
        images[k] = v
        if k + 1 == pattern.n:
            vm = [0] * pattern.n
            for pos, p in enumerate(order):
                vm[p] = images[pos]
            return Embedding(mode, tuple(vm))
        used |= 1 << v
        k += 1
        cand_stack[k] = candidates(k)


def has_subgraph(host: Graph, pattern: Graph, budget: int | Budget | None = DEFAULT_BUDGET):
    """Embedding iff pattern is a subgraph of host; ABSENT is exhaustive."""
    return budgeted(_match, host, pattern, False, budget)


def has_induced_subgraph(
    host: Graph, pattern: Graph, budget: int | Budget | None = DEFAULT_BUDGET
):
    return budgeted(_match, host, pattern, True, budget)


# -- minors ------------------------------------------------------------------


def has_minor(host: Graph, pattern: Graph, budget: int | Budget | None = DEFAULT_BUDGET):
    """A minor model of pattern in host as branch sets; ABSENT only after
    an exhaustive search.

    A cycle C_k is a minor iff the host has a cycle of some length L >= k
    (Diestel, Prop. 1.7.3: patterns of maximum degree <= 3 are minors iff
    topological minors); its model is k - 1 single cycle vertices and one
    arc of the rest.  A linear forest is a minor iff it is a subgraph, and
    its model is the subgraph's vertices as singletons.  Every other
    pattern goes to the branch-set search.  All of them spend one budget.
    """
    return budgeted(_decide_minor, host, pattern, budget)


def _decide_minor(host: Graph, pattern: Graph, budget: Budget):
    cyclic = cycle_order(pattern)
    if cyclic is not None:
        return _cycle_minor(host, cyclic, budget)
    if is_linear_forest(pattern):
        emb = _match(host, pattern, False, budget)
        if emb is ABSENT:
            return ABSENT
        return Embedding("minor", branch_sets=tuple(frozenset((v,)) for v in emb.vertex_map))
    return _minor(host, pattern, budget)


def _cycle_minor(host: Graph, cyclic: list[int], budget: Budget):
    """C_k as a minor: the first host cycle of length L = k, k + 1, ...,
    its first k - 1 vertices as single branch sets and the rest as the
    last."""
    k = len(cyclic)
    for length in range(k, host.n + 1):
        cyc = find_cycle_subgraph(host, length, budget)
        if cyc is not ABSENT:
            branch = [frozenset()] * k
            for i, p in enumerate(cyclic[:-1]):
                branch[p] = frozenset((cyc[i],))
            branch[cyclic[-1]] = frozenset(cyc[k - 1:])
            return Embedding("minor", branch_sets=tuple(branch))
    return ABSENT


def _minor(host: Graph, pattern: Graph, budget: Budget):
    """The branch-set search.  Every model is found through its minimal
    form: each branch set is the union of its seed and of connecting paths
    grown to satisfy pattern edges, so enumerating seeds plus simple
    connecting paths is complete."""
    if pattern.n == 0:
        return Embedding("minor")
    if pattern.n > host.n or pattern.m > host.m:
        return ABSENT
    order = _pattern_order(pattern)
    spend = budget.spend

    assign = [-1] * host.n  # host vertex -> position in order, or -1
    sets: list[set[int]] = [set() for _ in range(pattern.n)]

    # The search keeps every alternative alive through continuations:
    # satisfy(..., cont) succeeds only if some connector makes cont()
    # succeed, so a downstream dead end backtracks into other connectors.
    # Connector paths between two branch sets may be split at any point,
    # the prefix joining one set and the suffix the other; this is what
    # lets earlier branch sets keep growing (e.g. the spoke contractions
    # of a Petersen K_5 model).

    def place(k: int) -> bool:
        if k == pattern.n:
            return True
        p = order[k]
        needed = [k2 for k2 in range(k) if pattern.has_edge(p, order[k2])]
        for seed in range(host.n):
            if assign[seed] != -1:
                continue
            spend()
            assign[seed] = k
            sets[k] = {seed}
            if satisfy(k, needed, 0, lambda: place(k + 1)):
                return True
            for v in list(sets[k]):
                assign[v] = -1
            sets[k] = set()
        return False

    def satisfy(k: int, needed: list[int], idx: int, cont) -> bool:
        if idx == len(needed):
            return cont()
        k2 = needed[idx]
        if any(host.has_edge(a, b) for a in sets[k] for b in sets[k2]):
            return satisfy(k, needed, idx + 1, cont)
        starts = sorted(
            {v for a in sets[k] for v in bit_indices(host.adj[a]) if assign[v] == -1}
        )
        return extend(k, k2, needed, idx, [], starts, cont)

    def apply_split(k, k2, needed, idx, path, s, cont) -> bool:
        for v in path[:s]:
            assign[v] = k
            sets[k].add(v)
        for v in path[s:]:
            assign[v] = k2
            sets[k2].add(v)
        if satisfy(k, needed, idx + 1, cont):
            return True
        for v in path[:s]:
            sets[k].discard(v)
            assign[v] = -1
        for v in path[s:]:
            sets[k2].discard(v)
            assign[v] = -1
        return False

    def extend(k, k2, needed, idx, path, frontier, cont) -> bool:
        for v in frontier:
            if assign[v] != -1 or v in path:
                continue
            spend()
            path.append(v)
            if any(host.has_edge(v, b) for b in sets[k2]):
                for s in range(len(path) + 1):
                    if apply_split(k, k2, needed, idx, path, s, cont):
                        return True
            nxt = sorted(
                u
                for u in bit_indices(host.adj[v])
                if assign[u] == -1 and u not in path
            )
            if extend(k, k2, needed, idx, path, nxt, cont):
                return True
            path.pop()
        return False

    if not place(0):
        return ABSENT
    branch = [frozenset()] * pattern.n
    for pos, p in enumerate(order):
        branch[p] = frozenset(sets[pos])
    return Embedding("minor", branch_sets=tuple(branch))

