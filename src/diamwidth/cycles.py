"""Anchored cycle enumeration and exact cycle packing.

A packing at a vertex anchor is a set of cycles through that vertex that
pairwise intersect in the anchor only; at an edge anchor the cycles all
traverse the edge and pairwise intersect exactly in its two endpoints.
These are precisely the host copies of the vertex-shared / edge-shared
cycle bouquets, so the packing decision doubles as the specialized
containment check for those patterns.

Before any enumeration, the anchor's degree bounds the packing: packed
cycles share only the anchor, so each takes two edges at a vertex anchor
v (a packing has at most deg(v) // 2 cycles) and one edge besides uv at
each end of an edge anchor uv (at most min(deg u, deg v) - 1 cycles).
The packing also needs the anchor's vertices once and each cycle's others,
so a quota that needs more vertices than g has is Absent at once.

For instances where full enumeration is infeasible (dense hosts put
millions of anchored cycles through a clique) the solver then tries a
blocking-set bound: an exhaustive search that proves every quota-length
anchored cycle meets a vertex set B disjoint from the anchor shows that
any packing has at most |B| cycles, because packed cycles consume distinct
B vertices.  B is built greedily from the highest-degree non-anchor
vertex of each anchored cycle still avoiding it.  The bound is taken for
each length's quota and for the total; one below its quota is an exact
Absent.

The anchored enumerators grow a path from the anchor and stop one vertex
short: at ``length - 1`` path vertices the closing vertices are the
candidates adjacent to the anchor, one mask.  That closing level pays for
all its candidates in one step, one node each, as a last DFS level would.
One budget pays for every stage of a packing decision: the greedy pass,
each blocking bound, the enumerations and the combination search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    ABSENT,
    DEFAULT_BUDGET,
    Budget,
    BudgetExhausted,
    Graph,
    are_vertex_ids,
    bipartition,
    bit_indices,
    budgeted,
    component_masks,
)

ENUMERATION_CAP = 60_000


@dataclass(frozen=True)
class CyclePacking:
    anchor: tuple  # ("vertex", v) or ("edge", u, v)
    cycles: tuple[tuple[int, ...], ...]


def cycles_through_vertex(
    g: Graph,
    v: int,
    length: int,
    avoid: int = 0,
    limit: int | None = None,
    budget: int | Budget | None = DEFAULT_BUDGET,
):
    """The simple cycles of exactly ``length`` vertices through v that avoid
    the ``avoid`` vertex mask, in search order and at most ``limit`` of
    them, or BUDGET.  Duplicates are removed by anchoring the cycle at v
    and orienting toward the smaller neighbour."""
    if (avoid >> v) & 1 or length < 3:
        return []
    return budgeted(_anchored_search, g, [v], length, avoid, True, limit, budget)


def cycles_through_edge(
    g: Graph,
    u: int,
    v: int,
    length: int,
    avoid: int = 0,
    limit: int | None = None,
    budget: int | Budget | None = DEFAULT_BUDGET,
):
    """The simple cycles of exactly ``length`` vertices traversing edge uv,
    as ``cycles_through_vertex`` lists them."""
    if not g.has_edge(u, v):
        raise ValueError(f"anchor edge ({u},{v}) not present")
    if (avoid >> u) & 1 or (avoid >> v) & 1 or length < 3:
        return []
    return budgeted(_anchored_search, g, sorted((u, v)), length, avoid, False, limit, budget)


def _anchored_search(g, path, length, avoid, oriented, limit, budget):
    """DFS extending ``path`` (anchor first) by vertices outside ``avoid``
    to cycles of ``length`` vertices.  At ``length - 1`` path vertices the
    closing vertices are one mask; ``oriented`` keeps only those above
    path[1], so a vertex-anchored cycle is listed in one direction."""
    out: list[tuple[int, ...]] = []
    spend = budget.spend
    adj = g.adj
    close = adj[path[0]]
    free = ~avoid
    closing = length - 1

    def dfs(last: int, used: int) -> bool:
        # False once ``limit`` cycles are found
        cand = adj[last] & ~used & free
        if len(path) == closing:
            spend(cand.bit_count())
            hits = cand & close
            if oriented:
                hits &= -(2 << path[1])
            while hits:
                low = hits & -hits
                out.append((*path, low.bit_length() - 1))
                if limit is not None and len(out) >= limit:
                    return False
                hits ^= low
            return True
        while cand:
            low = cand & -cand
            cand ^= low
            spend()
            u = low.bit_length() - 1
            path.append(u)
            ok = dfs(u, used | low)
            path.pop()
            if not ok:
                return False
        return True

    dfs(path[-1], sum(1 << w for w in path))
    return out


def _bipartite_lacks_cycle(g: Graph, length: int) -> bool:
    """Whether g is bipartite and so has no C_length: none if the length
    is odd, and a C_2m lies in one component of the 2-core (vertices of
    degree < 2 stripped) with m vertices on each side."""
    sides = bipartition(g)
    if sides is None:
        return False
    if length % 2:
        return True
    core = (1 << g.n) - 1
    while True:
        low = sum(1 << v for v in bit_indices(core) if (g.adj[v] & core).bit_count() < 2)
        if not low:
            break
        core &= ~low
    return all(
        min((comp & side).bit_count() for side in sides) < length // 2
        for comp in component_masks(g, core)
    )


def _surplus_twins(g: Graph) -> int:
    """The degree-2 vertices after the first two of each class with one
    neighbour mask.  A cycle holds at most two of a class, since each takes
    a cycle edge at both of their neighbours, so a cycle through a surplus
    twin still exists, of the same length, through a kept one it skips."""
    seen: dict[int, int] = {}
    surplus = 0
    for v, nbrs in enumerate(g.adj):
        if nbrs.bit_count() == 2:
            seen[nbrs] = seen.get(nbrs, 0) + 1
            if seen[nbrs] > 2:
                surplus |= 1 << v
    return surplus


def find_cycle_subgraph(g: Graph, length: int, budget: int | Budget | None = DEFAULT_BUDGET):
    """Any C_length subgraph of g as a vertex tuple, ABSENT or BUDGET.
    A bipartite host that is too small on one side is settled before the
    search, and the search avoids surplus twins (``_surplus_twins``).  The
    first cycle in search order holds none, as swapping one for a lower
    kept twin gives an earlier cycle, so the answer is the one found
    without avoiding them."""
    if _bipartite_lacks_cycle(g, length):
        return ABSENT
    surplus = _surplus_twins(g)

    def search(budget):
        for v in range(g.n):
            # cycles whose minimum vertex is v: avoid all smaller ids
            cyc = cycles_through_vertex(g, v, length, (1 << v) - 1 | surplus, 1, budget)
            if cyc:
                return cyc[0]
        return ABSENT

    return budgeted(search, budget)


def _anchored_cycles(g, anchor, length, avoid, limit, budget):
    if anchor[0] == "vertex":
        return cycles_through_vertex(g, anchor[1], length, avoid, limit, budget)
    return cycles_through_edge(g, anchor[1], anchor[2], length, avoid, limit, budget)


def _core_mask(anchor) -> int:
    if anchor[0] == "vertex":
        return 1 << anchor[1]
    return (1 << anchor[1]) | (1 << anchor[2])


def _find_one(g, anchor, lengths, avoid, budget):
    """The first anchored cycle of one of ``lengths`` avoiding ``avoid``,
    or None."""
    for length in sorted(set(lengths)):
        cyc = _anchored_cycles(g, anchor, length, avoid, 1, budget)
        if cyc:
            return cyc[0]
    return None


def _room(g, anchor) -> int:
    """How many packed cycles the anchor's degrees allow: each takes two
    edges at a vertex anchor v, or one more at each end of an edge anchor uv."""
    if anchor[0] == "vertex":
        return g.degree(anchor[1]) // 2
    return min(g.degree(anchor[1]), g.degree(anchor[2])) - 1


def _greedy_packing(g, anchor, quotas, budget):
    """Deterministic greedy disjoint packing: the cycles picked up to the
    first miss (it may satisfy the quota early)."""
    core = _core_mask(anchor)
    used = 0
    picked: list[tuple[int, ...]] = []
    for length, count in sorted(quotas.items()):
        for _ in range(count):
            c = _find_one(g, anchor, (length,), used, budget)
            if c is None:
                return picked
            picked.append(c)
            for w in c:
                used |= 1 << w
            used &= ~core
    return picked


def _blocking_bound(g, anchor, lengths, budget) -> int:
    """The size of a greedy blocking set.  Each pick is the highest-degree
    non-anchor vertex of an anchored cycle that avoids the set so far; the
    set is complete when an exhaustive search finds no such cycle, whatever
    the picks were."""
    core = _core_mask(anchor)
    blockers = 0
    while (cyc := _find_one(g, anchor, lengths, blockers, budget)) is not None:
        blockers |= 1 << max(
            (w for w in cyc if not (core >> w) & 1), key=lambda w: (g.degree(w), -w)
        )
    return blockers.bit_count()


def cycle_packing(
    g: Graph,
    anchor: tuple,
    quotas: dict[int, int],
    budget: int | Budget | None = DEFAULT_BUDGET,
):
    """Exact packing decision at an anchor.

    anchor: ("vertex", v) or ("edge", u, v).  quotas: cycle length ->
    required count (lengths >= 3, counts >= 0).  Returns a CyclePacking
    meeting the quotas; ABSENT from the anchor-degree or vertex-count
    test, a blocking-set bound or the exhausted combination search; or
    BUDGET.
    A pool that reaches ENUMERATION_CAP anchored cycles of one length also
    answers BUDGET, the only way an unbudgeted call can.
    """
    core = len(anchor) - 1
    total, size = 0, core  # size: the anchor's vertices, and each cycle's others
    for length, count in quotas.items():
        if length < 3:
            raise ValueError("cycle lengths must be >= 3")
        if count < 0:
            raise ValueError("cycle counts must be >= 0")
        total += count
        size += count * (length - core)
    if total == 0:
        return CyclePacking(anchor, ())
    if anchor[0] == "edge" and not g.has_edge(anchor[1], anchor[2]):
        raise ValueError(f"anchor edge ({anchor[1]},{anchor[2]}) not present")
    if _room(g, anchor) < total or size > g.n:
        return ABSENT
    return budgeted(_pack, g, anchor, quotas, total, budget)


def _pack(g, anchor, quotas, total, budget):
    """``cycle_packing``'s searches once its degree and size tests pass."""
    picked = _greedy_packing(g, anchor, quotas, budget)
    if len(picked) >= total:
        return CyclePacking(anchor, tuple(picked))

    # each length's quota may be blocked on its own, and so may the total
    lengths = sorted(quotas)
    checks = [([length], need) for length, need in quotas.items()]
    if len(lengths) > 1:
        checks.append((lengths, total))
    for check_lengths, need in checks:
        if _blocking_bound(g, anchor, check_lengths, budget) < need:
            return ABSENT

    # full enumeration + exact combination search
    core = _core_mask(anchor)
    by_length = {}  # length -> [(cycle, its non-anchor vertex mask)]
    for length in lengths:
        cyc = _anchored_cycles(g, anchor, length, 0, ENUMERATION_CAP, budget)
        if len(cyc) >= ENUMERATION_CAP:
            raise BudgetExhausted  # the pool cap
        by_length[length] = [(c, sum(1 << w for w in c) & ~core) for c in cyc]

    spend = budget.spend
    acc: list[tuple[int, ...]] = []

    def search(li: int, need: int, start: int, used: int) -> bool:
        if need == 0:
            li += 1
            if li == len(lengths):
                return True
            return search(li, quotas[lengths[li]], 0, used)
        cand = by_length[lengths[li]]
        for i in range(start, len(cand)):
            c, m = cand[i]
            if m & used:
                continue
            spend()
            acc.append(c)
            if search(li, need - 1, i + 1, used | m):
                return True
            acc.pop()
        return False

    found = search(0, quotas[lengths[0]], 0, 0)
    return CyclePacking(anchor, tuple(acc)) if found else ABSENT


def verify_packing(g: Graph, packing: CyclePacking, quotas: dict[int, int]) -> bool:
    anchor, cycles = packing.anchor, packing.cycles
    if not (
        isinstance(anchor, tuple)
        and anchor[:1] in (("vertex",), ("edge",))
        and len(anchor) == (2 if anchor[0] == "vertex" else 3)
        and are_vertex_ids(g, anchor[1:])
        and isinstance(cycles, tuple)
        and all(are_vertex_ids(g, c) and len(set(c)) == len(c) >= 3 for c in cycles)
    ):
        return False
    core = _core_mask(anchor)
    seen: dict[int, int] = {}
    masks = []
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            if not g.has_edge(a, b):
                return False
        if anchor[0] == "vertex":
            if anchor[1] not in c:
                return False
        else:
            u, v = anchor[1], anchor[2]
            pairs = set(zip(c, c[1:] + c[:1]))
            if (u, v) not in pairs and (v, u) not in pairs:
                return False
        masks.append(sum(1 << w for w in c) & ~core)
        seen[len(c)] = seen.get(len(c), 0) + 1
    for m1, m2 in combinations(masks, 2):
        if m1 & m2:
            return False
    return all(seen.get(l, 0) >= k for l, k in quotas.items())


@dataclass(frozen=True)
class FreenessCertificate:
    free: bool
    mode: str  # "vertex" | "edge"
    lengths: tuple[int, ...]
    witness: CyclePacking | None  # the found copy when not free


def vtype_or_etype_free(
    g: Graph,
    lengths: list[int],
    mode: str,
    budget: int | Budget | None = DEFAULT_BUDGET,
):
    """Decide C^V / C^E subgraph-freeness by packing at every anchor whose
    degrees leave room for the bouquet, all from one budget.

    Returns a FreenessCertificate or BUDGET.  Equivalent to direct
    subgraph containment of the bouquet pattern, which needs at least one
    cycle length.
    """
    if mode not in ("vertex", "edge"):
        raise ValueError("mode must be 'vertex' or 'edge'")
    if not lengths:
        raise ValueError("a bouquet needs at least one cycle length")
    if min(lengths) < 3:
        raise ValueError("cycle lengths must be >= 3")
    quotas: dict[int, int] = {}
    for l in lengths:
        quotas[l] = quotas.get(l, 0) + 1
    key = tuple(sorted(lengths))
    anchors: list[tuple]
    if mode == "vertex":
        anchors = [("vertex", v) for v in range(g.n)]
    else:
        anchors = [("edge", u, v) for u, v in g.edges()]
    # cycle_packing would answer ABSENT at once at an anchor without room
    anchors = [a for a in anchors if _room(g, a) >= len(lengths)]
    if not anchors:
        return FreenessCertificate(True, mode, key, None)

    def search(budget):
        for anchor in anchors:
            res = cycle_packing(g, anchor, quotas, budget)
            if res is not ABSENT:
                return FreenessCertificate(False, mode, key, res)
        return FreenessCertificate(True, mode, key, None)

    return budgeted(search, budget)
