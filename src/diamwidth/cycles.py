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
candidates adjacent to the anchor, one mask.  Node accounting is per
candidate vertex, as if the last level were a loop: the closing level
adds the candidate count to ``nodes``, and when that would pass the
budget only the lowest candidates the budget still pays for are tried,
so a cut and the ``exhausted`` flag fall where a per-candidate loop would
put them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import ABSENT, BUDGET, DEFAULT_BUDGET, BudgetExhausted, Graph

ENUMERATION_CAP = 60_000


@dataclass(frozen=True)
class CyclePacking:
    anchor: tuple  # ("vertex", v) or ("edge", u, v)
    cycles: tuple[tuple[int, ...], ...]
    satisfied: bool


def cycles_through_vertex(
    g: Graph,
    v: int,
    length: int,
    avoid: int = 0,
    limit: int | None = None,
    budget: int | None = DEFAULT_BUDGET,
):
    """Simple cycles of exactly ``length`` vertices through v, avoiding the
    ``avoid`` vertex mask.  Duplicates are removed by anchoring the cycle
    at v and orienting toward the smaller neighbour.

    Returns (cycles, exhausted) where exhausted is False iff a limit or
    budget stopped the enumeration early.
    """
    if (avoid >> v) & 1 or length < 3:
        return [], True
    return _anchored_search(g, [v], length, avoid, True, limit, budget)


def cycles_through_edge(
    g: Graph,
    u: int,
    v: int,
    length: int,
    avoid: int = 0,
    limit: int | None = None,
    budget: int | None = DEFAULT_BUDGET,
):
    """Simple cycles of exactly ``length`` vertices traversing edge uv."""
    if not g.has_edge(u, v):
        raise ValueError(f"anchor edge ({u},{v}) not present")
    if (avoid >> u) & 1 or (avoid >> v) & 1 or length < 3:
        return [], True
    return _anchored_search(g, [min(u, v), max(u, v)], length, avoid, False, limit, budget)


def _anchored_search(g, path, length, avoid, oriented, limit, budget):
    """DFS extending ``path`` (anchor first) by vertices outside ``avoid``
    to cycles of ``length`` vertices.  At ``length - 1`` path vertices the
    closing vertices are one mask; ``oriented`` keeps only those above
    path[1], so a vertex-anchored cycle is listed in one direction."""
    out: list[tuple[int, ...]] = []
    nodes = 0
    exhausted = True
    adj = g.adj
    close = adj[path[0]]
    free = ~avoid
    closing = length - 1

    def dfs(last: int, used: int) -> bool:
        nonlocal nodes, exhausted
        cand = adj[last] & ~used & free
        if len(path) == closing:
            k = cand.bit_count()
            if budget is not None and nodes + k > budget:
                # the budget runs out inside this level: close only the
                # lowest candidates it still pays for, then stop
                exhausted = False
                keep = 0
                for _ in range(budget - nodes):
                    low = cand & -cand
                    keep |= low
                    cand ^= low
                cand = keep
            nodes += k
            hits = cand & close
            if oriented:
                hits &= -(2 << path[1])
            while hits:
                low = hits & -hits
                out.append((*path, low.bit_length() - 1))
                if limit is not None and len(out) >= limit:
                    exhausted = False
                    return False
                hits ^= low
            return exhausted
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if budget is not None and nodes > budget:
                exhausted = False
                return False
            u = low.bit_length() - 1
            path.append(u)
            ok = dfs(u, used | low)
            path.pop()
            if not ok:
                return False
        return True

    used = 0
    for w in path:
        used |= 1 << w
    dfs(path[-1], used)
    return out, exhausted


def find_cycle_subgraph(g: Graph, length: int, budget: int | None = DEFAULT_BUDGET):
    """Any C_length subgraph of g as a vertex tuple, ABSENT or BUDGET."""
    for v in range(g.n):
        # cycles whose minimum vertex is v: avoid all smaller ids
        avoid = (1 << v) - 1
        cyc, exhausted = cycles_through_vertex(g, v, length, avoid, limit=1, budget=budget)
        if cyc:
            return cyc[0]
        if not exhausted:
            return BUDGET
    return ABSENT


def _anchored_cycles(g, anchor, length, avoid, limit, budget):
    if anchor[0] == "vertex":
        return cycles_through_vertex(g, anchor[1], length, avoid, limit, budget)
    return cycles_through_edge(g, anchor[1], anchor[2], length, avoid, limit, budget)


def _core_mask(anchor) -> int:
    if anchor[0] == "vertex":
        return 1 << anchor[1]
    return (1 << anchor[1]) | (1 << anchor[2])


def _find_one(g, anchor, lengths, avoid, budget):
    for length in sorted(set(lengths)):
        cyc, exhausted = _anchored_cycles(g, anchor, length, avoid, 1, budget)
        if cyc:
            return cyc[0]
        if not exhausted:
            return BUDGET
    return ABSENT


def _room(g, anchor) -> int:
    """How many packed cycles the anchor's degrees allow: each takes two
    edges at a vertex anchor v, or one more at each end of an edge anchor uv."""
    if anchor[0] == "vertex":
        return g.degree(anchor[1]) // 2
    return min(g.degree(anchor[1]), g.degree(anchor[2])) - 1


def _greedy_packing(g, anchor, quotas, budget):
    """Deterministic greedy disjoint packing: the cycles picked up to the
    first miss (it may satisfy the quota early), or BUDGET."""
    core = _core_mask(anchor)
    used = 0
    picked: list[tuple[int, ...]] = []
    for length, count in sorted(quotas.items()):
        for _ in range(count):
            c = _find_one(g, anchor, (length,), used, budget)
            if c is BUDGET:
                return BUDGET
            if c is ABSENT:
                return picked
            picked.append(c)
            for w in c:
                used |= 1 << w
            used &= ~core
    return picked


def _blocking_bound(g, anchor, lengths, budget):
    """The size of a greedy blocking set, or None if a search ran out of
    budget.  Each pick is the highest-degree non-anchor vertex of an
    anchored cycle that avoids the set so far; the set is complete when an
    exhaustive search finds no such cycle, whatever the picks were."""
    core = _core_mask(anchor)
    blockers = 0
    while True:
        cyc = _find_one(g, anchor, lengths, blockers, budget)
        if cyc is ABSENT:
            return blockers.bit_count()
        if cyc is BUDGET:
            return None
        blockers |= 1 << max(
            (w for w in cyc if not (core >> w) & 1), key=lambda w: (g.degree(w), -w)
        )


def cycle_packing(
    g: Graph,
    anchor: tuple,
    quotas: dict[int, int],
    budget: int | None = DEFAULT_BUDGET,
):
    """Exact packing decision at an anchor.

    anchor: ("vertex", v) or ("edge", u, v).  quotas: cycle length ->
    required count (lengths >= 3, counts >= 0).  Returns a satisfied
    CyclePacking, or ABSENT (anchor-degree test, blocking-set bound, or
    exhausted combination search), or BUDGET.
    """
    for length, count in quotas.items():
        if length < 3:
            raise ValueError("cycle lengths must be >= 3")
        if count < 0:
            raise ValueError("cycle counts must be >= 0")
    total = sum(quotas.values())
    if total == 0:
        return CyclePacking(anchor, (), True)
    if anchor[0] == "edge" and not g.has_edge(anchor[1], anchor[2]):
        raise ValueError(f"anchor edge ({anchor[1]},{anchor[2]}) not present")
    if _room(g, anchor) < total:
        return ABSENT
    core = _core_mask(anchor)
    lengths = sorted(quotas)

    picked = _greedy_packing(g, anchor, quotas, budget)
    if picked is BUDGET:
        return BUDGET
    if len(picked) >= total:
        return CyclePacking(anchor, tuple(picked), True)

    # each length's quota may be blocked on its own, and so may the total
    checks = [([length], need) for length, need in quotas.items()]
    if len(lengths) > 1:
        checks.append((lengths, total))
    for check_lengths, need in checks:
        bound = _blocking_bound(g, anchor, check_lengths, budget)
        if bound is not None and bound < need:
            return ABSENT

    # full enumeration + exact combination search
    pool: list[tuple[int, tuple[int, ...], int]] = []  # (length, cycle, mask)
    for length in lengths:
        cyc, exhausted = _anchored_cycles(g, anchor, length, 0, ENUMERATION_CAP, budget)
        if not exhausted:
            return BUDGET
        for c in cyc:
            mask = 0
            for w in c:
                mask |= 1 << w
            pool.append((length, c, mask & ~core))

    by_length = {l: [(c, m) for (lc, c, m) in pool if lc == l] for l in lengths}
    nodes = 0

    acc: list[tuple[int, ...]] = []

    def search(li: int, need: int, start: int, used: int) -> bool:
        nonlocal nodes
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
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExhausted
            acc.append(c)
            if search(li, need - 1, i + 1, used | m):
                return True
            acc.pop()
        return False

    try:
        found = search(0, quotas[lengths[0]], 0, 0)
    except BudgetExhausted:
        return BUDGET
    return CyclePacking(anchor, tuple(acc), True) if found else ABSENT


def verify_packing(g: Graph, packing: CyclePacking, quotas: dict[int, int]) -> bool:
    core = _core_mask(packing.anchor)
    seen: dict[int, int] = {}
    masks = []
    for c in packing.cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            if not g.has_edge(a, b):
                return False
        if len(set(c)) != len(c):
            return False
        if packing.anchor[0] == "vertex":
            if packing.anchor[1] not in c:
                return False
        else:
            u, v = packing.anchor[1], packing.anchor[2]
            pairs = set(zip(c, c[1:] + c[:1]))
            if (u, v) not in pairs and (v, u) not in pairs:
                return False
        m = 0
        for w in c:
            m |= 1 << w
        masks.append(m & ~core)
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
    budget: int | None = DEFAULT_BUDGET,
):
    """Decide C^V / C^E subgraph-freeness by packing at every anchor whose
    degrees leave room for the bouquet.

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
    anchors: list[tuple]
    if mode == "vertex":
        anchors = [("vertex", v) for v in range(g.n)]
    else:
        anchors = [("edge", u, v) for u, v in g.edges()]
    for anchor in anchors:
        if _room(g, anchor) < len(lengths):
            continue  # cycle_packing would answer ABSENT at once
        res = cycle_packing(g, anchor, quotas, budget)
        if res is BUDGET:
            return BUDGET
        if isinstance(res, CyclePacking):
            return FreenessCertificate(False, mode, tuple(sorted(lengths)), res)
    return FreenessCertificate(True, mode, tuple(sorted(lengths)), None)
