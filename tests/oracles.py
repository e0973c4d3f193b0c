"""Independent brute-force oracles used to pin expected values.

These deliberately re-derive everything from definitions (all elimination
forests / all orderings / all injective maps / all assignments) and share
no code path with the solvers they check.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from diamwidth.graphs import Graph, bit_indices, component_masks, graph_from_edges


def brute_treedepth(g: Graph) -> int:
    """Plain recursion over all elimination choices, no memo, no pruning."""

    def solve(mask: int) -> int:
        k = mask.bit_count()
        if k <= 1:
            return k
        comps = component_masks(g, mask)
        if len(comps) > 1:
            return max(solve(c) for c in comps)
        return 1 + min(solve(mask & ~(1 << v)) for v in bit_indices(mask))

    if g.n == 0:
        return 0
    return solve((1 << g.n) - 1)


def brute_pathwidth(g: Graph) -> int:
    """Minimum over every vertex ordering of the max boundary size."""
    n = g.n
    full = (1 << n) - 1
    best = n
    for order in permutations(range(n)):
        placed = 0
        worst = 0
        for v in order:
            placed |= 1 << v
            outside = full & ~placed
            cost = 0
            mm = placed
            while mm:
                low = mm & -mm
                mm ^= low
                if g.adj[low.bit_length() - 1] & outside:
                    cost += 1
            if cost > worst:
                worst = cost
                if worst >= best:
                    break
        if worst < best:
            best = worst
    return best


def brute_treewidth(g: Graph) -> int:
    """Minimum over every elimination ordering of the max fill-in clique."""
    n = g.n
    best = n - 1 if n else 0
    for order in permutations(range(n)):
        adj = list(g.adj)
        alive = (1 << n) - 1
        worst = 0
        for v in order:
            alive &= ~(1 << v)
            nb = adj[v] & alive
            c = nb.bit_count()
            if c > worst:
                worst = c
                if worst >= best:
                    break
            mm = nb
            while mm:
                low = mm & -mm
                mm ^= low
                adj[low.bit_length() - 1] |= nb & ~low
        if worst < best:
            best = worst
    return best


def brute_has_subgraph(host: Graph, pattern: Graph, induced: bool) -> bool:
    """Every injective map, checked directly."""
    hn, pn = host.n, pattern.n
    if pn > hn:
        return False
    for subset in permutations(range(hn), pn):
        ok = True
        for u in range(pn):
            for v in range(u + 1, pn):
                has = host.has_edge(subset[u], subset[v])
                if pattern.has_edge(u, v) and not has:
                    ok = False
                    break
                if induced and not pattern.has_edge(u, v) and has:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_has_minor(host: Graph, pattern: Graph) -> bool:
    """Every assignment of host vertices to (branch set | unused)."""
    hn, pn = host.n, pattern.n
    if pn > hn:
        return False

    def ok(assign: list[int]) -> bool:
        masks = [0] * pn
        for v, a in enumerate(assign):
            if a >= 0:
                masks[a] |= 1 << v
        for k in range(pn):
            if masks[k] == 0 or len(component_masks(host, masks[k])) != 1:
                return False
        for u, v in pattern.edges():
            if not any(
                host.adj[a] & masks[v] for a in bit_indices(masks[u])
            ):
                return False
        return True

    def rec(v: int, assign: list[int]) -> bool:
        if v == hn:
            return ok(assign)
        for a in range(-1, pn):
            assign.append(a)
            if rec(v + 1, assign):
                return True
            assign.pop()
        return False

    return rec(0, [])


def brute_longest_induced_path_vertices(g: Graph) -> int:
    """Max size over all vertex subsets inducing a path."""
    from diamwidth.graphs import induced_subgraph, is_path_graph

    best = 1
    for k in range(2, g.n + 1):
        found = False
        for subset in combinations(range(g.n), k):
            sub, _ = induced_subgraph(g, list(subset))
            if is_path_graph(sub):
                found = True
                break
        if found:
            best = k
    return best


def reference_induced_search(g: Graph, starts, target: int, best: list[int], budget) -> None:
    """The induced-path DFS of ``diamwidth.paths`` as it was before it kept
    its node count in a local: one ``budget.spend()`` per extension, a path
    list grown and popped, and one call per node.  Same nodes, same order,
    same ``best`` and the same budget contract."""
    adj = g.adj
    path: list[int] = []
    spend = budget.spend

    def extend(used: int, blocked: int) -> bool:
        if len(path) > len(best):
            best[:] = path
            if len(best) >= target:
                return True
        tail = path[-1]
        cand = adj[tail] & ~blocked & ~used
        blocked |= adj[tail]
        while cand:
            low = cand & -cand
            cand ^= low
            spend()
            path.append(low.bit_length() - 1)
            if extend(used | low, blocked):
                return True
            path.pop()
        return False

    for s in starts:
        path.append(s)
        if extend(1 << s, 0):
            return
        path.pop()


def brute_longest_path_vertices(g: Graph) -> int:
    """DFS over all simple paths."""
    best = 1

    def dfs(last: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for u in bit_indices(g.adj[last] & ~used):
            dfs(u, used | (1 << u), size + 1)

    for s in range(g.n):
        dfs(s, 1 << s, 1)
    return best


def small_planar(g: Graph) -> bool:
    """Independent planarity for n <= 6: Kuratowski patterns directly.

    On at most 6 vertices: a K_{3,3} minor needs all 6 vertices, so it is
    a spanning subgraph; a K_5 minor is a K_5 subgraph or arises after one
    contraction.
    """
    from diamwidth.families import complete_bipartite, complete_graph

    if g.n <= 4:
        return True
    if g.n > 6:
        raise ValueError("small_planar handles n <= 6 only")
    k5 = complete_graph(5)
    if brute_has_subgraph(g, k5, induced=False):
        return False
    if g.n == 6:
        if brute_has_subgraph(g, complete_bipartite(3, 3), induced=False):
            return False
        for u, v in g.edges():
            merged = _contract(g, u, v)
            if brute_has_subgraph(merged, k5, induced=False):
                return False
    return True


def _contract(g: Graph, u: int, v: int) -> Graph:
    keep = [w for w in range(g.n) if w != v]
    index = {w: i for i, w in enumerate(keep)}
    edges = set()
    for a, b in g.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            edges.add((index[a2], index[b2]))
    return graph_from_edges(len(keep), sorted(edges))


def _round_refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Stable iterated refinement by neighbour counts into every cell,
    recomputed each round until no cell splits."""
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


def unpruned_canonical_code(g: Graph) -> bytes:
    """``canon.canonical_code`` without pruning: refinement by counts into
    every cell each round, the same leaf encoding, and every leaf of the
    search tree visited."""
    from diamwidth.canon import _code_for_order

    prefix = bytes([g.n]) + g.m.to_bytes(2, "big") + bytes(sorted(g.degrees))
    if g.n <= 1:
        return prefix
    by_deg: dict[int, list[int]] = {}
    for v in range(g.n):
        by_deg.setdefault(g.degree(v), []).append(v)
    codes = []

    def search(cells: list[list[int]]) -> None:
        cells = _round_refine(g.adj, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            codes.append(_code_for_order(g.adj, [c[0] for c in cells]))
            return
        cell = cells[target]
        for v in cell:
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1 :])

    search([by_deg[d] for d in sorted(by_deg)])
    return prefix + min(codes)


def complement(g: Graph) -> Graph:
    """The complement of g on the same vertex ids."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~mask & ~(1 << v) for v, mask in enumerate(g.adj)))


def add_apex(g: Graph) -> Graph:
    """g plus one vertex, id g.n, adjacent to every vertex of g."""
    return graph_from_edges(g.n + 1, [*g.edges(), *((v, g.n) for v in range(g.n))], dict(g.labels))


def atlas_graphs() -> list[Graph]:
    """Every graph on 1..7 vertices from ``networkx.graph_atlas_g()``, an
    enumeration independent of this package (test-only import)."""
    import networkx as nx

    out = []
    for h in nx.graph_atlas_g()[1:]:
        idx = {v: i for i, v in enumerate(h.nodes())}
        out.append(graph_from_edges(len(idx), [(idx[u], idx[v]) for u, v in h.edges()]))
    return out


def criterion_09_hosts() -> list[Graph]:
    """The 50 random hosts of acceptance criterion 09: G(n, p) with n in
    9..14 and p in {0.2, 0.28}."""
    rng = random.Random(11)
    hosts = []
    for seed in range(50):
        n = rng.randrange(9, 15)
        p = rng.choice([0.2, 0.28])
        r2 = random.Random(1000 + seed)
        hosts.append(graph_from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if r2.random() < p]))
    return hosts


def reference_cycles_through_vertex(g: Graph, v: int, length: int, avoid: int = 0,
                                    limit: int | None = None):
    """The plain anchored-cycle DFS: one level per cycle vertex, the last
    level testing one adjacency bit per leaf.  Returns at most ``limit``
    cycles and the nodes tried, one per vertex put on the path."""
    out: list[tuple[int, ...]] = []
    nodes = 0
    if (avoid >> v) & 1 or length < 3:
        return out, nodes
    blocked = avoid | (1 << v)
    path = [v]

    def dfs(last: int, used: int) -> bool:
        nonlocal nodes
        if len(path) == length:
            if g.has_edge(last, v) and path[1] < path[-1]:
                out.append(tuple(path))
                return limit is None or len(out) < limit
            return True
        for u in bit_indices(g.adj[last] & ~used & ~blocked):
            nodes += 1
            path.append(u)
            ok = dfs(u, used | (1 << u))
            path.pop()
            if not ok:
                return False
        return True

    dfs(v, 1 << v)
    return out, nodes


def reference_cycles_through_edge(g: Graph, u: int, v: int, length: int, avoid: int = 0,
                                  limit: int | None = None):
    """The plain DFS for cycles of ``length`` vertices traversing edge uv,
    with the nodes tried."""
    out: list[tuple[int, ...]] = []
    nodes = 0
    if (avoid >> u) & 1 or (avoid >> v) & 1:
        return out, nodes
    a, b = (u, v) if u < v else (v, u)
    path = [a, b]

    def dfs(last: int, used: int) -> bool:
        nonlocal nodes
        if len(path) == length:
            if g.has_edge(last, a):
                out.append(tuple(path))
                return limit is None or len(out) < limit
            return True
        for w in bit_indices(g.adj[last] & ~used & ~avoid):
            nodes += 1
            path.append(w)
            ok = dfs(w, used | (1 << w))
            path.pop()
            if not ok:
                return False
        return True

    dfs(b, (1 << a) | (1 << b))
    return out, nodes


def reference_packing(g: Graph, anchor: tuple, quotas: dict[int, int]):
    """A cycle packing by brute force, or None.  Tries every choice of
    quota-many anchored cycles per length (from the plain DFS above),
    cycle by cycle, dropping a partial choice as soon as two of its cycles
    meet off the anchor."""
    core = set(anchor[1:])
    wanted = []  # one entry per cycle to choose: the candidates of its length
    for length, count in sorted(quotas.items()):
        if anchor[0] == "vertex":
            cycles, _ = reference_cycles_through_vertex(g, anchor[1], length)
        else:
            cycles, _ = reference_cycles_through_edge(g, anchor[1], anchor[2], length)
        wanted += [cycles] * count

    def pick(i: int, start: int, used: set):
        if i == len(wanted):
            return ()
        if i and wanted[i] is not wanted[i - 1]:
            start = 0  # a new length: its cycles are chosen in index order
        for j in range(start, len(wanted[i])):
            off_anchor = set(wanted[i][j]) - core
            if not off_anchor & used:
                rest = pick(i + 1, j + 1, used | off_anchor)
                if rest is not None:
                    return (wanted[i][j],) + rest
        return None

    return pick(0, 0, set())


# -- forest, path and apex structure, restated on networkx graphs ------------


def to_networkx(g: Graph, within: int | None = None):
    """g induced on the vertex mask ``within`` (all of g by default), as a
    networkx graph on the original ids (test-only import)."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(v for v in range(g.n) if within is None or (within >> v) & 1)
    h.add_edges_from((u, v) for u, v in g.edges() if u in h and v in h)
    return h


def _components(h) -> list:
    import networkx as nx

    return [h.subgraph(c) for c in nx.connected_components(h)]


def reference_is_forest(h) -> bool:
    import networkx as nx

    return len(h) == 0 or nx.is_forest(h)


def reference_is_path(h) -> bool:
    """A tree whose diameter passes through every vertex."""
    import networkx as nx

    return len(h) > 0 and nx.is_tree(h) and nx.diameter(h) == len(h) - 1


def reference_is_linear_forest(h) -> bool:
    return all(reference_is_path(c) for c in _components(h))


def _with_apex(h, test) -> bool:
    import networkx as nx

    return test(h) or any(test(nx.restricted_view(h, [v], [])) for v in h)


def reference_is_apex_forest(h) -> bool:
    return _with_apex(h, reference_is_forest)


def reference_is_apex_linear_forest(h) -> bool:
    return _with_apex(h, reference_is_linear_forest)


def reference_in_script_s(h) -> bool:
    """Nonempty with every component a tree of at most three leaves: a
    path (at most two) or a subdivided claw (exactly three)."""
    import networkx as nx

    return len(h) > 0 and all(
        nx.is_tree(c) and sum(1 for _v, d in c.degree if d == 1) <= 3
        for c in _components(h)
    )


def reference_reduce_components(h):
    """The vertex set ``atlas.reduce_components`` keeps, or None where it
    returns the graph unchanged: one component, or two non-path ones."""
    import networkx as nx

    comps = [set(c) for c in nx.connected_components(h)]
    nonpath = [c for c in comps if not reference_is_path(h.subgraph(c))]
    if len(comps) <= 1 or len(nonpath) > 1:
        return None
    return nonpath[0] if nonpath else max(comps, key=len)
