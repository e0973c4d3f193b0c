import random
import time
from itertools import combinations

import pytest

from diamwidth import canon
from diamwidth.canon import CanonicalLimitError, are_isomorphic, canonical_code
from diamwidth.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    spider,
    wall,
)
from diamwidth.graphs import edgeless_graph, graph_from_edges
from oracles import atlas_graphs, unpruned_canonical_code


def permuted(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return graph_from_edges(g.n, edges)


def blown_up(g, copies, closed=()):
    """g with each vertex v replaced by copies[v] twins: adjacent (true
    twins) if v is in ``closed``, independent (false twins) otherwise."""
    ids = []
    for k in copies:
        start = sum(map(len, ids))
        ids.append(range(start, start + k))
    edges = [(a, b) for u, v in g.edges() for a in ids[u] for b in ids[v]]
    edges += [e for v in closed for e in combinations(ids[v], 2)]
    return graph_from_edges(sum(copies), edges)


def complete_multipartite(*sizes):
    return blown_up(complete_graph(len(sizes)), sizes)


# graphs on at most 8 vertices whose vertices mostly have twins
TWIN_RICH = [
    complete_multipartite(2, 3, 3),
    complete_bipartite(1, 6),
    blown_up(cycle_graph(5), [2, 2, 2, 1, 1]),
    blown_up(cycle_graph(5), [2, 1, 2, 1, 2], closed=[2]),
    blown_up(path_graph(4), [2, 1, 3, 2], closed=[0, 3]),
    blown_up(complete_graph(3), [3, 2, 1], closed=[1]),
]


def test_relabel_invariance():
    for g in [
        path_graph(6),
        cycle_graph(7),
        spider([2, 3, 1]),
        wall(2),
        *TWIN_RICH,
        complete_bipartite(1, 15),
        complete_multipartite(4, 4, 4, 4),
        blown_up(cycle_graph(5), [3, 3, 4, 3, 3], closed=[0, 2]),
    ]:
        code = canonical_code(g)
        for seed in range(6):
            assert canonical_code(permuted(g, seed)) == code


def test_distinguishes_nonisomorphic():
    p3 = path_graph(3)
    k3 = cycle_graph(3)
    assert canonical_code(p3) != canonical_code(k3)
    assert not are_isomorphic(p3, k3)
    assert are_isomorphic(p3, permuted(p3, 1))


def test_four_vertex_graph_count_is_eleven():
    codes = {
        canonical_code(graph_from_edges(4, es))
        for k in range(7)
        for es in combinations(list(combinations(range(4), 2)), k)
    }
    assert len(codes) == 11


def test_limit_is_enforced():
    with pytest.raises(CanonicalLimitError):
        canonical_code(wall(3))


def test_pruned_codes_equal_unpruned_search():
    pytest.importorskip("networkx")
    for i, g in enumerate(atlas_graphs()):
        code = canonical_code(g)
        assert code == unpruned_canonical_code(g), g
        assert canonical_code(permuted(g, i)) == code, g
    for g in [wall(2), cycle_graph(9), complete_bipartite(3, 4), spider([2, 2, 2]), *TWIN_RICH]:
        code = unpruned_canonical_code(g)
        for seed in range(3):
            assert canonical_code(permuted(g, seed)) == code


def test_pruned_codes_on_random_regular_graphs():
    # refinement cannot split a regular graph, so the search branches from
    # the root and the found automorphisms rarely fix the prefix
    nx = pytest.importorskip("networkx")
    for n, d in [(9, 4), (10, 3), (11, 6), (12, 3), (12, 5)]:
        for seed in range(8):
            h = nx.random_regular_graph(d, n, seed=seed)
            g = graph_from_edges(n, list(h.edges()))
            code = unpruned_canonical_code(g)
            assert canonical_code(g) == code, (n, d, seed)
            assert canonical_code(permuted(g, seed)) == code, (n, d, seed)


def test_automorphisms_preserve_adjacency():
    pytest.importorskip("networkx")
    graphs = atlas_graphs() + [wall(2), complete_bipartite(4, 4), edgeless_graph(9), *TWIN_RICH]
    for g in graphs:
        auts = []
        canonical_code(g, automorphisms=auts)
        for gamma in auts:
            assert sorted(gamma) == list(range(g.n))
            for u in range(g.n):
                image = 0
                for v in range(g.n):
                    if g.has_edge(u, v):
                        image |= 1 << gamma[v]
                assert g.adj[gamma[u]] == image, (g, gamma)


def test_symmetric_graphs_are_fast(monkeypatch):
    monkeypatch.setattr(canon, "CANON_LIMIT", 20)  # K10,10 is above the limit
    # (graph, leaves): in K_n and the edgeless graph every vertex is a twin
    # of the first one individualized.  In K_{n,n} the vertices of the
    # other side are not its twins: the second leaf, on the other side,
    # gives the automorphism that swaps the sides.
    cases = [
        (complete_graph(10), 1),
        (edgeless_graph(10), 1),
        (complete_bipartite(5, 5), 2),
        (complete_bipartite(10, 10), 2),
    ]
    leaves = []
    encode = canon._code_for_order
    monkeypatch.setattr(
        canon, "_code_for_order", lambda adj, order: leaves.append(order) or encode(adj, order)
    )
    for g, expect in cases:
        leaves.clear()
        t0 = time.perf_counter()
        auts = []
        code = canonical_code(g, automorphisms=auts)
        assert time.perf_counter() - t0 < 0.5, g
        assert len(leaves) == expect, g
        assert auts
        assert canonical_code(permuted(g, 3)) == code
