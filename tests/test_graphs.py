import random

import pytest

from diamwidth.canon import are_isomorphic
from diamwidth.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    spider,
    wall,
)
from diamwidth.graphs import (
    INFINITE,
    Graph,
    bit_indices,
    component_masks,
    cycle_order,
    cyclomatic_number,
    diameter,
    disjoint_union,
    distances_from,
    delete_vertex,
    edgeless_graph,
    graph_from_edges,
    induced_subgraph,
    is_bipartite,
    is_forest,
    is_linear_forest,
    is_path_graph,
    subdivide,
)
from oracles import (
    add_apex,
    atlas_graphs,
    reference_is_forest,
    reference_is_linear_forest,
    reference_is_path,
    to_networkx,
)

SAMPLE = [
    path_graph(6),
    cycle_graph(7),
    complete_graph(5),
    complete_bipartite(3, 4),
    spider([2, 3, 1]),
    wall(2),
    add_apex(path_graph(4)),
]


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric


def test_handshake_and_symmetry_invariants():
    for g in SAMPLE:
        assert sum(g.degrees) == 2 * g.m
        for v in range(g.n):
            assert not (g.adj[v] >> v) & 1
            for u in bit_indices(g.adj[v]):
                assert g.has_edge(u, v)


def test_diameter_examples():
    assert diameter(path_graph(4)) == 3
    assert diameter(add_apex(path_graph(9))) == 2
    assert diameter(disjoint_union(edgeless_graph(1), edgeless_graph(1))) == INFINITE
    assert diameter(edgeless_graph(1)) == 0
    with pytest.raises(ValueError):
        diameter(edgeless_graph(0))


def test_diameter_matches_networkx_and_breadth_first_search():
    nx = pytest.importorskip("networkx")
    # every graph on 1..7 vertices, disconnected ones included
    for g in atlas_graphs():
        h = to_networkx(g)
        assert diameter(g) == (nx.diameter(h) if nx.is_connected(h) else INFINITE)
    rng = random.Random(29)
    for n in range(1, 17):
        for _ in range(6):
            g = graph_from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2])
            assert diameter(g) == max(max(distances_from(g, v)) for v in range(n))


def test_join_apex_dominates_property():
    for g in SAMPLE:
        assert diameter(add_apex(g)) <= 2


def test_subdivide():
    assert are_isomorphic(subdivide(complete_graph(3), 1), cycle_graph(6))
    assert are_isomorphic(subdivide(path_graph(3), 2), path_graph(7))
    s = subdivide(complete_graph(4), 2)
    assert (s.n, s.m) == (4 + 2 * 6, 18)
    g = cycle_graph(5)
    assert subdivide(g, 0) == g


def test_subdivide_parity_and_girth_properties():
    nx = pytest.importorskip("networkx")
    for g in [complete_graph(4), cycle_graph(5), complete_bipartite(2, 3)]:
        for k in (1, 2, 3):
            s = subdivide(g, k)
            if k % 2 == 1:
                assert is_bipartite(s)
            assert nx.girth(to_networkx(s)) == (k + 1) * nx.girth(to_networkx(g))


def test_distance_table_invariants():
    for g in SAMPLE:
        d = [distances_from(g, v) for v in range(g.n)]
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                for w in range(g.n):
                    if d[u][w] != INFINITE and d[u][v] != INFINITE and d[v][w] != INFINITE:
                        assert d[u][w] <= d[u][v] + d[v][w]


def test_induced_subgraph_and_delete():
    g = cycle_graph(6)
    sub, old = induced_subgraph(g, [0, 1, 2, 3])
    assert old == [0, 1, 2, 3]
    assert sub.m == 3
    assert are_isomorphic(delete_vertex(g, 0), path_graph(5))


def test_cycle_order_walks_the_cycle():
    # C9 with its vertices shuffled: the walk still goes round the cycle
    perm = [(5 * i) % 9 for i in range(9)]
    shuffled = graph_from_edges(9, [(perm[i], perm[(i + 1) % 9]) for i in range(9)])
    for g in (cycle_graph(3), cycle_graph(4), shuffled):
        order = cycle_order(g)
        assert sorted(order) == list(range(g.n))
        assert all(g.has_edge(a, b) for a, b in zip(order, order[1:] + order[:1]))
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    for g in (two_triangles, path_graph(4), complete_graph(4), path_graph(2)):
        assert cycle_order(g) is None


def test_linear_forest_recognition():
    assert is_linear_forest(disjoint_union(path_graph(3), path_graph(2)))
    assert not is_linear_forest(spider([1, 1, 1]))
    assert not is_linear_forest(cycle_graph(4))


def test_forest_tests_over_masks_match_networkx():
    nx = pytest.importorskip("networkx")
    # every graph on <= 7 vertices, connected or not: the whole graph, each
    # component and each one-vertex deletion
    for g in atlas_graphs():
        full = (1 << g.n) - 1
        masks = [None] + component_masks(g) + [full & ~(1 << v) for v in range(g.n)]
        for mask in masks:
            h = to_networkx(g, mask)
            assert cyclomatic_number(g, mask) == len(nx.cycle_basis(h))
            assert is_forest(g, mask) == reference_is_forest(h)
            assert is_linear_forest(g, mask) == reference_is_linear_forest(h)
            assert is_path_graph(g, mask) == reference_is_path(h)
        h = to_networkx(g)
        is_cycle = nx.is_connected(h) and all(d == 2 for _, d in h.degree())
        assert (cycle_order(g) is not None) == is_cycle


def test_labels_round_trip_through_operations():
    g = spider([2, 2])
    assert g.find_label("center") == 0
    shifted = disjoint_union(path_graph(2), g)
    assert shifted.find_label("center") == 2
    assert subdivide(g, 1).find_label("center") == 0
