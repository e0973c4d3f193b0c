import pytest

from diamwidth.canon import are_isomorphic
from diamwidth.census import enumerate_all_graphs
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
    complement,
    component_masks,
    cyclomatic_number,
    diameter,
    disjoint_union,
    distance_table,
    delete_vertex,
    edgeless_graph,
    girth,
    graph_from_edges,
    induced_subgraph,
    is_bipartite,
    is_forest,
    is_linear_forest,
    is_path_graph,
    join,
    subdivide,
)
from oracles import (
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
    join(path_graph(4), edgeless_graph(1)),
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
    assert diameter(join(path_graph(9), edgeless_graph(1))) == 2
    assert diameter(disjoint_union(edgeless_graph(1), edgeless_graph(1))) == INFINITE
    assert diameter(edgeless_graph(1)) == 0
    with pytest.raises(ValueError):
        diameter(edgeless_graph(0))


def test_join_counts():
    assert are_isomorphic(join(edgeless_graph(1), edgeless_graph(1)), path_graph(2))
    j = join(path_graph(3), edgeless_graph(1))
    assert (j.n, j.m) == (4, 2 + 0 + 3)
    assert diameter(join(wall(2), edgeless_graph(1))) == 2


def test_join_apex_dominates_property():
    for g in SAMPLE:
        assert diameter(join(g, edgeless_graph(1))) <= 2


def test_complement():
    assert complement(complete_graph(4)).m == 0
    c5 = cycle_graph(5)
    assert are_isomorphic(complement(c5), c5)
    for g in SAMPLE:
        assert complement(complement(g)) == g
    assert diameter(complement(wall(2))) == 2


def test_subdivide():
    assert are_isomorphic(subdivide(complete_graph(3), 1), cycle_graph(6))
    assert are_isomorphic(subdivide(path_graph(3), 2), path_graph(7))
    s = subdivide(complete_graph(4), 2)
    assert (s.n, s.m) == (4 + 2 * 6, 18)
    g = cycle_graph(5)
    assert subdivide(g, 0) == g


def test_subdivide_parity_and_girth_properties():
    for g in [complete_graph(4), cycle_graph(5), complete_bipartite(2, 3)]:
        for k in (1, 2, 3):
            s = subdivide(g, k)
            if k % 2 == 1:
                assert is_bipartite(s)
            assert girth(s) == (k + 1) * girth(g)


def test_distance_table_invariants():
    for g in SAMPLE:
        t = distance_table(g)
        for u in range(g.n):
            assert t.d(u, u) == 0
            for v in range(g.n):
                assert t.d(u, v) == t.d(v, u)
                for w in range(g.n):
                    if (
                        t.d(u, w) != INFINITE
                        and t.d(u, v) != INFINITE
                        and t.d(v, w) != INFINITE
                    ):
                        assert t.d(u, w) <= t.d(u, v) + t.d(v, w)


def test_induced_subgraph_and_delete():
    g = cycle_graph(6)
    sub, old = induced_subgraph(g, [0, 1, 2, 3])
    assert old == [0, 1, 2, 3]
    assert sub.m == 3
    assert are_isomorphic(delete_vertex(g, 0), path_graph(5))


def test_linear_forest_recognition():
    assert is_linear_forest(disjoint_union(path_graph(3), path_graph(2)))
    assert not is_linear_forest(spider([1, 1, 1]))
    assert not is_linear_forest(cycle_graph(4))


def test_forest_tests_over_masks_match_networkx():
    nx = pytest.importorskip("networkx")
    # every graph on <= 7 vertices, connected or not: the whole graph, each
    # component and each one-vertex deletion
    for level in enumerate_all_graphs(7):
        for g in level:
            full = (1 << g.n) - 1
            masks = [None] + component_masks(g) + [full & ~(1 << v) for v in range(g.n)]
            for mask in masks:
                h = to_networkx(g, mask)
                assert cyclomatic_number(g, mask) == len(nx.cycle_basis(h))
                assert is_forest(g, mask) == reference_is_forest(h)
                assert is_linear_forest(g, mask) == reference_is_linear_forest(h)
                assert is_path_graph(g, mask) == reference_is_path(h)


def test_girth_examples():
    assert girth(cycle_graph(8)) == 8
    assert girth(path_graph(5)) == INFINITE
    assert girth(complete_graph(4)) == 3
    assert girth(wall(3)) == 6


def test_labels_round_trip_through_operations():
    g = spider([2, 2])
    assert g.find_label("center") == 0
    shifted = disjoint_union(path_graph(2), g)
    assert shifted.find_label("center") == 2
    assert complement(g).label_map == g.label_map
