from diamwidth.families import (
    complete_bipartite,
    complete_graph,
    cycle_bouquet,
    cycle_graph,
    spider,
    wall,
)
from diamwidth.graphs import disjoint_union, graph_from_edges, subdivide
from diamwidth.planarity import is_apex_planar, is_planar

from oracles import add_apex, atlas_graphs, complement, small_planar

PETERSEN = graph_from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_known_planar_and_nonplanar():
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert not is_planar(PETERSEN)
    assert not is_planar(subdivide(complete_graph(5), 2))
    assert is_planar(complete_graph(4))
    assert is_planar(cycle_graph(12))
    assert is_planar(spider([4, 4, 4, 4]))
    assert all(is_planar(wall(h)) for h in (2, 3, 4))
    assert is_planar(cycle_bouquet([6] * 12 + [8] * 12, "vertex"))
    assert is_planar(disjoint_union(complete_graph(4), cycle_graph(5)))


def test_against_small_oracle_exhaustively():
    # every graph on at most 6 vertices, including disconnected ones
    for g in atlas_graphs():
        if g.n <= 6:
            assert is_planar(g) == small_planar(g), g


def test_apex_planarity():
    assert is_apex_planar(complete_graph(5))
    assert is_apex_planar(complete_bipartite(3, 3))
    assert not is_apex_planar(complete_graph(7))
    assert is_apex_planar(add_apex(wall(2)))
    assert not is_planar(add_apex(wall(2)))
    assert not is_apex_planar(complete_bipartite(4, 5))


def test_dense_graphs_shortcut():
    assert not is_planar(complement(wall(2)))  # edge count alone decides
