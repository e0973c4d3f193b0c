import hashlib

import pytest

from diamwidth.canon import canonical_code
from diamwidth.census import (
    _orbit_minimal_masks,
    census,
    census_to_csv,
    connected_graph_counts,
    enumerate_all_graphs,
    enumerate_connected_graphs,
    is_pattern_free,
)
from diamwidth.families import complete_graph, path_graph
from diamwidth.formats import from_graph6, to_graph6
from diamwidth.graphs import INFINITE, component_masks, diameter
from diamwidth.width import treedepth_exact
from oracles import atlas_graphs


def test_connected_counts_anchor():
    assert connected_graph_counts(6) == [1, 1, 2, 6, 21, 112]


def test_all_graph_counts():
    assert [len(l) for l in enumerate_all_graphs(6)[1:]] == [1, 2, 4, 11, 34, 156]


def test_levels_match_networkx_atlas():
    pytest.importorskip("networkx")
    atlas: dict[int, set[bytes]] = {}
    for g in atlas_graphs():
        if len(component_masks(g)) == 1:
            atlas.setdefault(g.n, set()).add(canonical_code(g))
    levels = enumerate_connected_graphs(7)
    assert [len(atlas[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    for n in range(1, 8):
        assert [canonical_code(g) for g in levels[n]] == sorted(atlas[n])


def _digest(levels) -> str:
    text = "\n".join(to_graph6(g) for level in levels for g in level)
    return hashlib.sha256(text.encode()).hexdigest()


def test_levels_and_representatives_are_pinned():
    # graph6 of every representative, in order, as the unpruned
    # generate-then-deduplicate enumeration produced them
    assert _digest(enumerate_connected_graphs(7)) == (
        "3f3641b686044abe59d61f4a948f702d527e5332a02f902ca0094f0b9b2ad4ce"
    )
    assert _digest(enumerate_all_graphs(6)) == (
        "8cc162ddbbb91c8c327da1fc2035e8f1ba65c8440d8baa6fcf645315ce3bf500"
    )


def test_orbit_minimal_masks():
    assert _orbit_minimal_masks(3, [], 1) == list(range(1, 8))
    # S3 on three points: one orbit per subset size
    s3 = [(1, 0, 2), (1, 2, 0)]
    assert _orbit_minimal_masks(3, s3, 0) == [0, 1, 3, 7]
    assert _orbit_minimal_masks(3, s3, 1) == [1, 3, 7]
    # the reflection of P4 (0-1-2-3)
    assert _orbit_minimal_masks(4, [(3, 2, 1, 0)], 1) == [1, 2, 3, 5, 6, 7, 9, 11, 15]


def test_census_nothing_is_k1_free():
    rows = census(3, path_graph(1), "subgraph", 2, "td")
    assert all(r.count == 0 and r.max_width is None for r in rows)


def test_census_triangle_free_diameter2():
    rows = census(4, complete_graph(3), "subgraph", 2, "td")
    assert [r.count for r in rows] == [1, 1, 1, 2]  # K1; K2; P3; K13 and C4


def test_census_rows_reverify():
    forbidden = complete_graph(3)
    rows = census(5, forbidden, "subgraph", 2, "td")
    for row in rows:
        if row.witness_graph6 is None:
            continue
        g = from_graph6(row.witness_graph6)
        assert g.n == row.n
        dia = diameter(g)
        assert dia != INFINITE and dia <= 2
        assert is_pattern_free(g, forbidden, "subgraph")
        assert treedepth_exact(g).value == row.max_width


def test_census_csv_schema():
    rows = census(3, complete_graph(3), "subgraph", 2, "td")
    text = census_to_csv(rows)
    assert text.splitlines()[0] == "n,count,max_width,witness_graph6"
    assert len(text.splitlines()) == 4
