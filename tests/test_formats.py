import pytest

from diamwidth.families import complete_graph, cycle_bouquet, path_graph, wall
from diamwidth.formats import (
    FormatError,
    from_edgelist,
    from_graph6,
    labels_from_json,
    labels_to_json,
    to_edgelist,
    to_graph6,
)
from oracles import atlas_graphs


def test_known_graph6_encodings():
    # reference bytes produced by the standard tool chain
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(path_graph(2)) == "A_"
    assert from_graph6("Cr").m == 4  # a labelled C_4


def test_graph6_round_trip_all_small_graphs():
    for g in atlas_graphs():
        if g.n <= 5:
            assert from_graph6(to_graph6(g)) == g


def test_graph6_round_trip_large_and_header():
    big = cycle_bouquet([6] * 12 + [8] * 12, "vertex")  # 145 vertices
    assert big.n == 145
    enc = to_graph6(big)
    assert from_graph6(enc).m == big.m
    assert from_graph6(">>graph6<<" + to_graph6(path_graph(3))).m == 2


def test_graph6_errors_carry_offsets():
    with pytest.raises(FormatError) as err:
        from_graph6("C")  # truncated body
    assert err.value.offset >= 0
    with pytest.raises(FormatError):
        from_graph6(chr(200) + "~~")
    with pytest.raises(FormatError):
        from_graph6("C~~~")  # trailing bytes


def test_edgelist_round_trip():
    g = wall(2)
    assert from_edgelist(to_edgelist(g)) == Graph0(g)
    with pytest.raises(FormatError):
        from_edgelist("3 2\n0 1\n")  # wrong edge count


def Graph0(g):
    # strip labels: edge-list text does not carry them
    from diamwidth.graphs import Graph

    return Graph(g.n, g.adj)


def test_labels_sidecar():
    g = wall(2)
    back = labels_from_json(labels_to_json(g))
    assert back == dict(g.labels)
