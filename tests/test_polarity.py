import pytest

from diamwidth.containment import ABSENT, BUDGET, has_subgraph
from diamwidth.families import complete_bipartite, cycle_graph
from diamwidth.graphs import diameter, graph_from_edges
from diamwidth.polarity import (
    PolarityReport,
    absolute_points,
    er_polarity_graph,
    is_prime,
    max_common_neighbors,
    projective_points,
    verify_polarity_claims,
)


def test_projective_point_counts():
    for q in (2, 3, 5, 7):
        assert len(projective_points(q)) == q * q + q + 1
    with pytest.raises(ValueError):
        projective_points(4)
    with pytest.raises(ValueError):
        er_polarity_graph(6)


def test_er_graph_vital_statistics():
    g2 = er_polarity_graph(2)
    assert (g2.n, g2.m) == (7, 9)
    g3 = er_polarity_graph(3)
    assert (g3.n, g3.m) == (13, 24)
    assert diameter(g3) == 2
    for q in (2, 3, 5, 7):
        g = er_polarity_graph(q)
        assert g.n == q * q + q + 1
        assert g.m == q * (q + 1) ** 2 // 2
        degs = sorted(g.degrees)
        assert degs[0] == q  # min degree q: the unbounded-treewidth driver
        assert sum(1 for d in degs if d == q) == q + 1
        assert len(absolute_points(q)) == q + 1
        # the degree-q vertices are exactly the absolute points
        assert [v for v in range(g.n) if g.degree(v) == q] == absolute_points(q)
        assert all(d in (q, q + 1) for d in degs)


def test_c4_freeness_two_ways_agree():
    for q in (2, 3, 5):
        g = er_polarity_graph(q)
        scan_free = max_common_neighbors(g) <= 1
        search_free = has_subgraph(g, cycle_graph(4), budget=None) is ABSENT
        assert scan_free and search_free
    k33 = complete_bipartite(3, 3)
    assert max_common_neighbors(k33) > 1
    assert has_subgraph(k33, cycle_graph(4), budget=None) is not ABSENT


def test_verify_polarity_claims():
    assert verify_polarity_claims(er_polarity_graph(3), 6).passed
    rep = verify_polarity_claims(complete_bipartite(3, 3), 6)
    assert not rep.passed and rep.cycle_witness is not None
    rep = verify_polarity_claims(cycle_graph(7), 6)
    assert not rep.passed and rep.diameter_actual == 3
    # quadrangle mode: C6 + diameter 3; the plane graph passes trivially
    # on diameter but contains C6 for q >= 3
    rep = verify_polarity_claims(er_polarity_graph(3), 8)
    assert not rep.passed and rep.forbidden_cycle == 6
    with pytest.raises(ValueError):
        verify_polarity_claims(cycle_graph(5), 10)
    # C6-free with diameter 2: a C6 would need three vertices on each side
    rep = verify_polarity_claims(complete_bipartite(1001, 2), 8)
    assert rep.passed and rep.cycle_witness is ABSENT
    # joining the two hubs breaks bipartiteness; still C6-free (a leaf sees
    # only the hubs).  The leaves are degree-2 twins, and the search tries
    # only two of them
    k = complete_bipartite(200, 2)
    rep = verify_polarity_claims(graph_from_edges(k.n, [*k.edges(), (200, 201)]), 8)
    assert rep.passed and rep.cycle_witness is ABSENT
    # a search that ran out fails the check and says so
    rep = PolarityReport(False, 6, 3, 2, BUDGET)
    assert "ran out of budget" in rep.reason()


def test_is_prime():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
