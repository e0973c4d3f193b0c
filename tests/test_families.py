import pytest

from diamwidth import families
from diamwidth.canon import are_isomorphic
from diamwidth.families import (
    apex_path,
    build_family,
    ce_pattern,
    complete_bipartite,
    cycle_bouquet,
    cycle_graph,
    gadget_ce_unbounded,
    gadget_cv_unbounded,
    gadget_samecyc,
    gadget_triangle_free_cw,
    h_graph,
    parse_family_spec,
    path_graph,
    patterned_apex_path,
    samecyc_pattern,
    spider,
    wall,
)
from diamwidth.graphs import (
    INFINITE,
    bit_indices,
    diameter,
    is_bipartite,
    is_connected,
)
from diamwidth.planarity import is_planar

from oracles import to_networkx


def test_standard_family_counts():
    nx = pytest.importorskip("networkx")
    p5 = path_graph(5)
    assert (p5.n, p5.m) == (5, 4)
    k33 = complete_bipartite(3, 3)
    assert (k33.n, k33.m, diameter(k33)) == (6, 9, 2)
    c8 = cycle_graph(8)
    assert is_bipartite(c8) and nx.girth(to_networkx(c8)) == 8
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_spider():
    assert are_isomorphic(spider([1, 1, 1]), complete_bipartite(1, 3))
    s = spider([2, 2, 2])
    assert s.n == 7 and s.degree(s.find_label("center")) == 3
    assert are_isomorphic(spider([4]), path_graph(5))
    for lengths in ([1], [2, 5], [3, 3, 3, 3]):
        s = spider(lengths)
        assert s.n == 1 + sum(lengths) and s.m == sum(lengths)


def test_h_graph():
    h1 = h_graph(1, 1)
    assert h1.n == 6
    assert h_graph(2, 1).n == 7
    h23 = h_graph(2, 3)
    assert h23.n == 15
    deg3 = [v for v in range(h23.n) if h23.degree(v) == 3]
    assert len(deg3) == 2
    # the two branch vertices sit at spine distance 2, arms have 3 edges
    from diamwidth.graphs import distances_from

    assert distances_from(h23, deg3[0])[deg3[1]] == 2
    for i, l in [(1, 1), (3, 2), (4, 5)]:
        h = h_graph(i, l)
        assert h.n == i + 1 + 4 * l and h.m == h.n - 1 and is_connected(h)


def test_cycle_bouquets():
    cv = cycle_bouquet([6, 6], "vertex")
    assert cv.n == 11 and cv.degree(cv.find_label("hub")) == 4
    ce = cycle_bouquet([6, 6], "edge")
    assert ce.n == 10
    big = cycle_bouquet([6] * 12 + [8] * 12, "vertex")
    assert big.n == 1 + 12 * 5 + 12 * 7 == 145
    for lengths in ([3, 4], [5, 5, 5], [3, 3, 3, 3]):
        cv = cycle_bouquet(lengths, "vertex")
        assert cv.n == 1 + sum(l - 1 for l in lengths)
        assert cv.m == sum(lengths)
        ce = cycle_bouquet(lengths, "edge")
        assert ce.n == 2 + sum(l - 2 for l in lengths)
        assert ce.m == 1 + sum(l - 1 for l in lengths)


def test_wall():
    nx = pytest.importorskip("networkx")
    for h, n in [(2, 16), (3, 30), (4, 48)]:
        w = wall(h)
        assert w.n == n
        assert max(w.degrees) == 3
        assert is_bipartite(w) and is_connected(w)
        assert nx.girth(to_networkx(w)) == 6
        assert is_planar(w)
    w21 = wall(2, 1)
    assert w21.n == 16 + wall(2).m
    assert nx.girth(to_networkx(w21)) == 12
    assert nx.girth(to_networkx(wall(2, 2))) == 18


def test_patterned_apex_path():
    g = patterned_apex_path(8, "1001")
    apex = g.find_label("apex")
    assert sorted(bit_indices(g.adj[apex])) == [0, 3, 4, 7]
    assert g.n == 9
    full = patterned_apex_path(6, "1")
    assert full.degree(full.find_label("apex")) == 6
    none = patterned_apex_path(6, "0")
    assert diameter(none) == INFINITE
    with pytest.raises(ValueError):
        patterned_apex_path(5, "")
    with pytest.raises(ValueError):
        patterned_apex_path(5, "10a")


def test_triangle_free_cw_gadget():
    g = gadget_triangle_free_cw(2)
    assert g.n == 34
    assert diameter(g) == 2
    assert not any(g.adj[u] & g.adj[v] for u, v in g.edges())  # triangle scan
    # r dominates one colour class plus b
    r = g.find_label("r")
    b = g.find_label("b")
    assert g.has_edge(r, b)


def test_cv_unbounded_gadget():
    g = gadget_cv_unbounded(8)
    assert g.n == 8 + 1 + 12
    p0 = g.find_label("p:0")
    labels = dict(g.labels)
    znames = sorted(
        labels[u] for u in bit_indices(g.adj[p0]) if labels.get(u, "").startswith("Z")
    )
    assert znames == ["Z:x:0,1", "Z:x:3,0", "Z:y:0,2", "Z:y:6,0"]
    zids = [v for v, lab in g.labels if lab.startswith("Z:")]
    for k in range(9):
        pk = g.find_label(f"p:{k}")
        assert sum(1 for u in bit_indices(g.adj[pk]) if u in zids) == 4
    # Z is a 12-clique
    assert sum(1 for u, v in g.edges() if u in zids and v in zids) == 66
    assert diameter(gadget_cv_unbounded(40)) == 2


def test_ce_unbounded_gadget():
    assert ce_pattern(4) == "11010"
    assert ce_pattern(3) == "110"
    g = gadget_ce_unbounded(12, 3)
    apexes = [v for v, lab in g.labels if lab.startswith("x:")]
    assert len(apexes) == 3
    for a in apexes:
        for b in apexes:
            if a != b:
                assert not g.has_edge(a, b)
    for i in range(13):
        pi = g.find_label(f"p:{i}")
        for j in range(3):
            xj = g.find_label(f"x:{j}")
            assert g.has_edge(pi, xj) == ((i - j) % 3 in (0, 1))
    for l in (3, 4, 5):
        gl = gadget_ce_unbounded(20, l)
        labels = dict(gl.labels)
        for i in range(21):
            pi = gl.find_label(f"p:{i}")
            apex_deg = sum(
                1 for u in bit_indices(gl.adj[pi]) if labels.get(u, "").startswith("x:")
            )
            assert apex_deg == l - 1
    # structural lemma: every apex is adjacent to p_{j-1} or p_j
    g40 = gadget_ce_unbounded(40, 3)
    for j in range(1, 41):
        pj = g40.find_label(f"p:{j}")
        pj1 = g40.find_label(f"p:{j-1}")
        for t in range(3):
            x = g40.find_label(f"x:{t}")
            assert g40.has_edge(x, pj) or g40.has_edge(x, pj1)
    for n in range(6, 30, 4):
        assert diameter(gadget_ce_unbounded(n, 3)) == 2


def test_samecyc_gadgets():
    assert samecyc_pattern("A") == "1100"
    assert samecyc_pattern("B", 5) == "1101010100101010"
    for l in range(2, 7):
        pat = samecyc_pattern("B", l)
        assert len(pat) == 4 * l - 4
        double = pat + pat
        for i in range(len(pat)):
            assert (double[i] == "1") == (double[i + 2 * l - 2] == "0")
    ga = gadget_samecyc(20, "A")
    x = ga.find_label("x")
    y = ga.find_label("y")
    for i in range(21):
        pi = ga.find_label(f"p:{i}")
        assert ga.has_edge(pi, x) == (i % 4 in (0, 1))
        assert ga.has_edge(pi, y) != ga.has_edge(pi, x)
    for n in (20, 40, 60):
        assert diameter(gadget_samecyc(n, "A")) <= 3
        assert diameter(gadget_samecyc(n, "B", 4)) <= 3
    gb = gadget_samecyc(30, "B", 4)
    xb = gb.find_label("x")
    for i in range(31 - 6):
        pi = gb.find_label(f"p:{i}")
        pi6 = gb.find_label(f"p:{i+6}")  # 2l-2 = 6 for l = 4
        if gb.has_edge(pi, xb):
            assert not gb.has_edge(pi6, xb)


def test_gadget_paths_are_induced_on_labels():
    for g in (
        gadget_cv_unbounded(20),
        gadget_ce_unbounded(20, 3),
        gadget_samecyc(20, "B", 5),
    ):
        ids = [g.find_label(f"p:{i}") for i in range(21)]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                assert g.has_edge(ids[a], ids[b]) == (b - a == 1)


def test_gadget_count_formulas_across_sweeps():
    for n in (4, 9, 17):
        assert gadget_cv_unbounded(n).n == n + 13
        for l in (3, 4, 6):
            g = gadget_ce_unbounded(n, l)
            assert g.n == n + 1 + (2 * l - 3)
        assert gadget_samecyc(n, "A").n == n + 3
        assert gadget_samecyc(n, "B", 3).n == n + 3
    for h in (2, 3, 4):
        assert gadget_triangle_free_cw(h).n == 2 * wall(h).n + 2


def test_subdivided_witnesses():
    b2 = build_family("sub-biclique:2")
    assert b2.n == 8 and diameter(b2) == 4
    assert are_isomorphic(build_family("sub-clique:3"), cycle_graph(9))
    assert diameter(build_family("sub-clique:4")) == 5
    assert diameter(build_family("sub-biclique:3")) == 4


def test_family_spec_round_trip():
    for text in (
        "path:5",
        "cv:12x6,12x8",
        "ce:6,6",
        "apexpath:8,1001",
        "samecyc:40,B,5",
        "wall:3,1",
        "union:cycle:6+path:3",
        "er-polarity:3",
    ):
        spec = parse_family_spec(text)
        assert parse_family_spec(spec.text()) == spec
        g = build_family(spec)
        assert g.n >= 1
    with pytest.raises(ValueError):
        parse_family_spec("nonsense:3")
    with pytest.raises(ValueError):
        parse_family_spec("path")
    for bad in ("cv:abc", "ce:6,", "cv:x6", "path:abc", "apexpath:x,101", "samecyc:40,B,x",
                "path:3,4", "wall:1,2,3", "samecyc:40,B,5,1", "union:cycle:6+path:3,4"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)
    assert parse_family_spec("apexpath:6,0110").args[1] == "0110"
    assert parse_family_spec("spider:1,2,3,4,5").args == (1, 2, 3, 4, 5)  # any leg count


def test_vertex_counts_match_the_builders():
    specs = [
        "path:5", "cycle:7", "clique:6", "biclique:3,4", "spider:2,3,1", "hgraph:3",
        "hgraph:2,3", "cv:12x6,12x8", "ce:6,6,5", "wall:3", "wall:2,2", "apexpath:7,101",
        "gadget-cw:2", "gadget-cw:3", "gadget-cv:8", "gadget-ce:9,4", "samecyc:9,A",
        "samecyc:9,B,4", "sub-biclique:3", "sub-clique:4", "er-polarity:5",
        "union:cycle:5+wall:2+clique:3",
    ]
    assert {parse_family_spec(t).family for t in specs} == set(families._BUILDERS)
    for text in specs:
        spec = parse_family_spec(text)
        assert families._vertex_count(spec) == build_family(spec).n, text


def test_specs_over_the_cap_are_refused_before_building(monkeypatch):
    monkeypatch.setattr(families, "FAMILY_LIMIT", 20)
    assert build_family("wall:2").n == 16
    assert build_family("union:cycle:10+clique:10").n == 20
    for text in ("cycle:21", "wall:2,1", "union:cycle:10+clique:11", "er-polarity:5"):
        with pytest.raises(ValueError, match="over the limit"):
            build_family(text)


def test_apex_path_is_join():
    g = apex_path(5)
    assert are_isomorphic(g, build_family("apexpath:5,1"))
    assert g.degree(5) == 5
