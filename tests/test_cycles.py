import random

import pytest

from diamwidth import cycles
from diamwidth.atlas import DEFAULT_CLASSIFY_BUDGET, PREDICATES
from diamwidth.containment import ABSENT, has_subgraph
from diamwidth.cycles import (
    CyclePacking,
    FreenessCertificate,
    cycle_packing,
    cycles_through_edge,
    cycles_through_vertex,
    find_cycle_subgraph,
    verify_packing,
    vtype_or_etype_free,
)
from diamwidth.families import (
    complete_bipartite,
    complete_graph,
    cycle_bouquet,
    cycle_graph,
    gadget_cv_unbounded,
    gadget_samecyc,
    path_graph,
    spider,
)
from diamwidth.graphs import (
    BUDGET,
    Budget,
    BudgetExhausted,
    graph_from_edges,
    induced_subgraph,
    is_bipartite,
)

from oracles import (
    atlas_graphs,
    reference_cycles_through_edge,
    reference_cycles_through_vertex,
    reference_packing,
)


def test_cycle_enumeration_counts():
    cv = cycle_bouquet([6, 6], "vertex")
    hub = cv.find_label("hub")
    assert len(cycles_through_vertex(cv, hub, 6)) == 2
    other = (hub + 1) % cv.n
    assert len(cycles_through_vertex(cv, other, 6)) == 1
    ce = cycle_bouquet([6, 6], "edge")
    u, v = ce.find_label("hub"), ce.find_label("hub2")
    assert len(cycles_through_edge(ce, u, v, 6)) == 2
    c6 = cycle_graph(6)
    assert len(cycles_through_vertex(c6, 0, 6)) == 1  # no double counting of orientations


def test_find_cycle_subgraph():
    assert find_cycle_subgraph(cycle_graph(6), 6) == (0, 1, 2, 3, 4, 5)
    assert find_cycle_subgraph(cycle_graph(6), 5) is ABSENT
    assert find_cycle_subgraph(spider([2, 2, 2]), 4) is ABSENT


def searched(g, length):
    """The first C_length by minimum vertex, with no vertex left out."""
    for v in range(g.n):
        cyc = cycles_through_vertex(g, v, length, (1 << v) - 1, 1, None)
        if cyc:
            return cyc[0]
    return ABSENT


def test_bipartite_hosts_are_settled_as_the_search_answers():
    """Odd cycles are absent from bipartite hosts, and so is a C_2m when no
    component of the 2-core has m vertices on each side: on every
    bipartite graph with <= 7 vertices the answer is the search's."""
    settled = 0
    for g in filter(is_bipartite, atlas_graphs()):
        for length in range(3, 9):
            settled += cycles._bipartite_lacks_cycle(g, length)
            assert find_cycle_subgraph(g, length, None) == searched(g, length), (g, length)
    assert settled > 0
    # settled without a search: no node of the budget is spent
    assert find_cycle_subgraph(complete_bipartite(4, 4), 7, 1) is ABSENT
    assert find_cycle_subgraph(complete_bipartite(2, 5), 6, 1) is ABSENT
    assert find_cycle_subgraph(complete_bipartite(3, 3), 6, 1) is BUDGET
    # a tree-like tail off a C4 is stripped before the sides are counted
    c4_tail = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6)])
    assert cycles._bipartite_lacks_cycle(c4_tail, 6)
    assert find_cycle_subgraph(c4_tail, 4) == (0, 1, 2, 3)


def test_surplus_twins_leave_the_answer_as_it_was():
    # random hosts with classes of degree-2 twins, labels shuffled: the
    # search that skips twins past two per class finds the cycle that the
    # search over every vertex finds first
    rng = random.Random(25)
    skipped = 0
    for _ in range(150):
        n = rng.randint(4, 8)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35}
        m = n
        for _ in range(rng.randint(1, 2)):
            x, y = rng.sample(range(n), 2)
            for _ in range(rng.randint(2, 4)):
                edges |= {(x, m), (y, m)}
                m += 1
        perm = rng.sample(range(m), m)
        g = graph_from_edges(m, [(perm[u], perm[v]) for u, v in edges])
        skipped += cycles._surplus_twins(g) != 0
        for length in range(3, 9):
            assert find_cycle_subgraph(g, length, None) == searched(g, length), (g.adj, length)
    assert skipped > 0


def test_packing_examples():
    cv = cycle_bouquet([6, 6], "vertex")
    hub = cv.find_label("hub")
    res = cycle_packing(cv, ("vertex", hub), {6: 2})
    assert isinstance(res, CyclePacking) and verify_packing(cv, res, {6: 2})
    assert cycle_packing(cv, ("vertex", (hub + 1) % cv.n), {6: 2}) is ABSENT
    ce = cycle_bouquet([6, 6], "edge")
    u, v = ce.find_label("hub"), ce.find_label("hub2")
    res = cycle_packing(ce, ("edge", u, v), {6: 2})
    assert isinstance(res, CyclePacking) and verify_packing(ce, res, {6: 2})
    for quotas in ({5: 1}, {5: 2}):  # a non-edge anchor, whatever its degrees
        with pytest.raises(ValueError):
            cycle_packing(cycle_graph(5), ("edge", 0, 2), quotas)
    with pytest.raises(ValueError):
        cycle_packing(cv, ("vertex", hub), {6: -1})
    assert cycle_packing(cv, ("vertex", hub), {6: 0}).cycles == ()
    for mode in ("vertex", "edge"):
        with pytest.raises(ValueError):
            vtype_or_etype_free(cv, [], mode)
        for host in (cv, path_graph(2)):  # P2: no anchor has room for a cycle
            with pytest.raises(ValueError):
                vtype_or_etype_free(host, [6, 2], mode)
    # eleven 8-cycles block twelve, though the hub's degree and a blocking
    # set for both lengths leave room for 24 cycles
    near = cycle_bouquet([6] * 20 + [8] * 11, "vertex")
    assert cycle_packing(near, ("vertex", near.find_label("hub")), {6: 12, 8: 12}) is ABSENT
    assert PREDICATES["contains_cv_12x6_12x8"](near, Budget(DEFAULT_CLASSIFY_BUDGET)) is False
    assert vtype_or_etype_free(near, [6] * 12 + [8] * 12, "vertex").free


def test_verify_packing_rejects_forgeries():
    c5 = cycle_graph(5)
    whole = (0, 1, 2, 3, 4)
    assert verify_packing(c5, CyclePacking(("vertex", 0), (whole,)), {5: 1})
    assert verify_packing(c5, CyclePacking(("edge", 0, 1), (whole,)), {5: 1})
    for anchor, cycles, quotas in (
        # an edge walked there and back is no cycle
        (("vertex", 0), ((0, 1),), {2: 1}),
        (("edge", 0, 1), ((0, 1),), {2: 1}),
        # the cycle misses the anchor, or repeats a vertex
        (("vertex", 0), ((1, 2, 3),), {3: 1}),
        (("vertex", 0), ((0, 1, 0, 4),), {4: 1}),
        # anchors and cycle vertices that are not vertex ids
        (("vertex", -1), ((4, 0, 1, 2, 3),), {5: 1}),
        (("vertex", 0.0), (whole,), {5: 1}),
        (("vertex", 0), ((0.0, 1, 2, 3, 4),), {5: 1}),
        (("vertex", 0), ((-5, 1, 2, 3, 4),), {5: 1}),
        (("edge", 0), (whole,), {5: 1}),
        (("edge", 0, 1, 2), (whole,), {5: 1}),
        (("face", 0), (whole,), {5: 1}),
        ((), (whole,), {5: 1}),
        (("vertex", 0), [whole], {5: 1}),
        (("vertex", 0), ([0, 1, 2, 3, 4],), {5: 1}),
    ):
        assert not verify_packing(c5, CyclePacking(anchor, cycles), quotas), (anchor, cycles)


def test_a_packing_needs_the_vertices_of_its_cycles():
    # two 8-cycles sharing only the hub need 15 vertices: K14 has too few,
    # though it has millions of anchored 8-cycles and room at every vertex
    k14, k15 = complete_graph(14), complete_graph(15)
    assert cycle_packing(k14, ("vertex", 0), {8: 2}, budget=None) is ABSENT
    assert vtype_or_etype_free(k14, [8, 8], "vertex", None).free
    res = cycle_packing(k15, ("vertex", 0), {8: 2}, budget=None)
    assert isinstance(res, CyclePacking) and verify_packing(k15, res, {8: 2})
    # at an edge anchor the two shared vertices count once
    assert cycle_packing(k14, ("edge", 0, 1), {8: 2}, budget=None) is not ABSENT
    assert cycle_packing(k14, ("edge", 0, 1), {8: 1, 7: 1}, budget=None) is not ABSENT
    assert cycle_packing(k14, ("edge", 0, 1), {8: 2, 3: 1}, budget=None) is ABSENT


def test_the_pool_cap_is_the_only_unbudgeted_budget(monkeypatch):
    # the combination search decides this instance over its enumerated pool
    rng = random.Random(3)
    g = graph_from_edges(
        11, [(u, v) for u in range(11) for v in range(u + 1, 11) if rng.random() < 0.6]
    )
    args = (g, ("edge", 0, 2), {4: 4})
    assert isinstance(cycle_packing(*args, budget=None), CyclePacking)
    monkeypatch.setattr(cycles, "ENUMERATION_CAP", 2)
    assert cycle_packing(*args, budget=None) is BUDGET
    with pytest.raises(BudgetExhausted):  # a caller's Budget: its creator converts
        cycle_packing(*args, budget=Budget(None))


def test_cv_gadget_packing_refuted():
    g = gadget_cv_unbounded(32)
    anchor = ("vertex", g.find_label("Z:x:0,1"))
    assert cycle_packing(g, anchor, {8: 12}) is ABSENT


def test_vtype_etype_free_certificates():
    ce = cycle_bouquet([6, 6], "edge")
    cert = vtype_or_etype_free(ce, [6, 6], "edge")
    assert isinstance(cert, FreenessCertificate) and not cert.free
    assert verify_packing(ce, cert.witness, {6: 2})
    cert = vtype_or_etype_free(cycle_graph(12), [6, 6], "vertex")
    assert cert.free


def test_vtype_etype_cross_validation_with_direct_containment():
    rng = random.Random(7)
    patterns = [
        ([4, 4], "vertex"), ([3, 5], "vertex"), ([4, 4, 4], "vertex"),
        ([3, 3], "edge"), ([4, 6], "edge"), ([3, 3, 3], "edge"),
    ]
    hosts = []
    for seed in range(8):
        n = rng.randrange(8, 12)
        p = 0.3
        r2 = random.Random(seed * 97 + 5)
        hosts.append(
            graph_from_edges(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if r2.random() < p],
            )
        )
    hosts.append(cycle_bouquet([4, 4], "vertex"))
    hosts.append(cycle_bouquet([3, 3, 3], "edge"))
    for lengths, mode in patterns:
        pattern = cycle_bouquet(lengths, mode)
        for host in hosts:
            cert = vtype_or_etype_free(host, lengths, mode, budget=None)
            direct = has_subgraph(host, pattern, budget=None)
            assert cert.free == (direct is ABSENT), (lengths, mode, host)


def test_samecyc_restricted_side_has_no_c8():
    g = gadget_samecyc(40, "B", 4)
    path = [g.find_label(f"p:{i}") for i in range(41)]
    ids = path + [g.find_label("x")]
    sub, _ = induced_subgraph(g, ids)
    assert find_cycle_subgraph(sub, 8, budget=None) is ABSENT
    ids = path + [g.find_label("y")]
    sub, _ = induced_subgraph(g, ids)
    assert find_cycle_subgraph(sub, 8, budget=None) is ABSENT


def test_enumerators_match_reference_dfs():
    """The plain DFS's cycles, in its order and up to the limit, or BUDGET
    only when a budget was given; an unlimited enumeration spends the
    DFS's nodes, the last level's candidates included."""
    rng = random.Random(2024)
    for trial in range(60):
        n = 5 + trial % 8
        p = (0.3, 0.5, 0.8)[trial % 3]
        g = graph_from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        edges = list(g.edges())
        for length in range(3, 9):
            for limit in (None, 1, 2):
                for budget in (None, 0, 1, 2, 3, 5, 8, 13, 21, 34):
                    avoid = rng.getrandbits(n) & rng.getrandbits(n) if trial % 2 else 0
                    v = rng.randrange(n)
                    runs = [(cycles_through_vertex, reference_cycles_through_vertex, (v,))]
                    if edges:
                        a, b = edges[rng.randrange(len(edges))]
                        runs.append((cycles_through_edge, reference_cycles_through_edge, (b, a)))
                    for enum, reference, anchor in runs:
                        want, nodes = reference(g, *anchor, length, avoid, limit)
                        got = enum(g, *anchor, length, avoid, limit, budget)
                        assert got == want or (got is BUDGET and budget is not None)
                        if limit is None and budget is None:
                            spent = Budget(None)
                            enum(g, *anchor, length, avoid, None, spent)
                            assert spent.spent == nodes


def test_packing_matches_brute_force():
    """Packing or ABSENT exactly as brute force says, at both anchor kinds,
    with the cycle count set around the anchor-degree bound: deg(v) // 2 at
    a vertex, min(deg u, deg v) - 1 at an edge uv."""
    rng = random.Random(6)
    sides = set()
    for trial in range(400):
        n = rng.randrange(5, 11)
        lengths = rng.sample(range(3, 7), rng.choice((1, 2)))
        p = rng.choice((0.5, 0.8) if max(lengths) <= 4 else (0.3, 0.5))
        g = graph_from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        edges = list(g.edges())
        if trial % 2 and edges:
            u, v = edges[rng.randrange(len(edges))]
            anchor = ("edge", u, v)
            room = min(g.degree(u), g.degree(v)) - 1
        else:
            v = rng.randrange(n)
            anchor = ("vertex", v)
            room = g.degree(v) // 2
        total = min(4, max(1, room + rng.choice((-1, 0, 0, 1))))
        quotas: dict[int, int] = {}
        for i in range(total):
            length = lengths[i % len(lengths)]
            quotas[length] = quotas.get(length, 0) + 1
        res = cycle_packing(g, anchor, quotas)
        ref = reference_packing(g, anchor, quotas)
        assert isinstance(res, CyclePacking) == (ref is not None), (trial, anchor, quotas)
        if ref is None:
            assert res is ABSENT
        else:
            assert verify_packing(g, res, quotas)
        sides.add((anchor[0], (room > total) - (room < total), ref is not None))
    # packings at the bound itself, and anchors on both sides of it
    for kind in ("vertex", "edge"):
        assert {(kind, 0, True), (kind, -1, False), (kind, 1, True)} <= sides
