import random

import pytest

from diamwidth import containment
from diamwidth.census import census, census_to_csv
from diamwidth.containment import (
    ABSENT,
    BUDGET,
    Embedding,
    has_induced_subgraph,
    has_minor,
    has_subgraph,
    verify_embedding,
)
from diamwidth.families import (
    apex_path,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    h_graph,
    path_graph,
    spider,
    wall,
)
from diamwidth.graphs import INFINITE, disjoint_union, graph_from_edges

from oracles import (
    atlas_graphs,
    complement,
    brute_has_minor,
    brute_has_subgraph,
    criterion_09_hosts,
    reference_cycles_through_vertex,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_subgraph_examples():
    emb = has_subgraph(complete_bipartite(2, 2), cycle_graph(4))
    assert isinstance(emb, Embedding)
    assert verify_embedding(complete_bipartite(2, 2), cycle_graph(4), emb)
    assert has_subgraph(cycle_graph(7), spider([1, 1, 1])) is ABSENT
    assert has_subgraph(apex_path(20), h_graph(3, 1), budget=None) is ABSENT


def test_induced_examples():
    emb = has_induced_subgraph(cycle_graph(5), path_graph(4))
    assert isinstance(emb, Embedding)
    assert verify_embedding(cycle_graph(5), path_graph(4), emb)
    assert has_induced_subgraph(complete_graph(4), path_graph(3)) is ABSENT
    two_p2 = disjoint_union(path_graph(2), path_graph(2))
    assert has_induced_subgraph(complement(wall(2)), two_p2, budget=None) is ABSENT


def test_minor_examples():
    emb = has_minor(cycle_graph(4), cycle_graph(3))
    assert isinstance(emb, Embedding)
    assert verify_embedding(cycle_graph(4), cycle_graph(3), emb)
    assert has_minor(spider([3, 3, 3]), cycle_graph(3)) is ABSENT
    emb = has_minor(apex_path(5), cycle_graph(3))
    assert isinstance(emb, Embedding)
    assert verify_embedding(apex_path(5), cycle_graph(3), emb)
    assert isinstance(has_minor(PETERSEN(), complete_graph(5)), Embedding)


def test_verify_embedding_rejects_out_of_range_ids():
    c4, p3 = cycle_graph(4), path_graph(3)
    assert verify_embedding(c4, p3, Embedding("subgraph", (0, 1, 2)))
    assert not verify_embedding(c4, p3, Embedding("subgraph", (0, 1, 4)))
    assert not verify_embedding(c4, p3, Embedding("induced", (-1, 0, 1)))
    sets = (frozenset({0}), frozenset({1}), frozenset({2, 7}))
    assert not verify_embedding(c4, p3, Embedding("minor", branch_sets=sets))
    # ids of the wrong type and malformed containers
    for vm in ((0, 1.0, 2), (0, "1", 2), None, [0, 1, 2]):
        for mode in ("subgraph", "induced"):
            assert not verify_embedding(c4, p3, Embedding(mode, vm))
    for sets in (
        ([0], [1], [2]),
        (frozenset({0}), frozenset({1.0}), frozenset({2})),
        (frozenset({0}), frozenset({"1"}), frozenset({2})),
        None,
    ):
        assert not verify_embedding(c4, p3, Embedding("minor", branch_sets=sets))


def PETERSEN():
    return graph_from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
         (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )


def test_matchers_against_brute_force_sample():
    hosts = [random_graph(6, p, s) for p in (0.2, 0.4, 0.6) for s in range(4)]
    pats = [path_graph(3), cycle_graph(3), cycle_graph(4), spider([1, 1, 1]),
            disjoint_union(path_graph(2), path_graph(2))]
    for host in hosts:
        for pat in pats:
            for induced in (False, True):
                fn = has_induced_subgraph if induced else has_subgraph
                got = fn(host, pat, budget=None)
                want = brute_has_subgraph(host, pat, induced)
                assert (got is not ABSENT) == want
                if got is not ABSENT:
                    assert verify_embedding(host, pat, got)


def test_minor_against_brute_force_sample():
    hosts = [random_graph(6, p, s) for p in (0.25, 0.5) for s in range(3)]
    pats = [path_graph(3), cycle_graph(3), cycle_graph(4), complete_graph(4),
            spider([1, 1, 1])]
    for host in hosts:
        for pat in pats:
            got = has_minor(host, pat, budget=None)
            want = brute_has_minor(host, pat)
            assert (got is not ABSENT) == want, (host, pat)
            if got is not ABSENT:
                assert verify_embedding(host, pat, got)


def relabel(g, perm):
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _longest_cycle(g) -> int:
    """The most vertices on a cycle of g (0 if acyclic), by the plain
    anchored-cycle DFS of the oracles."""
    for length in range(g.n, 2, -1):
        if any(reference_cycles_through_vertex(g, v, length, limit=1)[0] for v in range(g.n)):
            return length
    return 0


def test_cycle_minors_against_the_longest_cycle():
    pytest.importorskip("networkx")
    # C_k as given and relabelled so that its ids are not in cyclic order
    patterns = []
    for k in range(3, 8):
        perm = list(range(k))
        random.Random(k).shuffle(perm)
        patterns += [cycle_graph(k), relabel(cycle_graph(k), perm)]
    assert any(not patterns[-1].has_edge(i, i + 1) for i in range(6))  # C7 relabelled
    for host in atlas_graphs():
        longest = _longest_cycle(host)
        for pat in patterns:
            got = has_minor(host, pat, budget=None)
            assert (got is not ABSENT) == (longest >= pat.n), (host, pat)
            if got is not ABSENT:
                assert verify_embedding(host, pat, got)


def test_linear_forest_minors_against_brute_force():
    pytest.importorskip("networkx")
    patterns = [path_graph(k) for k in range(2, 6)]
    patterns += [disjoint_union(path_graph(1), path_graph(3)),
                 disjoint_union(path_graph(2), path_graph(3))]
    for host in (g for g in atlas_graphs() if g.n <= 6):
        for pat in patterns:
            got = has_minor(host, pat, budget=None)
            assert (got is not ABSENT) == brute_has_minor(host, pat), (host, pat)
            if got is not ABSENT:
                assert verify_embedding(host, pat, got)


def test_other_patterns_go_to_the_branch_set_search(monkeypatch):
    calls = []
    search = containment._minor
    monkeypatch.setattr(containment, "_minor", lambda *a: calls.append(a) or search(*a))
    # 2-regular but not connected: not a cycle pattern
    two_c3 = disjoint_union(cycle_graph(3), cycle_graph(3))
    bowtie_path = graph_from_edges(
        7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
    hosts = [two_c3, complete_graph(6), bowtie_path, complete_bipartite(3, 3), cycle_graph(6)]
    for host in hosts:
        got = has_minor(host, two_c3, budget=None)
        assert (got is not ABSENT) == brute_has_minor(host, two_c3), host
        if got is not ABSENT:
            assert verify_embedding(host, two_c3, got)
    # a tree with a degree-3 vertex: a minor of its subdivision, which has
    # no copy of it as a subgraph
    h1, h2 = h_graph(1), h_graph(2)
    assert has_subgraph(h2, h1, budget=None) is ABSENT
    got = has_minor(h2, h1, budget=None)
    assert isinstance(got, Embedding) and verify_embedding(h2, h1, got)
    assert len(calls) == len(hosts) + 1


def test_c6_minors_of_criterion_09_hosts_are_settled():
    # the branch-set search answered BUDGET on both at 50,000 nodes, and
    # host 24 (a 9-cycle) does contain C6
    hosts = criterion_09_hosts()
    c6 = cycle_graph(6)
    emb = has_minor(hosts[24], c6, budget=50_000)
    assert isinstance(emb, Embedding) and verify_embedding(hosts[24], c6, emb)
    assert has_minor(hosts[18], c6, budget=50_000) is ABSENT


CENSUS_C5_MINOR_TD = (
    "n,count,max_width,witness_graph6\n1,1,1,@\n2,1,2,A_\n3,2,3,Bw\n4,6,4,C~\n"
    "5,13,4,Dqw\n6,40,4,EqoG\n"
)


def test_c5_minor_census_rows_are_pinned():
    # as the branch-set search alone computed them
    rows = census(6, cycle_graph(5), "minor", INFINITE, "td")
    assert census_to_csv(rows) == CENSUS_C5_MINOR_TD


def test_containment_hierarchy_properties():
    hosts = [random_graph(7, 0.35, s) for s in range(6)]
    pats = [path_graph(4), cycle_graph(4), spider([1, 2])]
    for host in hosts:
        for pat in pats:
            if has_induced_subgraph(host, pat, budget=None) is not ABSENT:
                assert has_subgraph(host, pat, budget=None) is not ABSENT
            if has_subgraph(host, pat, budget=None) is not ABSENT:
                assert has_minor(host, pat, budget=None) is not ABSENT


def test_budget_is_three_valued():
    host = random_graph(12, 0.5, 1)
    res = has_subgraph(host, complete_graph(6), budget=1)
    assert res is BUDGET
