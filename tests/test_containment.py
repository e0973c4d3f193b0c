import random

from diamwidth.containment import (
    ABSENT,
    BUDGET,
    Embedding,
    find_biclique,
    grs_witness,
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
from diamwidth.graphs import complement, disjoint_union, graph_from_edges
from diamwidth.paths import PathWitness, longest_induced_path
from diamwidth.polarity import er_polarity_graph

from oracles import brute_has_minor, brute_has_subgraph


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


def test_grs_witness():
    w = grs_witness(complete_bipartite(5, 5), 2, 2, 4)
    assert isinstance(w, Embedding)
    assert verify_embedding(complete_bipartite(5, 5), complete_bipartite(2, 2), w)
    w = grs_witness(path_graph(20), 2, 2, 10)
    assert isinstance(w, PathWitness) and w.num_vertices >= 10
    w = grs_witness(er_polarity_graph(5), 2, 2, 6)
    assert isinstance(w, PathWitness)
    w = grs_witness(cycle_graph(5), 2, 2, 6)
    assert w is ABSENT
    # no K_{r,s}-free exhausted graph may still hold a long induced path
    assert longest_induced_path(cycle_graph(5)).num_vertices < 6


def test_find_biclique():
    assert isinstance(find_biclique(complete_bipartite(3, 4), 3, 4), Embedding)
    assert find_biclique(cycle_graph(9), 2, 2) is ABSENT
