import random

from diamwidth.families import complete_graph, cycle_graph, path_graph, spider
from diamwidth.graphs import ABSENT, BUDGET, Budget, BudgetExhausted, graph_from_edges
from diamwidth.paths import (
    PathWitness,
    _induced_search,
    find_induced_path,
    longest_induced_path,
    longest_path,
    verify_path_witness,
)
from diamwidth.polarity import er_polarity_graph

from oracles import (
    brute_longest_induced_path_vertices,
    brute_longest_path_vertices,
    reference_induced_search,
)


def random_graph(n: int, p: float, seed: int):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def test_longest_induced_path_examples():
    assert longest_induced_path(cycle_graph(6)).num_vertices == 5
    assert longest_induced_path(complete_graph(5)).num_vertices == 2
    assert longest_induced_path(cycle_graph(5)).num_vertices == 4
    w = longest_induced_path(er_polarity_graph(3))
    assert w.exact and w.num_vertices == 8  # pinned by the subset oracle below
    assert verify_path_witness(er_polarity_graph(3), w)


def test_exact_induced_matches_subset_oracle():
    for seed in range(12):
        g = random_graph(8, 0.3, seed)
        w = longest_induced_path(g)
        assert w.exact
        assert w.num_vertices == brute_longest_induced_path_vertices(g)
        assert verify_path_witness(g, w)
    for seed in range(4):  # the full subset oracle up to 10 vertices
        g = random_graph(10, 0.25, 50 + seed)
        assert longest_induced_path(g).num_vertices == (
            brute_longest_induced_path_vertices(g)
        )
    # and the recorded polarity value
    assert brute_longest_induced_path_vertices(er_polarity_graph(2)) == (
        longest_induced_path(er_polarity_graph(2)).num_vertices
    )


def test_longest_path_matches_dfs_oracle():
    for seed in range(12):
        g = random_graph(9, 0.25, seed)
        w = longest_path(g)
        assert w.exact
        assert w.num_vertices == brute_longest_path_vertices(g)
        assert verify_path_witness(g, w)
    assert longest_path(path_graph(7)).num_vertices == 7
    assert longest_path(complete_graph(5)).num_vertices == 5


def test_heuristic_mode_is_flagged_lower_bound():
    g = random_graph(30, 0.15, 5)
    w = longest_path(g)
    assert not w.exact
    assert verify_path_witness(g, w)
    wi = longest_induced_path(g)
    assert not wi.exact
    assert verify_path_witness(g, wi)


def test_find_induced_path_absence_is_exhaustive():
    assert find_induced_path(complete_graph(6), 3) is ABSENT
    w = find_induced_path(spider([3, 3, 3]), 7)
    assert isinstance(w, PathWitness) and w.num_vertices == 7


def test_find_induced_path_agrees_with_longest():
    # the finder reaches a target exactly when the longest induced path has
    # that many vertices, unless its budget runs out first
    assert find_induced_path(graph_from_edges(0, []), 1) is ABSENT
    for seed in range(96):
        n = 1 + seed % 12
        g = random_graph(n, (0.2, 0.35, 0.5, 0.7)[seed // 12 % 4], seed)
        longest = longest_induced_path(g).num_vertices
        for t in range(1, n + 2):
            for budget in (None, 0, 1, 3, 10, 50):
                w = find_induced_path(g, t, budget)
                if budget is None:
                    assert (w is ABSENT) == (t > longest), (seed, t)
                if isinstance(w, PathWitness):
                    assert w.num_vertices == t and w.exact and verify_path_witness(g, w)
                else:
                    assert w is BUDGET or (w is ABSENT and t > longest), (seed, t, budget)


def test_witness_verifier_rejects_bad_paths():
    g = cycle_graph(5)
    assert not verify_path_witness(g, PathWitness((0, 2), "plain", True))
    assert not verify_path_witness(g, PathWitness((0, 1, 2, 3, 4), "induced", True))
    # C5's Hamiltonian path is a plain path only: any other kind is refused
    assert verify_path_witness(g, PathWitness((0, 1, 2, 3, 4), "plain", True))
    for kind in ("Induced", None):
        assert not verify_path_witness(g, PathWitness((0, 1, 2, 3, 4), kind, True))
    # ids that are not vertices: -1 must not index vertex 3 from the end
    p4 = path_graph(4)
    for vertices in ((-1, 2), (0.0, 1), (0, True), None, [0, 1]):
        for kind in ("plain", "induced"):
            assert not verify_path_witness(p4, PathWitness(vertices, kind, True))


def _run_search(search, g, starts, target, budget):
    best: list[int] = []
    try:
        search(g, starts, target, best, budget)
        outcome = "returned"
    except BudgetExhausted:
        outcome = "exhausted"
    return best, outcome, budget.spent


def test_induced_search_matches_the_recursive_reference():
    # node for node: the same best path, outcome and nodes spent as the
    # one-call-per-node search, for a cut anywhere in the search, a search
    # that reaches its target, and one that runs to the end
    exhausted = returned = 0
    for n in range(21, 31):
        g = random_graph(n, 0.2, n)
        starts = sorted(range(n), key=lambda v: (-g.degree(v), v))
        for target in (n, 8):
            for limit in (0, 1, 5, 100, 777, 5000, 40_000, None):
                got = _run_search(_induced_search, g, starts, target, Budget(limit))
                want = _run_search(reference_induced_search, g, starts, target, Budget(limit))
                assert got == want, (n, target, limit)
                exhausted += got[1] == "exhausted"
                returned += got[1] == "returned"
        # a caller's Budget that has already spent nodes is added to
        for spent, limit in ((300, 1_000), (1_000, 1_000), (2_000, 1_000), (50, None)):
            got = _run_search(_induced_search, g, starts, n, Budget(limit, spent))
            want = _run_search(reference_induced_search, g, starts, n, Budget(limit, spent))
            assert got == want, (n, spent, limit)
    assert exhausted and returned


def test_heuristic_induced_path_on_er7_is_pinned():
    # 57 vertices: above the exact limit, so the 500k-node search decides
    g = er_polarity_graph(7)
    w = longest_induced_path(g)
    assert not w.exact
    assert w.vertices == (
        0, 1, 9, 21, 33, 38, 55, 48, 24, 23, 19, 40,
        31, 3, 44, 34, 39, 26, 52, 5, 47, 32, 53, 27,
    )
    assert verify_path_witness(g, w)
