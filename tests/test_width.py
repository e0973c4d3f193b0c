import gc
import hashlib
import math
import random

import pytest

from diamwidth.canon import canonical_code
from diamwidth.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gadget_cv_unbounded,
    path_graph,
    spider,
    wall,
)
from diamwidth.graphs import edgeless_graph, graph_from_edges, induced_subgraph
from diamwidth.paths import longest_path
from diamwidth.polarity import er_polarity_graph
from diamwidth.width import (
    EliminationForest,
    SizeLimitError,
    TreeDecomposition,
    WidthResult,
    _q_size,
    _separation,
    pathwidth_exact,
    treedepth_bounds,
    treedepth_exact,
    treewidth_exact,
    verify_certificate,
)

from oracles import atlas_graphs, brute_pathwidth, brute_treedepth, brute_treewidth


def random_connected(n, p, seed):
    rng = random.Random(seed)
    while True:
        g = graph_from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        from diamwidth.graphs import is_connected

        if is_connected(g):
            return g


def test_treedepth_examples():
    assert treedepth_exact(complete_graph(6)).value == 6
    assert treedepth_exact(path_graph(7)).value == 3 == brute_treedepth(path_graph(7))
    assert treedepth_exact(cycle_graph(6)).value == 4 == brute_treedepth(cycle_graph(6))
    assert treedepth_exact(edgeless_graph(0)).value == 0


def test_treedepth_closed_form_on_paths():
    for n in range(1, 25):
        assert treedepth_exact(path_graph(n)).value == math.ceil(math.log2(n + 1))
    for n in range(1, 9):
        assert brute_treedepth(path_graph(n)) == math.ceil(math.log2(n + 1))


def test_pathwidth_examples():
    assert pathwidth_exact(path_graph(9)).value == 1
    for n in range(3, 9):
        assert pathwidth_exact(cycle_graph(n)).value == 2 == brute_pathwidth(cycle_graph(n))
    assert pathwidth_exact(complete_bipartite(3, 3)).value == 3
    assert brute_pathwidth(complete_bipartite(3, 3)) == 3


def test_treewidth_examples():
    assert treewidth_exact(complete_graph(6)).value == 5
    assert treewidth_exact(spider([2, 3, 2])).value == 1
    w = treewidth_exact(wall(2))
    assert 2 <= w.value <= 3
    assert verify_certificate(wall(2), w)


def test_certificates_verify_and_fakes_fail():
    p3 = path_graph(3)
    good = WidthResult("td", 2, EliminationForest((1, -1, 1)), True)
    assert verify_certificate(p3, good)
    fake = WidthResult("td", 1, EliminationForest((1, -1, 1)), True)
    assert not verify_certificate(p3, fake)
    cyclic = WidthResult("td", 2, EliminationForest((1, 0, 1)), True)
    assert not verify_certificate(p3, cyclic)
    out_of_range = WidthResult("td", 2, EliminationForest((1, -1, 3)), True)
    assert not verify_certificate(p3, out_of_range)
    # forged ids and containers are rejected, not raised on
    bags = (frozenset((0, 1)), frozenset((1, 2)))
    for forged in (
        WidthResult("pw", 1, None, True),
        WidthResult("pw", 1, (0.0, 1.0, 2.0), True),
        WidthResult("td", 2, EliminationForest((1.0, -1, 1)), True),
        WidthResult("tw", 1, TreeDecomposition(bags, ((0.0, 1),)), True),
    ):
        assert not verify_certificate(p3, forged)
    assert verify_certificate(p3, WidthResult("tw", 1, TreeDecomposition(bags, ((0, 1),)), True))


def test_tree_decomposition_must_be_a_tree():
    c4 = cycle_graph(4)
    bags = tuple(frozenset((i, (i + 1) % 4)) for i in range(4))
    ring = WidthResult("tw", 1, TreeDecomposition(bags, ((0, 1), (1, 2), (2, 3), (3, 0))), True)
    assert not verify_certificate(c4, ring)
    bad_id = WidthResult("tw", 1, TreeDecomposition(bags, ((0, 1), (1, 2), (2, 4))), True)
    assert not verify_certificate(c4, bad_id)
    # the solver's own decomposition is a tree, also on a disconnected graph
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    res = treewidth_exact(two_triangles)
    assert res.value == 2 and verify_certificate(two_triangles, res)


def test_random_self_consistency_suite():
    rng = random.Random(42)
    for i in range(200):
        n = rng.randrange(4, 9)
        g = random_connected(n, 0.4, i)
        for solver in (treedepth_exact, pathwidth_exact, treewidth_exact):
            res = solver(g)
            assert verify_certificate(g, res), (solver.__name__, g)


def test_width_chain_property():
    for i in range(25):
        g = random_connected(7, 0.35, 100 + i)
        tw = treewidth_exact(g).value
        pw = pathwidth_exact(g).value
        td = treedepth_exact(g).value
        assert tw <= pw <= td


def test_treedepth_subgraph_monotonicity():
    rng = random.Random(3)
    for i in range(12):
        g = random_connected(8, 0.4, 200 + i)
        td = treedepth_exact(g).value
        keep = [v for v in range(g.n) if rng.random() < 0.7]
        if not keep:
            continue
        sub, _ = induced_subgraph(g, keep)
        assert treedepth_exact(sub).value <= td


def test_er_family_growth():
    assert treedepth_exact(er_polarity_graph(2)).value < treedepth_exact(
        er_polarity_graph(3)
    ).value


def test_bounds():
    assert treedepth_bounds(edgeless_graph(1)) == (1, 1)
    lo, hi = treedepth_bounds(path_graph(16))
    assert lo >= 4 and hi <= 16
    assert lo <= treedepth_exact(path_graph(16)).value <= hi
    g = gadget_cv_unbounded(63)
    lo, hi = treedepth_bounds(g)
    assert lo >= 6
    res = treedepth_exact(g)  # over the limit: bounds, not a silent value
    assert not res.exact and res.value is None and res.bounds is not None


def test_fact_sandwich_on_exact_pairs():
    for i in range(10):
        g = random_connected(8, 0.35, 300 + i)
        w = longest_path(g)
        assert w.exact
        td = treedepth_exact(g).value
        lv = w.num_vertices
        assert math.log2(lv) <= td <= lv


def test_size_limits():
    with pytest.raises(SizeLimitError):
        pathwidth_exact(complete_graph(21))
    with pytest.raises(SizeLimitError):
        treewidth_exact(complete_graph(17))


SOLVERS = (treedepth_exact, pathwidth_exact, treewidth_exact)


def gnp(n, seed, p):
    rng = random.Random(seed)
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_solvers_match_brute_force_on_every_graph_up_to_six_vertices():
    graphs = [g for g in atlas_graphs() if g.n <= 6]
    assert len(graphs) == 208
    for g in graphs:
        results = [solver(g) for solver in SOLVERS]
        assert [r.value for r in results] == [
            brute_treedepth(g), brute_pathwidth(g), brute_treewidth(g)
        ], g
        assert all(verify_certificate(g, r) for r in results), g


def test_width_digest_over_every_graph_up_to_seven_vertices():
    """(td, pw, tw) of all 1,252 graphs on 1..7 vertices, digest pinned
    from the former full-table solvers."""
    digest = hashlib.sha1()
    graphs = atlas_graphs()
    assert len(graphs) == 1252
    for g in graphs:
        results = [solver(g) for solver in SOLVERS]
        assert all(verify_certificate(g, r) for r in results), g
        digest.update(bytes(r.value for r in results))
    assert digest.hexdigest() == "299bb434d66102de96e0a723a529c989e9134311"


def _reference_separation(nbrs, inside):
    return sum(1 for u in inside if any(w not in inside for w in nbrs[u]))


def _reference_q_size(nbrs, inside, v):
    # vertices off inside + {v} at the end of a path from v whose interior
    # lies in inside
    seen, todo, found = {v}, [v], set()
    while todo:
        for w in nbrs[todo.pop()]:
            if w in seen:
                continue
            seen.add(w)
            if w in inside:
                todo.append(w)
            else:
                found.add(w)
    return len(found)


def test_width_steps_match_set_references():
    # every (mask, v) of the graphs up to six vertices, and 2,000 seeded
    # masks of each width graph of the solvers corpus
    rng = random.Random(25)
    cases = [(g, range(1 << g.n)) for g in atlas_graphs() if g.n <= 6]
    cases += [(g, [rng.getrandbits(n) for _ in range(2_000)])
              for n in (13, 14, 18) for g in [gnp(n, n, 0.3)]]
    for g, masks in cases:
        nbrs = [[w for w in range(g.n) if g.has_edge(u, w)] for u in range(g.n)]
        for mask in masks:
            inside = {v for v in range(g.n) if mask >> v & 1}
            assert _separation(g, mask) == _reference_separation(nbrs, inside), (g.adj, mask)
            for v in range(g.n):
                assert _q_size(g, mask, v) == _reference_q_size(nbrs, inside, v), (g.adj, mask, v)


@pytest.mark.parametrize(
    "n, seed, m, td, pw, tw",
    [
        (13, 13, 26, 7, 4, 4),
        (14, 14, 32, 7, 4, 4),
        (18, 18, 46, 9, 7, None),  # tw = pw, past TW_LIMIT
        (16, 104, 38, 8, 6, 5),  # tw < pw: pw fails k = 5 before k = 6
    ],
)
def test_pinned_widths_of_random_graphs(n, seed, m, td, pw, tw):
    g = gnp(n, seed, 0.3)
    assert len(list(g.edges())) == m
    for solver, value in zip(SOLVERS, (td, pw, tw)):
        if value is not None:
            res = solver(g)
            assert res.value == value and verify_certificate(g, res), solver.__name__


def test_degenerate_graphs():
    for n in (0, 1, 5):
        g = edgeless_graph(n)
        assert [s(g).value for s in SOLVERS] == [min(n, 1), 0, 0]
        assert all(verify_certificate(g, s(g)) for s in SOLVERS)
    for n in (1, 2, 6, 9):
        g = complete_graph(n)
        results = [s(g) for s in SOLVERS]
        assert [r.value for r in results] == [n, n - 1, n - 1]
        assert all(verify_certificate(g, r) for r in results)
    # components of different widths: K4 + C5 + P3 + K1
    g = graph_from_edges(
        13,
        [(a, b) for a in range(4) for b in range(a + 1, 4)]
        + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
        + [(9, 10), (10, 11)],
    )
    results = [s(g) for s in SOLVERS]
    assert [r.value for r in results] == [4, 3, 3]
    assert all(verify_certificate(g, r) for r in results)


def test_solvers_leave_no_cyclic_garbage():
    # a recursive closure is a reference cycle: its memo would outlive the
    # call until the garbage collector ran
    enabled = gc.isenabled()
    gc.disable()
    try:
        for g in (gnp(14, 14, 0.3), complete_bipartite(4, 5)):
            for solve in (canonical_code, *SOLVERS):
                gc.collect()
                solve(g)
                assert gc.collect() == 0, (solve.__name__, g)
    finally:
        if enabled:
            gc.enable()
