import hashlib

import pytest

from diamwidth import census as census_module
from diamwidth.canon import canonical_code
from diamwidth.census import (
    _SOLVERS,
    _deletion_key,
    _last_may_be_first,
    _orbit_minimal_masks,
    CensusRow,
    census,
    census_to_csv,
    enumerate_connected_graphs,
    is_pattern_free,
)
from diamwidth.families import build_family, complete_graph, path_graph
from diamwidth.formats import from_graph6, to_graph6
from diamwidth.graphs import INFINITE, component_masks, delete_vertex, diameter
from diamwidth.width import _width_upper_bound, treedepth_exact
from oracles import atlas_graphs


def test_connected_counts_anchor():
    assert [len(l) for l in enumerate_connected_graphs(6)[1:]] == [1, 1, 2, 6, 21, 112]


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


def test_level_eight_is_pinned():
    # 11,117 connected graphs on 8 vertices (OEIS A001349); the digest is
    # that of the enumeration without the canonical-deletion test
    levels = enumerate_connected_graphs(8)
    assert len(levels[8]) == 11117
    assert _digest(levels) == (
        "7a550a0a4f230e0be41d47674bb669c8811e1c5e6aa2b8939fa1cb5450d14d8f"
    )


def test_deletion_key_orders_the_canonical_prefix():
    pytest.importorskip("networkx")
    for g in atlas_graphs():
        if g.n > 6:
            continue
        keys = [_deletion_key(g.adj, g.degrees, v) for v in range(g.n)]
        # (n, m, sorted degrees) of G - v: 1 + 2 + (n - 1) bytes
        prefixes = [canonical_code(delete_vertex(g, v))[: g.n + 2] for v in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert (keys[u] < keys[v]) == (prefixes[u] < prefixes[v])
                assert (keys[u] == keys[v]) == (prefixes[u] == prefixes[v])


def test_representatives_pass_the_deletion_test(unpruned):
    # each representative was built from G - w with w its last vertex
    for level in unpruned:
        for g in level:
            assert _last_may_be_first(g.adj)


def test_canonical_code_calls_are_pinned(monkeypatch):
    calls = []
    monkeypatch.setattr(
        census_module, "canonical_code", lambda g, **kw: calls.append(g) or canonical_code(g, **kw)
    )
    enumerate_connected_graphs(7)
    assert len(calls) == 1033  # 4,159 without the canonical-deletion test
    # a census asks keep before the canonical form: 483, 178 and 712 calls
    # when keep was asked of each class after it
    for spec, relation, expect in (
        ("cycle:4", "subgraph", 92),
        ("path:4", "induced", 144),
        ("cycle:5", "minor", 192),
    ):
        forbidden = build_family(spec)
        calls.clear()
        enumerate_connected_graphs(7, lambda g: is_pattern_free(g, forbidden, relation))
        assert len(calls) == expect, spec


def test_orbit_minimal_masks():
    assert _orbit_minimal_masks(3, []) == list(range(1, 8))
    # S3 on three points: one orbit per nonempty subset size
    s3 = [(1, 0, 2), (1, 2, 0)]
    assert _orbit_minimal_masks(3, s3) == [1, 3, 7]
    # the reflection of P4 (0-1-2-3)
    assert _orbit_minimal_masks(4, [(3, 2, 1, 0)]) == [1, 2, 3, 5, 6, 7, 9, 11, 15]


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


@pytest.fixture(scope="module")
def unpruned():
    return enumerate_connected_graphs(7)


@pytest.mark.parametrize("spec, relation, n_max", [
    ("cycle:4", "subgraph", 7),
    ("path:4", "induced", 7),
    ("path:1", "subgraph", 7),  # K1: nothing is free of it
    ("cycle:5", "minor", 6),
])
def test_pruned_levels_are_the_filtered_levels(unpruned, spec, relation, n_max):
    forbidden = build_family(spec)

    def keep(g):
        return is_pattern_free(g, forbidden, relation)

    pruned = enumerate_connected_graphs(n_max, keep)
    assert len(pruned) == n_max + 1
    for n in range(n_max + 1):
        expected = [to_graph6(g) for g in unpruned[n] if keep(g)]
        assert [to_graph6(g) for g in pruned[n]] == expected
    if spec == "path:1":
        assert not any(pruned)


def _reference_rows(levels, n_max, free, d, width):
    """Unpruned levels, filtered afterwards, the exact width of every graph."""
    rows = []
    for n in range(1, n_max + 1):
        kept = [g for g in levels[n] if free[to_graph6(g)] and diameter(g) <= d]
        widths = [width[to_graph6(g)] for g in kept]
        best = max(widths, default=None)
        witness = to_graph6(kept[widths.index(best)]) if kept else None
        rows.append(CensusRow(n, len(kept), best, witness))
    return rows


def test_census_matches_the_unpruned_reference(unpruned):
    graphs = [g for level in unpruned[:7] for g in level]
    exact = {p: {to_graph6(g): solver(g).value for g in graphs} for p, solver in _SOLVERS.items()}
    for spec in ("cycle:4", "path:4", "clique:3"):
        forbidden = build_family(spec)
        for relation in ("subgraph", "induced", "minor"):
            free = {to_graph6(g): is_pattern_free(g, forbidden, relation) for g in graphs}
            for parameter in ("td", "pw", "tw"):
                for d in (1, 2, 3, INFINITE):
                    got = census(6, forbidden, relation, d, parameter)
                    want = _reference_rows(unpruned, 6, free, d, exact[parameter])
                    assert census_to_csv(got) == census_to_csv(want), (spec, relation, parameter, d)


def test_width_upper_bounds_hold(unpruned):
    for level in unpruned:
        for g in level:
            for parameter, solver in _SOLVERS.items():
                assert _width_upper_bound(g, parameter) >= solver(g).value


@pytest.mark.parametrize("parameter", ["pw", "tw"])
def test_census_solves_only_where_the_maximum_can_rise(monkeypatch, parameter):
    calls = []
    solver = _SOLVERS[parameter]
    monkeypatch.setitem(_SOLVERS, parameter, lambda g: calls.append(g) or solver(g))
    rows = census(6, path_graph(8), "subgraph", INFINITE, parameter)
    assert [r.count for r in rows] == [1, 1, 2, 6, 21, 112]
    assert [r.max_width for r in rows] == [0, 1, 2, 3, 4, 5]
    assert len(calls) < 36  # of 143 graphs: 31 for pw, 16 for tw


def test_census_computes_no_diameter_for_unbounded_d(monkeypatch):
    def diameter_not_needed(g):
        raise AssertionError("every level graph is connected")

    monkeypatch.setattr(census_module, "diameter", diameter_not_needed)
    rows = census(5, complete_graph(3), "subgraph", INFINITE, "td")
    assert [r.count for r in rows] == [1, 1, 1, 3, 6]


def test_census_rejects_bad_diameter_and_order():
    for d in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="d must be an integer >= 1 or infinity"):
            census(4, complete_graph(3), "subgraph", d, "td")
    for n_max in (0, True, False, 2.0):
        with pytest.raises(ValueError, match="n_max"):
            census(n_max, complete_graph(3), "subgraph", 2, "td")


def test_enumeration_rejects_orders_below_one():
    for n_max in (0, -1, True, 1.0):
        with pytest.raises(ValueError, match="n_max"):
            enumerate_connected_graphs(n_max)
    assert [len(level) for level in enumerate_connected_graphs(1)] == [0, 1]
