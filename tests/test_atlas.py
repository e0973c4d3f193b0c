import hashlib
import json
import math
import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from diamwidth import atlas
from diamwidth.atlas import (
    PARAMETERS,
    PREDICATES,
    RELATIONS,
    RegistryConsistencyError,
    classify,
    citation_statement,
    has_c4,
    in_script_s,
    is_apex_forest,
    is_apex_linear_forest,
    load_registry,
    parse_etype,
    parse_vtype,
    reduce_components,
    subgraph_of_subdivided_star,
    subgraph_of_uniform_vtype,
)
from diamwidth.containment import ABSENT, has_subgraph
from diamwidth.families import (
    apex_path,
    complete_bipartite,
    complete_graph,
    cycle_bouquet,
    cycle_graph,
    h_graph,
    path_graph,
    patterned_apex_path,
    spider,
)
from diamwidth.canon import are_isomorphic, canonical_code
from diamwidth.census import enumerate_connected_graphs
from diamwidth.graphs import (
    Budget,
    BudgetExhausted,
    delete_vertex,
    disjoint_union,
    graph_from_edges,
)
from diamwidth.planarity import is_apex_planar
from diamwidth.polarity import er_polarity_graph, max_common_neighbors
from catalog import CATALOG
from oracles import (
    atlas_graphs,
    reference_in_script_s,
    reference_is_apex_forest,
    reference_is_apex_linear_forest,
    reference_reduce_components,
    to_networkx,
)

INF = math.inf


def holds(name, g):
    return PREDICATES[name](g, None)


def test_predicate_examples():
    c6 = cycle_graph(6)
    assert holds("bipartite", c6) and holds("unicyclic", c6)
    assert not holds("c4_subgraph", c6)
    assert holds("c4_subgraph", complete_graph(4))
    assert holds("apex_linear_forest", c6)
    claw = spider([2, 2, 2])
    assert holds("sstar_subgraph", claw) and holds("script_s", claw)
    assert not holds("sstar_subgraph", h_graph(2, 3))
    assert holds("hgraph2_subgraph", h_graph(2, 3))
    assert holds("clique", complete_graph(4))
    assert holds("in_p2", path_graph(2))
    lengths = (8, 10, 11, 24, 26)
    assert [holds("even_cycle_10_to_24", cycle_graph(k)) for k in lengths] == [
        False, True, False, True, False
    ]
    lengths = (3, 5, 6, 7)
    assert [holds("odd_cycle_ge5", cycle_graph(k)) for k in lengths] == [
        False, True, False, True
    ]


def test_vtype_etype_parses():
    assert parse_vtype(cycle_bouquet([6, 8], "vertex")) == (6, 8)
    assert parse_vtype(cycle_graph(8)) is None
    assert parse_vtype(cycle_bouquet([3, 3, 5], "vertex")) == (3, 3, 5)
    assert parse_etype(cycle_bouquet([6, 6], "edge")) == (6, 6)
    assert parse_etype(cycle_bouquet([3, 3, 3], "edge")) == (3, 3, 3)
    assert parse_etype(cycle_bouquet([6, 6], "vertex")) is None
    assert parse_vtype(spider([2, 2, 2])) is None
    parsers = {"vertex": parse_vtype, "edge": parse_etype}
    # a graph that parses is the bouquet of its parsed lengths
    for g in atlas_graphs():
        for mode, parse in parsers.items():
            lengths = parse(g)
            assert lengths is None or are_isomorphic(g, cycle_bouquet(list(lengths), mode))
    # every bouquet parses to its own lengths; near-misses parse to nothing
    for k in (2, 3, 4):
        for lengths in combinations_with_replacement(range(3, 9), k):
            for mode, parse in parsers.items():
                b = cycle_bouquet(list(lengths), mode)
                assert parse(b) == lengths
                n, edges = b.n, list(b.edges())
                near = [
                    graph_from_edges(n + 1, edges + [(n - 1, n)]),  # pendant edge
                    graph_from_edges(n + 1, edges),  # isolated vertex
                    graph_from_edges(n + 3, edges + [(n, n + 1), (n + 1, n + 2), (n + 2, n)]),
                ]
                if mode == "vertex":  # a petal from the hub closed at a petal vertex
                    near.append(graph_from_edges(n + 1, edges + [(0, n), (n, 2)]))
                else:  # petals closed at one hub only, then one at each hub
                    at_0 = edges + [(0, n), (n, n + 1), (n + 1, 0)]
                    near.append(graph_from_edges(n + 2, at_0))
                    at_1 = [(1, n + 2), (n + 2, n + 3), (n + 3, 1)]
                    near.append(graph_from_edges(n + 4, at_0 + at_1))
                for g in near:
                    assert parse_vtype(g) is None and parse_etype(g) is None, (mode, lengths)


def test_uniform_vtype_subgraph_recognizer():
    assert subgraph_of_uniform_vtype(cycle_bouquet([6, 6, 6], "vertex"))
    assert subgraph_of_uniform_vtype(cycle_graph(8))
    assert subgraph_of_uniform_vtype(spider([4, 4, 4]))  # acyclic case
    assert not subgraph_of_uniform_vtype(cycle_bouquet([6, 8], "vertex"))
    assert not subgraph_of_uniform_vtype(cycle_graph(4))  # needs length >= 6
    assert not subgraph_of_uniform_vtype(cycle_bouquet([6, 6], "edge"))
    assert not subgraph_of_uniform_vtype(h_graph(2, 2))  # two branch vertices
    # cross-check against direct containment into a generated bouquet
    from diamwidth.families import cycle_bouquet as bouquet

    host = bouquet([6] * 6, "vertex")
    for g in (cycle_bouquet([6, 6], "vertex"), cycle_graph(6), spider([5, 5])):
        assert subgraph_of_uniform_vtype(g) == (
            has_subgraph(host, g, budget=None) is not ABSENT
        )


def test_hgraph2_level_none_cases():
    # graphs in no level of the spine-2 H-graphs, and two in the first
    assert not holds("hgraph2_subgraph", cycle_graph(6))
    assert not holds("hgraph2_subgraph", spider([1] * 4))  # degree 4 center
    assert not holds("hgraph2_subgraph", h_graph(3, 1))  # spine too long
    assert holds("hgraph2_subgraph", h_graph(2, 1))
    assert holds("hgraph2_subgraph", path_graph(5))


def test_hgraph2_predicate_matches_subgraph_search():
    # F is a subgraph of some spine-2 H-graph iff of one of level <= |F|
    for g in atlas_graphs():
        in_some_level = any(
            has_subgraph(h_graph(2, level), g, budget=None) is not ABSENT
            for level in range(1, g.n + 1)
        )
        assert holds("hgraph2_subgraph", g) == in_some_level


def test_script_s_and_sstar():
    assert in_script_s(disjoint_union(path_graph(4), spider([2, 3, 1])))
    assert not in_script_s(spider([1, 1, 1, 1]))  # degree-4 centre
    assert subgraph_of_subdivided_star(spider([1, 1, 1, 1]))
    two_claws = disjoint_union(spider([1, 1, 1]), spider([1, 1, 1]))
    assert in_script_s(two_claws)
    assert not subgraph_of_subdivided_star(two_claws)


def test_predicates_agree_with_containment_definitions():
    # apex linear forest iff subgraph of a long dominated path; spider-class
    # membership iff subgraph of a universal subdivided star
    for level in enumerate_connected_graphs(6)[1:]:
        for g in level:
            host = apex_path(2 * g.n)
            via_containment = has_subgraph(host, g, budget=None) is not ABSENT
            assert holds("apex_linear_forest", g) == via_containment
            star_host = spider([g.n] * g.n)
            in_star = has_subgraph(star_host, g, budget=None) is not ABSENT
            assert holds("sstar_subgraph", g) == in_star
    # spot the same agreement on 7-vertex graphs
    import random as _random

    rng = _random.Random(5)
    level7 = enumerate_connected_graphs(7)[7]
    for g in rng.sample(level7, 40):
        host = apex_path(2 * g.n)
        via_containment = has_subgraph(host, g, budget=None) is not ABSENT
        assert holds("apex_linear_forest", g) == via_containment


def test_reduce_components():
    got = reduce_components(disjoint_union(cycle_graph(6), path_graph(3)))
    assert got.n == 6 and got.m == 6
    got = reduce_components(disjoint_union(path_graph(3), path_graph(9)))
    assert got.n == 9
    g = cycle_graph(5)
    assert reduce_components(g) is g
    two = disjoint_union(cycle_graph(4), cycle_graph(5))
    assert reduce_components(two) == two
    assert reduce_components(reduce_components(two)) == two


def test_forest_recognizers_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in atlas_graphs():  # disconnected graphs included
        h = to_networkx(g)
        assert is_apex_forest(g) == reference_is_apex_forest(h)
        assert is_apex_linear_forest(g) == reference_is_apex_linear_forest(h)
        assert in_script_s(g) == reference_in_script_s(h)
        keep = reference_reduce_components(h)
        got = reduce_components(g)
        if keep is None:
            assert got is g
        else:
            assert nx.is_isomorphic(to_networkx(got), h.subgraph(keep))


def _graphs_beyond_the_atlas():
    """Seeded G(n, p) for n = 8..30, every catalog forbidden graph, C_n,
    K_n, K_{s,t} and ER_q: graphs on which the apex and C4 filters of
    ``atlas`` and ``planarity`` are compared with their references."""
    rng = random.Random(24)
    graphs = []
    for n in range(8, 31):
        for p in (1.0 / n, 1.5 / n, 2.5 / n, 0.15, 0.3):
            graphs.append(graph_from_edges(
                n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]))
    for _label, factory, *_rest in CATALOG:
        made = factory()
        graphs.extend(made if isinstance(made, list) else [made])
    graphs += [cycle_graph(n) for n in range(3, 31)]
    graphs += [complete_graph(n) for n in range(1, 10)]
    graphs += [complete_bipartite(s, t) for s in range(1, 5) for t in range(s, 7)]
    graphs += [er_polarity_graph(q) for q in (2, 3, 5, 7)]
    return graphs


def test_filtered_recognizers_match_references_beyond_the_atlas():
    nx = pytest.importorskip("networkx")
    for g in _graphs_beyond_the_atlas():
        h = to_networkx(g)
        assert is_apex_forest(g) == reference_is_apex_forest(h), g
        assert is_apex_linear_forest(g) == reference_is_apex_linear_forest(h), g
        assert has_c4(g) == (max_common_neighbors(g) >= 2), g
        full = (1 << g.n) - 1
        planar = nx.check_planarity(h)[0] or any(
            nx.check_planarity(to_networkx(g, full & ~(1 << v)))[0] for v in range(g.n))
        assert is_apex_planar(g) == planar, g


def test_classify_spec_examples():
    assert classify(cycle_graph(6), "subgraph", "td", 2).answer == "Bounded"
    assert classify(cycle_graph(6), "subgraph", "td", 2).citation == "unicyclic-d2"
    assert classify(cycle_graph(6), "subgraph", "td", 3).answer == "Unbounded"
    assert classify(cycle_graph(6), "subgraph", "td", 3).citation == "gq-polarity-c6-d3"
    assert classify(path_graph(4), "induced", "cw", 2).answer == "Bounded"
    assert classify(h_graph(2, 3), "subgraph", "td", 4).answer == "Bounded"
    # a run-out C6 search leaves the query open, never Unbounded
    v = classify(cycle_graph(6), "subgraph", "td", 3, budget=1)
    assert v.answer == "Open"
    assert "budget-limited checks left undecided: sub-td-c6-supergraph" in v.note
    assert classify(cycle_graph(6), "subgraph", "td", 3, budget=5).answer == "Unbounded"
    assert classify(h_graph(2, 3), "subgraph", "td", 4, budget=5).answer == "Bounded"
    assert classify(h_graph(2, 3), "subgraph", "td", 5).answer == "Unbounded"
    v = classify([patterned_apex_path(3, "1")], "minor", "td", 2)
    assert v.answer == "Bounded" and v.citation == "minor-diam-td"
    v = classify(cycle_graph(10), "subgraph", "td", 3)
    assert v.answer == "Bounded" and "computer" in v.note
    v = classify(cycle_graph(30), "subgraph", "td", 3)
    assert v.answer == "Open" and "conjecture-even-cycles-d3" in v.note


def test_classify_traces_component_reduction():
    v = classify(disjoint_union(cycle_graph(6), path_graph(3)), "subgraph", "td", 2)
    assert v.answer == "Bounded"
    assert any("component-reduction" in t for t in v.trace)


def test_classify_rejects_malformed_queries():
    with pytest.raises(ValueError):
        classify([cycle_graph(4), cycle_graph(5)], "subgraph", "td", 2)
    for d in (0, True):
        with pytest.raises(ValueError):
            classify(cycle_graph(4), "subgraph", "td", d)
    with pytest.raises(ValueError):
        classify(cycle_graph(4), "subgraph", "gw", 2)


def test_registry_is_versioned_data():
    reg = load_registry()
    assert reg["version"] == 1
    assert all("citation" in r and "answer" in r for r in reg["rules"])
    for rule in reg["rules"]:
        assert rule["citation"] in reg["citations"]
    assert "treedepth" in citation_statement("unicyclic-d2")


def test_open_verdict_carries_nearest_facts():
    v = classify(cycle_bouquet([6, 6, 8], "vertex"), "subgraph", "td", 2)
    assert v.answer == "Open"
    assert "unbounded holds for d >= 3" in v.note


def test_open_notes_read_the_rule_ranges(monkeypatch):
    # a Bounded range ending above 6 and an Unbounded one starting beyond
    # d + 2: the notes name the nearest decided diameters on either side
    common = {"relations": ["subgraph"], "parameters": ["cw"], "requires": [],
              "citation": "d1-finiteness"}
    registry = {"citations": {}, "rules": [
        {**common, "id": "b", "answer": "Bounded", "d_min": 2, "d_max": 8},
        {**common, "id": "u", "answer": "Unbounded", "d_min": 12, "d_max": "finite"},
        {**common, "id": "u-inf", "answer": "Unbounded", "d_min": 30, "d_max": "inf"},
    ]}
    monkeypatch.setattr(atlas, "_registry", lambda: registry)
    for d in (9, 10):
        v = classify(cycle_graph(5), "subgraph", "cw", d)
        assert v.answer == "Open"
        assert v.note == "bounded holds for d <= 8; unbounded holds for d >= 12"
    assert classify(cycle_graph(5), "subgraph", "cw", 8).fired == ("b",)
    assert classify(cycle_graph(5), "subgraph", "cw", 12).fired == ("u",)
    assert classify(cycle_graph(5), "subgraph", "cw", INF).fired == ("u-inf",)


DIAMETERS = (1, 2, 3, 4, 5, 6, INF)


def _small_graphs():
    """Every graph on 1-6 vertices, keyed by (n, canonical code), in key
    order."""
    small = {(g.n, canonical_code(g)): g for g in atlas_graphs() if g.n <= 6}
    return dict(sorted(small.items()))


@pytest.fixture(scope="module")
def small_verdicts():
    """classify over every graph on 1-6 vertices x relation x parameter x
    d, keyed by (n, canonical code, relation, parameter, d)."""
    table = {}
    for key, g in _small_graphs().items():
        for relation in RELATIONS:
            forbidden = [g] if relation == "minor" else g
            for parameter in PARAMETERS:
                for d in DIAMETERS:
                    table[key + (relation, parameter, d)] = classify(
                        forbidden, relation, parameter, d
                    )
    return table


def test_classify_digest_over_small_graphs(small_verdicts):
    # every graph on 1-6 vertices x relation x parameter x d: a change to a
    # predicate or to rule evaluation that alters any verdict shows here
    digest = hashlib.sha256()
    for verdict in small_verdicts.values():
        digest.update(repr(verdict).encode() + b"\n")
    assert digest.hexdigest() == (
        "268bdf953d899deb81e1bc82ff0de8d6b1f58da0e41e1af6e82eab3fbf33f47d"
    )


def test_small_verdicts_respect_the_class_orders(small_verdicts):
    # each pair (a, b) below has a's graph class inside b's, so a may not
    # be Unbounded where b is Bounded.  The orders: a larger d; a weaker
    # parameter (td >= pw + 1 >= tw + 1, and cw bounded in tw); a larger
    # relation class (minor-free within subgraph-free within induced-free);
    # a larger forbidden graph (F - e lies in F as a subgraph and a minor,
    # F - v also as an induced subgraph)
    graphs = _small_graphs()
    pairs = []
    for f in graphs:
        for r, p in product(RELATIONS, PARAMETERS):
            pairs += [(f + (r, p, d), f + (r, p, d2)) for d, d2 in combinations(DIAMETERS, 2)]
        for r, d in product(RELATIONS, DIAMETERS):
            pairs += [(f + (r, weak, d), f + (r, p, d)) for p, weak in combinations(PARAMETERS, 2)]
        for p, d in product(PARAMETERS, DIAMETERS):
            pairs += [
                (f + (r, p, d), f + (r2, p, d))
                for r, r2 in combinations(("minor", "subgraph", "induced"), 2)
            ]
    for f, g in graphs.items():
        smaller = [(delete_vertex(g, v), RELATIONS) for v in range(g.n) if g.n > 1]
        smaller += [
            (graph_from_edges(g.n, [x for x in g.edges() if x != e]), ("minor", "subgraph"))
            for e in g.edges()
        ]
        for h, relations in smaller:
            hkey = (h.n, canonical_code(h))
            for r, p, d in product(relations, PARAMETERS, DIAMETERS):
                pairs.append((hkey + (r, p, d), f + (r, p, d)))
    answer = {key: v.answer for key, v in small_verdicts.items()}
    bad = [(a, b) for a, b in pairs if answer[a] == "Unbounded" and answer[b] == "Bounded"]
    assert not bad, bad[:5]


def test_registry_predicates_resolve():
    names = {req for rule in load_registry()["rules"] for req in rule["requires"]}
    for name in names:
        assert name.removeprefix("!").removeprefix("any_") in PREDICATES, name


def test_misspelled_predicate_raises_on_load(tmp_path, monkeypatch):
    reg = load_registry()
    reg["rules"][0]["requires"].append("!any_planr")
    (tmp_path / "classification_rules.json").write_text(json.dumps(reg))
    monkeypatch.setattr(atlas.resources, "files", lambda package: tmp_path)
    with pytest.raises(RegistryConsistencyError, match="planr"):
        load_registry()


def test_bouquet_predicates_gate_before_searching():
    # hosts below a bouquet's cyclomatic or size gate spend no node, though
    # the spider's centre has room for two cycles and the edge between the
    # tree's two hubs room for seven
    spiders = disjoint_union(spider([2] * 7), spider([2] * 7))  # centres 0 and 15
    for name, g in (
        ("contains_samecyc_pair", disjoint_union(cycle_graph(8), spider([3] * 8))),
        ("contains_ce_uniform", graph_from_edges(30, [*spiders.edges(), (0, 15)])),
        ("contains_cv_12x6_12x8", cycle_bouquet([6] * 12 + [8] * 11, "vertex")),
    ):
        spent = Budget(None)
        assert PREDICATES[name](g, spent) is False and spent.spent == 0, name


def test_one_budget_bounds_a_whole_query():
    # CV-12x6-12x8 at d = 2: its packing calls spend 144 nodes together and
    # at most 10 each, so a budget per call would never run out
    g = cycle_bouquet([6] * 12 + [8] * 12, "vertex")
    v = classify(g, "subgraph", "td", 2, budget=80)
    assert v.answer == "Open" and "budget-limited checks left undecided" in v.note
    assert classify(g, "subgraph", "td", 2, budget=143).answer == "Open"
    assert classify(g, "subgraph", "td", 2, budget=144).answer == "Unbounded"


def test_any_prefix_is_three_valued(monkeypatch):
    # any_X: True if some graph gives True, None if none does but some ran
    # out of budget, False otherwise; a plain name reads the first graph only
    def stub(g, budget):
        if g.n == 2:
            raise BudgetExhausted
        return g.n == 3

    monkeypatch.setitem(PREDICATES, "planar", stub)
    p1, p2, p3 = path_graph(1), path_graph(2), path_graph(3)
    for graphs, want in (([p1], False), ([p1, p2], None), ([p2, p3, p1], True)):
        assert atlas._PredicateContext(graphs, None).eval("any_planar") is want
        negated = None if want is None else not want
        assert atlas._PredicateContext(graphs, None).eval("!any_planar") is negated
    assert atlas._PredicateContext([p1, p3], None).eval("planar") is False
