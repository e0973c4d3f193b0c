"""Structural recognizers for forbidden graphs and the boundedness oracle.

``PREDICATES`` maps each predicate name the rule registry uses to a
recognizer of the forbidden graph F (clique, planarity, apex variants,
spider classes, V-type/E-type parses, ...).  ``classify`` answers "is
width parameter p bounded on the class of F-excluded graphs of diameter at
most d?" by evaluating a versioned rule registry
(data/classification_rules.json), returning Bounded, Unbounded or Open
with a machine-readable citation key and the fired-rule trace.  Every
rule whose diameter range covers d is evaluated, so a registry
inconsistency (a query firing both answers) raises instead of being masked
by first-match ordering.  An Open note names the nearest diameters at which
a rule that holds decides, as read from the rule ranges; those rules are
evaluated only after the query's own.

Supergraph conditions that need containment search share one node budget
per query; exhaustion downgrades the answer to Open with a note, never to
a wrong verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Callable

from .canon import are_isomorphic
from .containment import ABSENT, has_induced_subgraph
from .cycles import cycle_packing  # unused here: perfbench/layers.py patches this name
from .cycles import find_cycle_subgraph, vtype_or_etype_free
from .families import h_graph, path_graph
from .graphs import (
    INFINITE,
    Budget,
    BudgetExhausted,
    Graph,
    bit_indices,
    component_masks,
    cycle_order,
    cyclomatic_number,
    induced_subgraph,
    is_connected,
    is_bipartite,
    is_forest,
    is_linear_forest,
    is_path_graph,
)
from .planarity import is_apex_planar, is_planar

RELATIONS = ("minor", "induced", "subgraph")
PARAMETERS = ("td", "pw", "tw", "cw")
DEFAULT_CLASSIFY_BUDGET = 400_000


# -- basic recognizers --------------------------------------------------------


def is_clique(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def induced_subgraph_of_p2(g: Graph) -> bool:
    return g.n == 1 or (g.n == 2 and g.m == 1)


def induced_subgraph_of_p4(g: Graph) -> bool:
    if g.n > 4:
        return False
    return has_induced_subgraph(path_graph(4), g, budget=None) is not ABSENT


def _apex(g: Graph, test: Callable[[Graph, int], bool]) -> bool:
    """Whether ``test``, which holds only on forests, holds on the vertex
    mask of g or of g minus one vertex.

    A forest on n - 1 >= 1 vertices has at most n - 2 edges, so g - v can
    pass only if m - deg(v) <= n - 2; once g itself fails, n >= 2 and the
    other vertices need no test."""
    full = (1 << g.n) - 1
    if test(g, full):
        return True
    low = g.m - g.n + 2
    return any(test(g, full & ~(1 << v)) for v, dv in enumerate(g.degrees) if dv >= low)


def is_apex_forest(g: Graph) -> bool:
    """g, or g minus one vertex, is a forest."""
    return _apex(g, is_forest)


def is_apex_linear_forest(g: Graph) -> bool:
    """g, or g minus one vertex, is a linear forest."""
    return _apex(g, is_linear_forest)


def in_script_s(g: Graph) -> bool:
    """Every component a path or a subdivided claw: a forest of maximum
    degree at most 3 with at most one degree-3 vertex per component."""
    if g.n == 0 or max(g.degrees) > 3 or not is_forest(g):
        return False
    threes = sum(1 << v for v, d in enumerate(g.degrees) if d == 3)
    return all((c & threes).bit_count() <= 1 for c in component_masks(g))


def subgraph_of_subdivided_star(g: Graph) -> bool:
    """Member of the closure of subdivided stars under subgraphs:
    a forest with at most one vertex of degree >= 3."""
    if g.n == 0:
        return False
    return is_forest(g) and sum(1 for d in g.degrees if d >= 3) <= 1


def subgraph_of_hgraph2(g: Graph) -> bool:
    """Member of the closure of spine-2 H-graphs under subgraphs: a forest
    of maximum degree at most 3 with at most two degree-3 vertices, and
    with a common neighbour if there are two (they map to the H-graph's
    branch vertices, whose neighbourhoods meet in the spine's middle)."""
    threes = [v for v, d in enumerate(g.degrees) if d == 3]
    if g.n == 0 or max(g.degrees) > 3 or len(threes) > 2 or not is_forest(g):
        return False
    return len(threes) < 2 or bool(g.adj[threes[0]] & g.adj[threes[1]])


def has_triangle(g: Graph) -> bool:
    return any((g.adj[u] & g.adj[v]) for u, v in g.edges())


def has_c4(g: Graph) -> bool:
    """Whether g has a 4-cycle subgraph, in O(n + m) mask operations.

    For each u, the neighbourhoods (less u) of u's neighbours are gathered
    one at a time.  A bit w of the next neighbour y's set that is already
    gathered, from a neighbour x, is none of u, x, y, so u-x-w-y is a C4;
    every C4 through u is caught at the later of its two neighbours of u."""
    adj = g.adj
    for u in range(g.n):
        not_u = ~(1 << u)
        gathered = 0
        nbrs = adj[u]
        while nbrs:
            low = nbrs & -nbrs
            reach = adj[low.bit_length() - 1] & not_u
            if reach & gathered:
                return True
            gathered |= reach
            nbrs ^= low
    return False


def parse_vtype(g: Graph) -> tuple[int, ...] | None:
    """Cycle lengths if g is exactly a vertex-shared bouquet (k >= 2).

    A connected graph with one vertex v of degree >= 3 and all others of
    degree 2 is one: each component of g - v is a path whose two ends are
    its only neighbours of v, a petal of one more vertex."""
    hubs = [v for v in range(g.n) if g.degree(v) != 2]
    if len(hubs) != 1 or g.degree(hubs[0]) < 3 or not is_connected(g):
        return None
    rest = ((1 << g.n) - 1) & ~(1 << hubs[0])
    return tuple(sorted(c.bit_count() + 1 for c in component_masks(g, rest)))


def parse_etype(g: Graph) -> tuple[int, ...] | None:
    """Cycle lengths if g is exactly an edge-shared bouquet (k >= 2).

    With two adjacent vertices u, w of degree >= 3 and all others of
    degree 2, g is one when each component of g - {u, w} has exactly one
    neighbour of u: the component is then a path from u to w (a cycle
    component, which has none, is ruled out), a petal of two more
    vertices."""
    hubs = [v for v in range(g.n) if g.degree(v) != 2]
    if len(hubs) != 2 or min(map(g.degree, hubs)) < 3 or not g.has_edge(*hubs):
        return None
    u, w = hubs
    comps = component_masks(g, ((1 << g.n) - 1) & ~(1 << u) & ~(1 << w))
    if any((c & g.adj[u]).bit_count() != 1 for c in comps):
        return None
    return tuple(sorted(c.bit_count() + 2 for c in comps))


def subgraph_of_uniform_vtype(g: Graph) -> bool:
    """True iff g is a subgraph of C^V_{k*[2l]} for some k >= 1, l >= 3.

    Structure: at most one vertex of degree >= 3, all cycles through it
    and of one common even length 2l >= 6, and every hub arm or detached
    path component fits inside an opened petal (at most 2l-1 vertices).
    """
    if g.n == 0:
        return False
    hubs = [v for v in range(g.n) if g.degree(v) >= 3]
    if len(hubs) > 1:
        return False
    if hubs:
        v0 = hubs[0]
    else:
        cyc_comps = [c for c in component_masks(g) if not is_forest(g, c)]
        if len(cyc_comps) > 1:
            return False
        if not cyc_comps:
            return True  # linear forest: any large even petal length works
        v0 = (cyc_comps[0] & -cyc_comps[0]).bit_length() - 1
    cycle_len = None
    pieces = []
    rest = ((1 << g.n) - 1) & ~(1 << v0)
    for comp in component_masks(g, rest):
        if not is_path_graph(g, comp):
            return False
        # a path's ends have at most one neighbour on it (none if it is K1)
        ends = sum(1 << v for v in bit_indices(comp) if (g.adj[v] & comp).bit_count() <= 1)
        if (ends & g.adj[v0]).bit_count() == 2:
            length = comp.bit_count() + 1
            if cycle_len is None:
                cycle_len = length
            if length != cycle_len:
                return False
        else:
            pieces.append(comp.bit_count())
    if cycle_len is not None:
        if cycle_len % 2 or cycle_len < 6:
            return False
        return all(p <= cycle_len - 1 for p in pieces)
    return True


# -- bouquet supergraph checks (spend from the query's Budget) ----------------


def _contains_cv_12x6_12x8(g: Graph, budget: Budget) -> bool:
    return g.n >= 145 and not vtype_or_etype_free(g, [6] * 12 + [8] * 12, "vertex", budget).free


def _contains_ce_uniform(g: Graph, budget: Budget) -> bool:
    if cyclomatic_number(g) < 6:
        return False
    # C^E_{k*[2l]} with k = 2(2l-3), for each l >= 3 that fits in g
    l = 3
    while 2 + 2 * (2 * l - 3) * (2 * l - 2) <= g.n:
        if not vtype_or_etype_free(g, [2 * l] * (2 * (2 * l - 3)), "edge", budget).free:
            return True
        l += 1
    return False


def _contains_samecyc_pair(g: Graph, budget: Budget) -> bool:
    """A vertex- or edge-shared pair of cycles with lengths (4a, 4b),
    a,b >= 2, or (2l, 2l), l >= 4 -- the diameter-3 unbounded patterns."""
    if cyclomatic_number(g) < 2 or g.n < 14:  # smallest: edge-shared 8,8 pair
        return False
    for l1 in range(8, g.n + 1, 2):
        for l2 in range(l1, g.n + 1, 2):
            if l1 + l2 - 2 > g.n:
                break
            if (l1 % 4 == 0 and l2 % 4 == 0) or l1 == l2:
                for mode in ("vertex", "edge"):
                    if not vtype_or_etype_free(g, [l1, l2], mode, budget).free:
                        return True
    return False


# -- the predicate table ------------------------------------------------------


def _even6_pair(lengths: tuple[int, ...] | None) -> bool:
    return (
        lengths is not None
        and len(lengths) == 2
        and all(l % 2 == 0 and l >= 6 for l in lengths)
    )


# Every registry predicate name, mapped to (graph, query Budget) -> True or
# False; a search that runs out of the Budget raises BudgetExhausted.  The
# registry may prefix a name with "!" (negation) or "any_" (some graph of a
# minor set).  Entries call recognizers through this module's globals so
# wrappers installed on them (e.g. by a tracer) see every call.
PREDICATES: dict[str, Callable[[Graph, Budget], bool]] = {
    "clique": lambda g, b: is_clique(g),
    "in_p2": lambda g, b: induced_subgraph_of_p2(g),
    "in_p4": lambda g, b: induced_subgraph_of_p4(g),
    "bipartite": lambda g, b: is_bipartite(g),
    "planar": lambda g, b: is_planar(g),
    "apex_planar": lambda g, b: is_apex_planar(g),
    "forest": lambda g, b: is_forest(g),
    "apex_forest": lambda g, b: is_apex_forest(g),
    "linear_forest": lambda g, b: is_linear_forest(g),
    "apex_linear_forest": lambda g, b: is_apex_linear_forest(g),
    "script_s": lambda g, b: in_script_s(g),
    "sstar_subgraph": lambda g, b: subgraph_of_subdivided_star(g),
    "hgraph2_subgraph": lambda g, b: subgraph_of_hgraph2(g),
    "unicyclic": lambda g, b: cyclomatic_number(g) == 1,
    "c3_subgraph": lambda g, b: has_triangle(g),
    "c4_subgraph": lambda g, b: has_c4(g),
    "c6_subgraph": lambda g, b: find_cycle_subgraph(g, 6, b) is not ABSENT,
    "is_c8": lambda g, b: g.n == 8 and cycle_order(g) is not None,
    "even_cycle_10_to_24": lambda g, b: g.n in range(10, 25, 2) and cycle_order(g) is not None,
    "odd_cycle_ge5": lambda g, b: g.n % 2 == 1 and g.n >= 5 and cycle_order(g) is not None,
    "is_h3": lambda g, b: g.n == 8 and g.m == 7 and are_isomorphic(g, h_graph(3, 1)),
    "vtype_pair_even6": lambda g, b: _even6_pair(parse_vtype(g)),
    "etype_pair_even6": lambda g, b: _even6_pair(parse_etype(g)),
    "vtype_uniform_subgraph": lambda g, b: subgraph_of_uniform_vtype(g),
    "contains_cv_12x6_12x8": lambda g, b: _contains_cv_12x6_12x8(g, b),
    "contains_ce_uniform": lambda g, b: _contains_ce_uniform(g, b),
    "contains_samecyc_pair": lambda g, b: _contains_samecyc_pair(g, b),
}


def reduce_components(g: Graph) -> Graph:
    """The component deciding treedepth boundedness under the subgraph
    relation: the unique non-path component if there is one, else a
    longest path component, as a new graph.  A connected graph, or one
    with two or more non-path components, is returned unchanged (the
    latter is never an apex linear forest, so the canonical unbounded rule
    decides).  Idempotent."""
    comps = component_masks(g)
    nonpath = [c for c in comps if not is_path_graph(g, c)]
    if len(comps) <= 1 or len(nonpath) > 1:
        return g
    keep = nonpath[0] if nonpath else max(comps, key=int.bit_count)
    return induced_subgraph(g, bit_indices(keep))[0]


# -- the oracle ---------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    answer: str  # "Bounded" | "Unbounded" | "Open"
    citation: str | None
    note: str = ""
    fired: tuple[str, ...] = ()
    trace: tuple[str, ...] = ()


class RegistryConsistencyError(RuntimeError):
    pass


def load_registry() -> dict:
    """The packaged rule registry; raises if a rule names a predicate
    missing from PREDICATES."""
    payload = resources.files("diamwidth.data").joinpath(
        "classification_rules.json"
    ).read_text(encoding="utf-8")
    registry = json.loads(payload)
    for rule in registry["rules"]:
        for name in rule["requires"]:
            if name.removeprefix("!").removeprefix("any_") not in PREDICATES:
                raise RegistryConsistencyError(
                    f"rule {rule['id']!r} names unknown predicate {name!r}"
                )
    return registry


_registry = cache(load_registry)


class _PredicateContext:
    """Lazy, memoized predicate evaluation for one query under one Budget;
    tri-state (True / False / None when the Budget ran out).  A name reads
    the first graph; an ``any_`` name is True if some graph of the set
    gives True, else None if some graph ran out of budget, else False."""

    def __init__(self, graphs: list[Graph], budget: Budget):
        self.graphs = graphs
        self.budget = budget
        self.cache: dict[str, bool | None] = {}

    def eval(self, name: str) -> bool | None:
        negate = name.startswith("!")
        base = name[1:] if negate else name
        if base not in self.cache:
            pred = PREDICATES[base.removeprefix("any_")]
            val: bool | None = False
            for h in self.graphs if base.startswith("any_") else self.graphs[:1]:
                try:
                    if pred(h, self.budget):
                        val = True
                        break
                except BudgetExhausted:
                    val = None
            self.cache[base] = val
        val = self.cache[base]
        if val is None:
            return None
        return (not val) if negate else val


def _covers(rule: dict, d) -> bool:
    """Whether d lies in the rule's diameter range.  ``d_min`` is an
    integer or "inf"; ``d_max`` an integer, "finite" (every integer from
    d_min on) or "inf" (those and no diameter bound too)."""
    if d == INFINITE:
        return rule["d_max"] == "inf"
    lo, hi = rule["d_min"], rule["d_max"]
    return lo != "inf" and lo <= d and (hi in ("finite", "inf") or d <= hi)


def classify(
    forbidden,
    relation: str,
    parameter: str,
    d,
    budget: int | None = DEFAULT_CLASSIFY_BUDGET,
) -> Verdict:
    """Boundedness verdict for the (forbidden, relation, parameter, d) query.

    ``forbidden`` is a Graph, or a list of Graphs for the minor relation.
    ``d`` is an integer >= 1 or math.inf (``graphs.INFINITE``) for no
    diameter bound.  ``budget`` bounds the search nodes of all the query's
    predicates together.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    if not (d == INFINITE or (type(d) is int and d >= 1)):
        raise ValueError("d must be an integer >= 1 or infinity")
    if isinstance(forbidden, Graph):
        graphs = [forbidden]
    else:
        graphs = list(forbidden)
        if relation != "minor":
            raise ValueError("graph sets are only meaningful for the minor relation")
    if not graphs or any(h.n == 0 for h in graphs):
        raise ValueError("forbidden graphs must be nonempty")

    trace: list[str] = []
    if relation == "subgraph" and parameter == "td":
        reduced = reduce_components(graphs[0])
        if reduced is not graphs[0]:
            trace.append(
                "component-reduction: replaced disconnected forbidden graph by "
                f"its deciding component ({reduced.n} vertices)"
            )
            graphs = [reduced]

    ctx = _PredicateContext(graphs, Budget(budget))
    rules = [r for r in _registry()["rules"]
             if relation in r["relations"] and parameter in r["parameters"]]
    fired, unknown = [], []
    for rule in (r for r in rules if _covers(r, d)):
        vals = [ctx.eval(req) for req in rule["requires"]]
        if all(v is True for v in vals):
            fired.append(rule)
        elif None in vals and False not in vals:
            unknown.append(rule)
    if len({r["answer"] for r in fired}) > 1:
        raise RegistryConsistencyError(
            f"contradictory rules fired: {[r['id'] for r in fired]}"
        )
    if fired:
        note = "; ".join(sorted({r["note"] for r in fired if r.get("note")}))
        return Verdict(fired[0]["answer"], fired[0]["citation"], note,
                       tuple(r["id"] for r in fired), tuple(trace))

    notes = []
    if unknown:
        notes.append("budget-limited checks left undecided: "
                     + ",".join(r["id"] for r in unknown))
    # the nearest diameters at which a rule that holds decides, read from
    # the ranges: a Bounded rule below d up to its d_max, an Unbounded one
    # above d from its d_min (or d + 1) on
    def holds(rule: dict) -> bool:
        return all(ctx.eval(req) is True for req in rule["requires"])

    below = [r["d_max"] for r in rules if r["answer"] == "Bounded"
             and isinstance(r["d_max"], int) and r["d_max"] < d and holds(r)]
    above = []
    for r in rules:
        up = INFINITE if r["d_min"] == "inf" else max(r["d_min"], d + 1)
        if r["answer"] == "Unbounded" and d < up and _covers(r, up) and holds(r):
            above.append(up)
    if below:
        notes.append(f"bounded holds for d <= {max(below)}")
    if above:
        label = "unbounded diameter" if min(above) == INFINITE else f"d >= {min(above)}"
        notes.append(f"unbounded holds for {label}")
    if relation == "subgraph" and parameter == "td" and d == 3:
        f = graphs[0]
        if f.n % 2 == 0 and f.n >= 8 and cycle_order(f) is not None:
            notes.append("conjecture-even-cycles-d3 applies")
        elif cyclomatic_number(f) >= 2:
            notes.append("conjecture-two-cycles-d3 applies")
    return Verdict("Open", None, "; ".join(notes), (), tuple(trace))


def citation_statement(key: str) -> str:
    return _registry()["citations"][key]
