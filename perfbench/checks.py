"""Independent answer checks, run outside the timed calls.

``networkx`` (and the brute-force oracles of ``tests/oracles.py``) are
imported here only, after the workload's peak RSS has been read, so the
library under test never sees them.  ``check_pass`` returns one
``(ok, reason)`` per operation of a pass.
"""

from __future__ import annotations

import functools


class OpError:
    """An operation that raised; counted as failed."""

    def __init__(self, text: str):
        self.text = text

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text

    def __repr__(self):
        return f"OpError({self.text})"


def _nx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- catalog ------------------------------------------------------------------


def _classify(op, v) -> list[str]:
    """Answer, lead citation, fired rule and Open note, as criterion 10."""
    _label, _f, _rel, _par, _d, answer, citation, fired_in, note_sub = op.meta["row"]
    bad = []
    if v.answer != answer:
        bad.append(f"answer {v.answer} != {answer}")
    if citation is not None and v.citation != citation:
        bad.append(f"citation {v.citation} != {citation}")
    if fired_in is not None and fired_in not in v.fired:
        bad.append(f"rule {fired_in} not fired")
    if note_sub is not None and note_sub not in v.note:
        bad.append(f"note lacks {note_sub!r}")
    return bad


# -- census -------------------------------------------------------------------


@functools.cache
def _connected_atlas():
    """The connected graphs of networkx's atlas (all graphs on <= 7 vertices)."""
    import networkx as nx

    return [h for h in nx.graph_atlas_g() if h.number_of_nodes() and nx.is_connected(h)]


def _has_long_cycle(h, k: int) -> bool:
    """A cycle with at least k vertices (equivalently, a C_k minor)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    return any(GraphMatcher(h, nx.cycle_graph(j)).subgraph_is_monomorphic()
               for j in range(k, h.number_of_nodes() + 1))


def _free(h, f, relation: str) -> bool:
    from networkx.algorithms.isomorphism import GraphMatcher

    if f.number_of_nodes() > h.number_of_nodes():
        return True  # VF2 would search every partial map before failing
    if relation == "subgraph":
        return not GraphMatcher(h, f).subgraph_is_monomorphic()
    if relation == "induced":
        return not GraphMatcher(h, f).subgraph_is_isomorphic()
    # minor: only cycle patterns are used, and C_k is a minor iff some
    # cycle has at least k vertices
    if {d for _v, d in f.degree()} != {2}:
        raise ValueError("census minor check supports cycle patterns only")
    return not _has_long_cycle(h, f.number_of_nodes())


def _census(op, rows) -> list[str]:
    """Counts recomputed from the networkx atlas with networkx diameter and
    matching; the max width checked with the brute-force oracles."""
    import networkx as nx
    from oracles import brute_pathwidth, brute_treedepth, brute_treewidth

    from diamwidth.formats import from_graph6
    from diamwidth.graphs import graph_from_edges

    m = op.meta
    f = _nx(m["forbidden"])
    width = {"td": brute_treedepth, "pw": brute_pathwidth, "tw": brute_treewidth}[m["parameter"]]
    bad = []
    if [r.n for r in rows] != list(range(1, m["n_max"] + 1)):
        bad.append("rows do not cover n = 1..n_max")
    for row in rows:
        n = row.n
        kept = [h for h in _connected_atlas() if h.number_of_nodes() == n
                and nx.diameter(h) <= m["d"] and _free(h, f, m["relation"])]
        if row.count != len(kept):
            bad.append(f"n={n}: count {row.count} != {len(kept)}")
            continue
        if not kept:
            if row.max_width is not None or row.witness_graph6 is not None:
                bad.append(f"n={n}: width or witness on an empty row")
            continue
        w = from_graph6(row.witness_graph6)
        wh = _nx(w)
        trivial_bound = n if m["parameter"] == "td" else n - 1
        if not (w.n == n and nx.is_connected(wh) and nx.diameter(wh) <= m["d"]
                and _free(wh, f, m["relation"])):
            bad.append(f"n={n}: witness outside the filtered class")
        elif width(w) != row.max_width:
            bad.append(f"n={n}: witness width != {row.max_width}")
        # the witness attains the row maximum; when that is the trivial
        # bound no graph can exceed it, otherwise recompute every width
        elif row.max_width != trivial_bound:
            best = max(width(graph_from_edges(n, h.edges())) for h in kept)
            if best != row.max_width:
                bad.append(f"n={n}: max width {row.max_width} != {best}")
    return bad


# -- solvers ------------------------------------------------------------------


def _tree_edges_form_tree(dec) -> bool:
    nb = len(dec.bags)
    if len(dec.tree_edges) != max(nb - 1, 0):
        return False
    parent = list(range(nb))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in dec.tree_edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _width(op, res) -> list[str]:
    """verify_certificate, plus a tree check on tree decompositions (which
    verify_certificate skips) and networkx's min-fill-in upper bound."""
    from networkx.algorithms.approximation import treewidth_min_fill_in

    from diamwidth.width import verify_certificate

    result, verified = res
    g = op.meta["graph"]
    if not result.exact:
        return ["bounds only"]
    if not (verified and verify_certificate(g, result)):
        return ["certificate rejected"]
    bad = []
    if op.meta["parameter"] == "tw":
        if not _tree_edges_form_tree(result.certificate):
            bad.append("tree_edges do not form a tree")
        if result.value > treewidth_min_fill_in(_nx(g))[0]:
            bad.append("tw above the min-fill-in upper bound")
    return bad


def _width_chain(ops, results, out) -> None:
    """tw <= pw <= td - 1 wherever all three were solved on one graph;
    a break is charged to the td operation."""
    values: dict[int, dict[str, int]] = {}
    for op, res in zip(ops, results):
        if op.kind == "width" and not isinstance(res, OpError) and res[0].exact:
            values.setdefault(op.meta["n"], {})[op.meta["parameter"]] = res[0].value
    for i, op in enumerate(ops):
        if op.kind == "width" and op.meta["parameter"] == "td":
            v = values.get(op.meta["n"], {})
            if {"td", "pw", "tw"} <= v.keys() and not v["tw"] <= v["pw"] <= v["td"] - 1:
                out[i] = (False, f"chain tw <= pw <= td - 1 broken: {v}")


def _refute(op, res) -> list[str]:
    """Never Refuted in the C4 case (ER polarity graphs are models); every
    Consistent model passes verify_model."""
    from diamwidth.refuter import verify_model

    m = op.meta
    if res.status == "Refuted":
        return ["refuted the C4 case, which has ER polarity models"]
    if res.status == "Consistent":
        ok, why = verify_model(res.model, m["r"], m["d"], m["L"])
        if not ok:
            return [f"model rejected: {why}"]
    return []


def _induced_path(op, res) -> list[str]:
    import networkx as nx

    vs = list(res.vertices)
    sub = _nx(op.meta["graph"]).subgraph(vs)
    path_edges = {frozenset(e) for e in zip(vs, vs[1:])}
    if (len(set(vs)) != len(vs) or not nx.is_connected(sub)
            or {frozenset(e) for e in sub.edges()} != path_edges):
        return ["witness is not an induced path"]
    return []


# -- check --------------------------------------------------------------------


def _series_parallel(h) -> bool:
    """tw <= 2 (no K4 minor): the graph reduces to nothing by deleting
    vertices of degree <= 1 and suppressing vertices of degree 2."""
    adj = {v: set(h[v]) for v in h}
    todo = list(adj)
    while todo:
        v = todo.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        todo.extend(nbrs)
    return not adj


def _freeness(op, res) -> list[str]:
    """Freeness equals has_subgraph absence on the bouquet; a found copy
    passes verify_packing."""
    from diamwidth.containment import ABSENT, BUDGET, has_subgraph
    from diamwidth.cycles import verify_packing

    if res is BUDGET:
        return []
    m = op.meta
    bad = []
    direct_free = has_subgraph(m["host"], m["pattern"], budget=None) is ABSENT
    if res.free != direct_free:
        bad.append(f"free={res.free} but has_subgraph says free={direct_free}")
    if not res.free:
        quotas: dict[int, int] = {}
        for length in m["lengths"]:
            quotas[length] = quotas.get(length, 0) + 1
        if res.witness is None or not verify_packing(m["host"], res.witness, quotas):
            bad.append("packing missing or rejected")
    return bad


def _minor(op, res) -> list[str]:
    """A found model passes verify_embedding; K4-minor-free exactly when
    tw <= 2, C6-minor-free exactly when no cycle has >= 6 vertices."""
    from diamwidth.containment import ABSENT, BUDGET, Embedding, verify_embedding

    if res is BUDGET:
        return []
    m = op.meta
    found = isinstance(res, Embedding)
    if not found and res is not ABSENT:
        return [f"unexpected result {res!r}"]
    if found and not verify_embedding(m["host"], m["pattern"], res):
        return ["embedding rejected"]
    h = _nx(m["host"])
    if m["name"] == "K4" and found == _series_parallel(h):
        return [f"K4 minor found={found} but tw <= 2 is {found}"]
    if m["name"] == "C6" and found != _has_long_cycle(h, 6):
        return [f"C6 minor found={found} disagrees with the longest cycle"]
    return []


PER_OP = {
    "classify": _classify,
    "census": _census,
    "width": _width,
    "refute": _refute,
    "induced_path": _induced_path,
    "freeness": _freeness,
    "minor": _minor,
}


def check_pass(ops, results) -> list[tuple[bool, str]]:
    out = []
    for op, res in zip(ops, results):
        if isinstance(res, OpError):
            out.append((False, res.text))
            continue
        try:
            bad = PER_OP[op.kind](op, res)
        except Exception as exc:  # an answer too malformed to check fails it
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        out.append((not bad, "; ".join(bad)))
    _width_chain(ops, results, out)
    return out


def undecided(op, result) -> bool:
    """A decision was asked for and the answer is BUDGET, BudgetExhausted,
    bounds only, or an Open verdict left by budget-limited checks."""
    from diamwidth.containment import BUDGET

    if isinstance(result, OpError):
        return False
    if op.kind == "classify":
        return "budget-limited checks left undecided" in result.note
    if op.kind == "width":
        return not result[0].exact
    if op.kind == "refute":
        return result.status == "BudgetExhausted"
    if op.kind in ("freeness", "minor"):
        return result is BUDGET
    return False
