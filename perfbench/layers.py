"""Which library functions a traced run wraps, and the per-layer metrics
computed from the spans and counts.

Each wrapper sits on the name the calling module bound, e.g.
``diamwidth.census.canonical_code`` or ``diamwidth.atlas.cycle_packing``;
``census`` keeps its checkers and solvers in dicts, so those entries are
wrapped too.  Layer metric -> the end-to-end metric it should move:

    canon.calls, canon.self_s            census.wall_s (about 0 elsewhere)
    census.self_s, census.kept_ratio     census.wall_s
    graphs.diameter_s                    census.wall_s
    width.td_s, width.td_expansions      solvers.wall_s, solvers.peak_rss_mb
    width.pw_s, width.tw_s,
    width.dp_states, width.verify_s      solvers.wall_s, solvers.peak_rss_mb
    paths.calls, paths.self_s            solvers.wall_s
    refuter.nodes, refuter.self_s,
    refuter.budget_ratio                 solvers.wall_s, solvers undecided share
    containment.*                        check.wall_s, census.wall_s
    cycles.*                             check.wall_s, check/catalog p90
    atlas.classify_self_s, planarity.*   catalog.op_ms_p50
    families.build_s                     setup_s
    trace.overhead_s                     none; reported
"""

from __future__ import annotations

from tracer import Tracer

# Work counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "canon.calls",
    "cycles.packing_calls",
    "cycles.enum_calls",
    "width.td_expansions",
    "refuter.nodes",
    "containment.calls",
)


def install(tr: Tracer) -> None:
    from diamwidth import atlas, canon, census, containment, cycles, paths, refuter, width
    from diamwidth.containment import ABSENT, BUDGET

    counts = tr.counts

    def span(name, on_result=None):
        return lambda fn: tr.wrap(name, fn, on_result)

    def budget_hit(result, args):
        counts["containment.budget"] += result is BUDGET

    def dp_states(result, args):
        counts["width.dp_states"] += 1 << args[0].n  # computed: 2^n per DP call

    def packing_absent(result, args):
        counts["cycles.packing_absent"] += result is ABSENT

    def refuted(result, args):
        counts["refuter.nodes"] += result.nodes
        counts["refuter.budget"] += result.status == "BudgetExhausted"

    def enumerated(result, args):
        counts["census.kept"] += sum(len(level) for level in result)

    # canonical forms: census enumeration, and are_isomorphic inside atlas
    tr.patch(census, "canonical_code", span("canon"))
    tr.patch(canon, "canonical_code", span("canon"))
    tr.patch(census, "census", span("census"))
    tr.patch(census, "enumerate_connected_graphs",
             lambda fn: tr.counter("census.enumerations", fn, enumerated))
    tr.patch(census, "diameter", span("graphs.diameter"))

    # width solvers: called by census through its dict and by the benchmark
    for key, name, hook in (("td", "width.td", None), ("pw", "width.pw", dp_states),
                            ("tw", "width.tw", dp_states)):
        tr.patch(census._SOLVERS, key, span(name, hook))
    tr.patch(width, "treedepth_exact", span("width.td"))
    tr.patch(width, "pathwidth_exact", span("width.pw", dp_states))
    tr.patch(width, "treewidth_exact", span("width.tw", dp_states))
    tr.patch(width, "verify_certificate", span("width.verify"))
    tr.patch(width, "component_masks",
             lambda fn: tr.counter("width.td_expansions", fn))

    # paths
    tr.patch(paths, "longest_induced_path", span("paths"))
    tr.patch(containment, "find_induced_path", span("paths"))
    tr.patch(width, "longest_path", span("paths"))

    tr.patch(refuter, "refute_path", span("refuter", refuted))

    # containment: census's checker dict, atlas, and the benchmark's calls
    for key, name in (("subgraph", "containment.subgraph"),
                      ("induced", "containment.induced"), ("minor", "containment.minor")):
        tr.patch(census._CHECKERS, key, span(name, budget_hit))
    tr.patch(atlas, "has_induced_subgraph", span("containment.induced", budget_hit))
    tr.patch(containment, "has_subgraph", span("containment.subgraph", budget_hit))
    tr.patch(containment, "has_induced_subgraph", span("containment.induced", budget_hit))
    tr.patch(containment, "has_minor", span("containment.minor", budget_hit))

    # cycles
    tr.patch(cycles, "vtype_or_etype_free", span("cycles.freeness"))
    tr.patch(cycles, "cycle_packing", span("cycles.packing", packing_absent))
    tr.patch(atlas, "cycle_packing", span("cycles.packing", packing_absent))
    tr.patch(cycles, "cycles_through_vertex", span("cycles.enum"))
    tr.patch(cycles, "cycles_through_edge", span("cycles.enum"))

    # classify and its planarity predicates
    tr.patch(atlas, "classify", span("atlas.classify"))
    tr.patch(atlas, "is_planar", span("planarity"))
    tr.patch(atlas, "is_apex_planar", span("planarity"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded so far."""
    t = tr.layer_times()
    c = tr.counts

    def incl(name):
        return t.get(name, (0.0, 0.0))[0]

    def own(name):
        return t.get(name, (0.0, 0.0))[1]

    containment_calls = sum(c[f"containment.{k}.calls"] for k in ("subgraph", "induced", "minor"))
    return {
        "canon.calls": c["canon.calls"],
        "canon.self_s": own("canon"),
        "census.self_s": own("census"),
        "census.kept_ratio": _ratio(c["census.kept"], c["canon.calls"]),
        "graphs.diameter_s": incl("graphs.diameter"),
        "width.td_s": incl("width.td"),
        "width.td_expansions": c["width.td_expansions"],
        "width.pw_s": incl("width.pw"),
        "width.tw_s": incl("width.tw"),
        "width.dp_states": c["width.dp_states"],
        "width.verify_s": incl("width.verify"),
        "paths.calls": c["paths.calls"],
        "paths.self_s": own("paths"),
        "refuter.nodes": c["refuter.nodes"],
        "refuter.self_s": own("refuter"),
        "refuter.budget_ratio": _ratio(c["refuter.budget"], c["refuter.calls"]),
        "containment.calls": containment_calls,
        "containment.subgraph_s": incl("containment.subgraph"),
        "containment.induced_s": incl("containment.induced"),
        "containment.minor_s": incl("containment.minor"),
        "containment.budget_ratio": _ratio(c["containment.budget"], containment_calls),
        "cycles.freeness_s": incl("cycles.freeness"),
        "cycles.packing_calls": c["cycles.packing.calls"],
        "cycles.packing_s": incl("cycles.packing"),
        "cycles.enum_calls": c["cycles.enum.calls"],
        "cycles.enum_s": incl("cycles.enum"),
        "cycles.absent_ratio": _ratio(c["cycles.packing_absent"], c["cycles.packing.calls"]),
        "atlas.classify_self_s": own("atlas.classify"),
        "planarity.calls": c["planarity.calls"],
        "planarity.self_s": own("planarity"),
    }
