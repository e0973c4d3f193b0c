"""The four workloads: seeded inputs and fixed operation lists.

Every operation is a call a ``diamwidth`` command makes (``classify``,
``census``, ``width``, ``refute``, ``check``).  Calls go through module
attributes at call time, so the layer wrappers of a traced run apply.
The seed only shapes the inputs; the program receives the generated
graphs.  Seed 0 reproduces the acceptance corpora: criterion 09's hosts
(``Random(11)`` / ``Random(1000 + i)``) and the ROADMAP G(n, 0.3) corpus
(``Random(n)``).  Other seeds relabel those corpora with seeded vertex
permutations rather than drawing new graphs: answers must not change
(label invariance is checked), and the work stays close enough between
seeds for a run-to-run spread well inside the regression bounds, which
fresh random hosts (one dense host more or less moves a pass by 10-20%)
do not give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

# Mixes the seed with the pass index for the catalog's permutations.
SEED_STRIDE = 1_000_003

CLI_BUDGET = 2_000_000  # the CLI's default --budget for check
# Criterion 12 sweeps with 40_000 nodes; 10_000 keeps the 21-run sweep to
# about 2 s and can only turn answers into BudgetExhausted, never Refuted.
REFUTE_BUDGET = 10_000
REFUTE_LENGTHS = range(3, 24)  # up to the induced path measured on ER_7 (length 23)
# Minor search time is heavy-tailed in the host (up to 3 s with the CLI
# default); a --budget of 50_000 caps an operation near 0.4 s.
MINOR_BUDGET = 50_000
SOLVER_CHAIN_NS = (13, 14)  # td, pw and tw on each, so the width chain is checked


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], object]
    meta: dict = field(default_factory=dict)


def relabel(g, perm):
    from diamwidth.graphs import graph_from_edges

    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_corpus(graphs: list, seed: int) -> list:
    """Seed 0 keeps the corpus as generated; other seeds relabel it."""
    if seed == 0:
        return list(graphs)
    rng = random.Random(seed)
    return [relabel(g, _perm(rng, g.n)) for g in graphs]


def gnp(n: int, seed: int, p: float):
    from diamwidth.graphs import graph_from_edges

    rng = random.Random(seed)
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# -- catalog ----------------------------------------------------------------


def catalog_inputs(seed: int) -> dict:
    from catalog import CATALOG  # tests/catalog.py, imported read-only

    return {"seed": seed, "rows": CATALOG, "graphs": [row[1]() for row in CATALOG]}


def catalog_ops(inp: dict, k: int) -> list[Op]:
    """The 60 catalog queries, each forbidden graph relabelled by a
    permutation drawn for this pass, so that no per-value cache can
    answer a repeated query."""
    from diamwidth import atlas

    rng = random.Random(inp["seed"] * SEED_STRIDE + k)
    ops = []
    for row, g in zip(inp["rows"], inp["graphs"]):
        label, _f, relation, parameter, d = row[:5]
        if isinstance(g, list):
            forbidden = [relabel(h, _perm(rng, h.n)) for h in g]
        else:
            forbidden = relabel(g, _perm(rng, g.n))

        def call(forbidden=forbidden, relation=relation, parameter=parameter, d=d):
            return atlas.classify(forbidden, relation, parameter, d)

        ops.append(Op(label, "classify", call, {"row": row}))
    return ops


# -- census -------------------------------------------------------------------

# (n_max, forbidden family, relation, d, parameter).  The P8 row has a
# forbidden graph larger than any host, so it is the unfiltered census.
CENSUS_QUERIES = [
    (7, "cycle:4", "subgraph", 2, "td"),
    (6, "cycle:5", "minor", "inf", "td"),
    (7, "path:4", "induced", 3, "pw"),
    (7, "path:8", "subgraph", "inf", "tw"),
]


def census_inputs(seed: int) -> dict:
    from diamwidth import families

    rng = random.Random(seed)
    forbidden = []
    for _n, spec, *_rest in CENSUS_QUERIES:
        g = families.build_family(spec)
        forbidden.append(relabel(g, _perm(rng, g.n)))
    return {"forbidden": forbidden}


def census_ops(inp: dict, k: int) -> list[Op]:
    from diamwidth import census
    from diamwidth.graphs import INFINITE

    ops = []
    for (n_max, spec, relation, d, parameter), f in zip(CENSUS_QUERIES, inp["forbidden"]):
        dd = INFINITE if d == "inf" else d

        def call(n_max=n_max, f=f, relation=relation, dd=dd, parameter=parameter):
            return census.census(n_max, f, relation, dd, parameter)

        label = f"census n<={n_max} {spec} {relation} d={d} {parameter}"
        ops.append(Op(label, "census", call, {
            "n_max": n_max, "forbidden": f, "relation": relation, "d": dd,
            "parameter": parameter}))
    return ops


# -- solvers ------------------------------------------------------------------


def solvers_inputs(seed: int) -> dict:
    from diamwidth.polarity import er_polarity_graph

    ns = SOLVER_CHAIN_NS + (18,)
    graphs = relabel_corpus([gnp(n, n, 0.3) for n in ns] + [er_polarity_graph(7)], seed)
    return {"corpus": dict(zip(ns, graphs)), "er7": graphs[-1]}


def _width_op(parameter: str, g):
    """What ``diamwidth width`` does: solve, then verify the certificate."""
    from diamwidth import width

    solver = {"td": width.treedepth_exact, "pw": width.pathwidth_exact,
              "tw": width.treewidth_exact}[parameter]
    result = solver(g)
    verified = result.exact and width.verify_certificate(g, result)
    return result, verified


def solvers_ops(inp: dict, k: int) -> list[Op]:
    from diamwidth import paths, refuter

    corpus = inp["corpus"]
    jobs = [("td", n) for n in SOLVER_CHAIN_NS]
    jobs += [("pw", n) for n in SOLVER_CHAIN_NS + (18,)]
    jobs += [("tw", n) for n in SOLVER_CHAIN_NS]
    ops = []
    for parameter, n in jobs:
        g = corpus[n]
        ops.append(Op(f"width {parameter} G({n},0.3)", "width",
                      lambda parameter=parameter, g=g: _width_op(parameter, g),
                      {"parameter": parameter, "n": n, "graph": g}))
    er7 = inp["er7"]
    ops.append(Op("longest induced path ER_7", "induced_path",
                  lambda: paths.longest_induced_path(er7), {"graph": er7}))
    for L in REFUTE_LENGTHS:
        ops.append(Op(f"refute r=2 d=2 L={L}", "refute",
                      lambda L=L: refuter.refute_path(2, 2, L, REFUTE_BUDGET),
                      {"r": 2, "d": 2, "L": L}))
    return ops


# -- check --------------------------------------------------------------------


def _length_tuples(k: int):
    """Non-decreasing k-tuples of cycle lengths in 3..8 (criterion 09)."""
    out = []

    def rec(prefix, lo, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for length in range(lo, 9):
            rec(prefix + [length], length, remaining - 1)

    rec([], 3, k)
    return out


def bouquet_patterns():
    """Criterion 09's 160 bouquets with at most 12 vertices."""
    patterns = []
    for mode in ("vertex", "edge"):
        base = 1 if mode == "vertex" else 2
        per = 1 if mode == "vertex" else 2
        for k in range(2, 11):
            if base + k * (3 - per) > 12:
                break
            for ls in _length_tuples(k):
                if base + sum(length - per for length in ls) <= 12:
                    patterns.append((ls, mode))
    return patterns


def check_hosts(seed: int):
    """Criterion 09's 50 hosts on 9-14 vertices, relabelled by the seed."""
    rng = random.Random(11)
    hosts = []
    for i in range(50):
        n = rng.randrange(9, 15)
        p = rng.choice([0.2, 0.28])
        hosts.append(gnp(n, 1000 + i, p))
    return relabel_corpus(hosts, seed)


def check_inputs(seed: int) -> dict:
    from diamwidth import families

    # every eighth bouquet keeps a pass to a few seconds; the subset still
    # spans both modes and 2..6 cycles
    bouquets = bouquet_patterns()[::8]
    return {
        "hosts": check_hosts(seed),
        "bouquets": [(ls, mode, families.cycle_bouquet(list(ls), mode))
                     for ls, mode in bouquets],
        "minors": [("K4", families.complete_graph(4)), ("C6", families.cycle_graph(6))],
    }


def check_ops(inp: dict, k: int) -> list[Op]:
    from diamwidth import containment, cycles

    ops = []
    for ls, mode, pattern in inp["bouquets"]:
        kind = "vfree" if mode == "vertex" else "efree"
        for i, host in enumerate(inp["hosts"]):
            ops.append(Op(f"{kind} {','.join(map(str, ls))} host{i}", "freeness",
                          lambda host=host, ls=ls, mode=mode:
                          cycles.vtype_or_etype_free(host, list(ls), mode, CLI_BUDGET),
                          {"host": host, "lengths": ls, "mode": mode, "pattern": pattern}))
    for name, pattern in inp["minors"]:
        # every second host: minor search time is heavy-tailed in the host
        for i, host in list(enumerate(inp["hosts"]))[::2]:
            ops.append(Op(f"minor {name} host{i}", "minor",
                          lambda host=host, pattern=pattern:
                          containment.has_minor(host, pattern, MINOR_BUDGET),
                          {"host": host, "pattern": pattern, "name": name}))
    return ops


INPUTS = {
    "catalog": catalog_inputs,
    "census": census_inputs,
    "solvers": solvers_inputs,
    "check": check_inputs,
}

# name -> (ops(inputs, pass_index), passes re-run with tracing on in a
# traced run).  Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "catalog": (catalog_ops, 12),
    "census": (census_ops, 1),
    "solvers": (solvers_ops, 1),
    "check": (check_ops, 1),
}
