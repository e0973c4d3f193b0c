"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is part of the default pytest run.
"""

import math
import random

from diamwidth.atlas import classify
from diamwidth.census import census, enumerate_connected_graphs, is_pattern_free
from diamwidth.containment import ABSENT, has_induced_subgraph, has_subgraph
from diamwidth.cycles import vtype_or_etype_free
from diamwidth.experiments import verify_theorem
from diamwidth.families import cycle_bouquet, path_graph
from diamwidth.formats import from_graph6
from diamwidth.graphs import INFINITE, graph_from_edges
from diamwidth.paths import longest_induced_path, longest_path
from diamwidth.polarity import er_polarity_graph
from diamwidth.refuter import refute_path
from diamwidth.width import (
    pathwidth_exact,
    treedepth_exact,
    treewidth_exact,
)

from catalog import CATALOG, INF
from oracles import (
    atlas_graphs,
    brute_has_subgraph,
    brute_pathwidth,
    brute_treedepth,
    brute_treewidth,
    criterion_09_hosts,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}: {name}{tail}")


def test_criterion_01_solver_exactness_vs_blind_brute_force():
    mismatches = []
    total = 0
    for level in enumerate_connected_graphs(7)[1:]:
        for g in level:
            total += 1
            if treedepth_exact(g).value != brute_treedepth(g):
                mismatches.append(("td", g))
            if pathwidth_exact(g).value != brute_pathwidth(g):
                mismatches.append(("pw", g))
            if treewidth_exact(g).value != brute_treewidth(g):
                mismatches.append(("tw", g))
    ok = not mismatches
    _report(1, "solver exactness on all connected graphs <= 7 vertices", ok,
            f"{total} graphs x 3 solvers")
    assert ok, mismatches[:5]


def test_criterion_02_treedepth_paths_and_fact_sandwich():
    ok = True
    for n in range(1, 25):
        if treedepth_exact(path_graph(n)).value != math.ceil(math.log2(n + 1)):
            ok = False
    rng = random.Random(20240817)
    checked = 0
    for i in range(100):
        n = rng.randrange(4, 12)
        p = rng.choice([0.2, 0.35, 0.5])
        g = graph_from_edges(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
        )
        w = longest_path(g)
        assert w.exact
        td = treedepth_exact(g).value
        lv = w.num_vertices
        if not (math.log2(lv) <= td <= lv):
            ok = False
        checked += 1
    _report(2, "td(P_n) closed form for n <= 24 and longest-path sandwich", ok,
            f"{checked} random graphs")
    assert ok


def test_criterion_03_triangle_free_cw_gadget():
    report = verify_theorem("thm5-gadget")
    _report(3, "triangle-free diameter-2 wall companion (h = 2, 3, 4)",
            report.passed)
    assert report.passed, report.to_json()


def test_criterion_04_polarity_family():
    report = verify_theorem("thm10-family")
    _report(4, "polarity graphs q in {2,3,5,7}: counts, C4-free, diameter, growth",
            report.passed)
    assert report.passed, report.to_json()


def test_criterion_05_cv_gadget():
    report = verify_theorem("thm15-gadget")
    _report(5, "vertex-shared-bouquet gadget at n in {24,32,48} + packing refutation",
            report.passed)
    assert report.passed, report.to_json()


def test_criterion_06_ce_gadget():
    report = verify_theorem("thm17-gadget")
    _report(6, "edge-shared-bouquet gadget (l=3, k=6) at n = 40", report.passed)
    assert report.passed, report.to_json()


def test_criterion_07_samecyc_gadgets():
    report = verify_theorem("samecyc-gadgets")
    _report(7, "two-apex diameter-3 gadgets at n = 40: sides C8-free, patterns",
            report.passed)
    assert report.passed, report.to_json()


def test_criterion_08_contrast_witnesses():
    report = verify_theorem("h3-contrast")
    _report(8, "dominated paths H3-free (n in {10,15,20,25}); K_{n,n} C5-free",
            report.passed)
    assert report.passed, report.to_json()


def test_criterion_09_containment_oracle_equivalence():
    hosts = [g for g in atlas_graphs() if g.n <= 6]
    patterns = [g for g in atlas_graphs() if g.n <= 4]
    mismatches = 0
    pairs = 0
    for host in hosts:
        for pat in patterns:
            pairs += 1
            for induced in (False, True):
                fn = has_induced_subgraph if induced else has_subgraph
                got = fn(host, pat, budget=None) is not ABSENT
                want = brute_has_subgraph(host, pat, induced)
                if got != want:
                    mismatches += 1
    # specialized bouquet checkers vs every bouquet pattern on <= 12 vertices
    bouquet_patterns = []
    for mode in ("vertex", "edge"):
        base = 1 if mode == "vertex" else 2
        per = 1 if mode == "vertex" else 2
        for k in range(2, 11):
            if base + k * (3 - per) > 12:
                break
            for ls in _length_tuples(k):
                if base + sum(l - per for l in ls) <= 12:
                    bouquet_patterns.append((ls, mode))
    hosts14 = criterion_09_hosts()
    bq_mismatch = 0
    for lengths, mode in bouquet_patterns:
        pattern = cycle_bouquet(list(lengths), mode)
        for host in hosts14:
            cert = vtype_or_etype_free(host, list(lengths), mode, budget=None)
            direct = has_subgraph(host, pattern, budget=None) is ABSENT
            if cert.free != direct:
                bq_mismatch += 1
    ok = mismatches == 0 and bq_mismatch == 0
    _report(9, "matchers vs brute-force maps; bouquet checkers vs containment", ok,
            f"{pairs} pairs, {len(bouquet_patterns)} bouquets x 50 hosts")
    assert ok, (mismatches, bq_mismatch)


def _length_tuples(k: int):
    out = []

    def rec(prefix, lo, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for l in range(lo, 9):
            rec(prefix + [l], l, remaining - 1)

    rec([], 3, k)
    return out


def test_criterion_10_classification_catalog():
    failures = []
    for label, factory, relation, parameter, d, answer, citation, fired_in, note_sub in CATALOG:
        v = classify(factory(), relation, parameter, d)
        if v.answer != answer:
            failures.append((label, "answer", v.answer, answer))
        if citation is not None and v.citation != citation:
            failures.append((label, "citation", v.citation, citation))
        if fired_in is not None and fired_in not in v.fired:
            failures.append((label, "fired", v.fired, fired_in))
        if note_sub is not None and note_sub not in v.note:
            failures.append((label, "note", v.note, note_sub))
    # d-monotonicity per query graph: Bounded is a down-set, Unbounded an up-set
    mono_failures = []
    seen = set()
    for label, factory, relation, parameter, _d, *_rest in CATALOG:
        key = (label.split()[0], relation, parameter)
        if key in seen:
            continue
        seen.add(key)
        answers = []
        for d2 in [1, 2, 3, 4, 5, 6, INF]:
            answers.append(classify(factory(), relation, parameter, d2).answer)
        seen_unbounded = False
        for a in answers:
            if a == "Unbounded":
                seen_unbounded = True
            elif seen_unbounded and a == "Bounded":
                mono_failures.append((label, answers))
                break
    # parameter chain: bounded td => pw => tw => cw whenever all are decided
    chain_failures = []
    for label, factory, relation, _p, d, *_rest in CATALOG:
        verdicts = {
            p: classify(factory(), relation, p, d).answer
            for p in ("td", "pw", "tw", "cw")
        }
        if "Open" in verdicts.values():
            continue
        order = ["td", "pw", "tw", "cw"]
        for i in range(3):
            if verdicts[order[i]] == "Bounded" and verdicts[order[i + 1]] != "Bounded":
                chain_failures.append((label, verdicts))
                break
    ok = not failures and not mono_failures and not chain_failures
    _report(10, "60-query classification catalog + consistency + monotonicity", ok,
            f"{len(CATALOG)} queries")
    assert ok, (failures[:6], mono_failures[:3], chain_failures[:3])


def test_criterion_11_census_anchor():
    rows = census(6, path_graph(7), "subgraph", INFINITE, "td")
    counts = [r.count for r in rows]
    ok = counts == [1, 1, 2, 6, 21, 112]
    for row in rows:
        g = from_graph6(row.witness_graph6)
        if g.n != row.n or treedepth_exact(g).value != row.max_width:
            ok = False
        if not is_pattern_free(g, path_graph(7), "subgraph"):
            ok = False
    filtered = census(5, path_graph(1), "subgraph", 2, "td")
    if any(r.count != 0 for r in filtered):
        ok = False
    _report(11, "census counts 1,1,2,6,21,112 and independent witness re-verification",
            ok, f"counts={counts}")
    assert ok


def test_criterion_12_refuter_soundness_and_refutation():
    er7 = er_polarity_graph(7)
    measured = longest_induced_path(er7)  # deterministic lower-bound measurement
    l_star = measured.length
    sound = True
    for L in range(3, l_star + 1):
        out = refute_path(2, 2, L, budget=40_000)
        if out.status == "Refuted":
            sound = False
            break
    refutation = refute_path(3, 2, 64, budget=10_000_000)
    ok = sound and refutation.status == "Refuted"
    _report(12, "refuter never refutes the C4 case up to the measured path; "
                "refutes the C6 case at L = 64", ok,
            f"measured induced path edges in ER_7: {l_star} "
            f"(exact={measured.exact}); refutation nodes={refutation.nodes}")
    assert ok
