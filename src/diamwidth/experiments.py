"""Experiment harness and theorem-check bundles.

``run_experiment`` sweeps a family over a parameter range, runs declared
checks per instance (diameter target, pattern freeness, width values or
bounds) and emits one CSV row per instance.  ``verify_theorem`` runs a
named bundle of desk-scale checks behind each headline construction and
reports per-check status and runtimes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .containment import ABSENT, BUDGET, DEFAULT_BUDGET, has_subgraph
from .cycles import cycles_through_vertex, vtype_or_etype_free, cycle_packing
from .families import (
    apex_path,
    build_family,
    ce_pattern,
    complete_bipartite,
    gadget_cv_unbounded,
    gadget_ce_unbounded,
    gadget_samecyc,
    gadget_triangle_free_cw,
    h_graph,
    parse_family_spec,
    path_vertex_ids,
    samecyc_pattern,
)
from .atlas import has_triangle
from .graphs import diameter
from .polarity import absolute_points, er_polarity_graph, max_common_neighbors
from .width import treedepth_bounds, treedepth_exact

EXPERIMENT_CSV_SCHEMA = "diamwidth-experiment/v1"


@dataclass(frozen=True)
class ExperimentPlan:
    """Family template sweep plus the checks to run on each instance.

    JSON form: {"family_template": "gadget-cv:{}", "values": [8, 16],
    "checks": [{"kind": "diameter", "expect": 2},
               {"kind": "free", "relation": "subgraph",
                "pattern": "hgraph:3,1", "expect": true},
               {"kind": "width", "parameter": "td", "mode": "bounds"}]}
    """

    family_template: str
    values: tuple[int, ...]
    checks: tuple[dict, ...]

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("an experiment plan must be a JSON object")
        missing = [key for key in ("family_template", "values") if key not in raw]
        if missing:
            raise ValueError(f"experiment plan lacks {' and '.join(missing)}")
        plan = cls(
            family_template=raw["family_template"],
            values=tuple(int(v) for v in raw["values"]),
            checks=tuple(raw.get("checks", [])),
        )
        plan.validate()
        return plan

    def validate(self) -> None:
        for v in self.values:
            parse_family_spec(self.family_template.format(v))
        for chk in self.checks:
            if chk.get("kind") not in ("diameter", "free", "width"):
                raise ValueError(f"unknown check kind {chk.get('kind')!r}")
            if chk["kind"] == "free":
                parse_family_spec(chk["pattern"])
                if chk.get("relation", "subgraph") != "subgraph":
                    raise ValueError("free checks support the subgraph relation only")
            if chk["kind"] == "width":
                if chk.get("parameter", "td") != "td":
                    raise ValueError("width checks support td only")
                if chk.get("mode", "bounds") not in ("bounds", "exact"):
                    raise ValueError(f"unknown width mode {chk.get('mode')!r}")


def run_experiment(plan: ExperimentPlan, budget: int | None = DEFAULT_BUDGET):
    """Returns (header, rows, ok).  ok is False when any expectation fails."""
    plan.validate()
    header = ["schema", "family", "n", "m"]
    for idx, chk in enumerate(plan.checks):
        header.append(f"check{idx}_{chk['kind']}")
    rows = []
    all_ok = True
    for v in plan.values:
        spec_text = plan.family_template.format(v)
        g = build_family(spec_text)
        row = [EXPERIMENT_CSV_SCHEMA, spec_text, str(g.n), str(g.m)]
        for chk in plan.checks:
            kind = chk["kind"]
            if kind == "diameter":
                dia = diameter(g)
                cell = str(dia)
                if "expect" in chk and dia != chk["expect"]:
                    cell += "!FAIL"
                    all_ok = False
                if "expect_at_most" in chk and not dia <= chk["expect_at_most"]:
                    cell += "!FAIL"
                    all_ok = False
            elif kind == "free":
                pattern = build_family(chk["pattern"])
                res = has_subgraph(g, pattern, budget)
                if res is BUDGET:
                    cell = "budget"
                    all_ok = False
                else:
                    free = res is ABSENT
                    cell = "free" if free else "contains"
                    if "expect" in chk and free != bool(chk["expect"]):
                        cell += "!FAIL"
                        all_ok = False
            else:  # width
                if chk.get("mode", "bounds") == "exact":
                    res = treedepth_exact(g)
                    cell = str(res.value) if res.exact else "{}..{}".format(*res.bounds)
                else:
                    lo, hi = treedepth_bounds(g)
                    cell = f"{lo}..{hi}"
            row.append(cell)
        rows.append(row)
    return header, rows, all_ok


def experiment_csv(header: list[str], rows: list[list[str]]) -> str:
    out = [",".join(header)]
    out += [",".join(r) for r in rows]
    return "\n".join(out) + "\n"


# -- theorem-check bundles ------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    key: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "passed": self.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "seconds": round(c.seconds, 3),
                        "detail": c.detail,
                    }
                    for c in self.checks
                ],
            },
            indent=2,
        )


def _run_checks(key: str, steps) -> TheoremReport:
    results = []
    for name, fn in steps:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - reported, not masked
            ok, detail = False, f"error: {exc}"
        results.append(CheckResult(name, ok, time.perf_counter() - t0, detail))
    return TheoremReport(key, tuple(results))


def _check_thm5_gadget() -> TheoremReport:
    steps = []
    for h in (2, 3, 4):
        g = gadget_triangle_free_cw(h)

        def triangle_free(g=g):
            return not has_triangle(g), f"n={g.n}"

        def diameter_two(g=g):
            dia = diameter(g)
            return dia == 2, f"diameter={dia}"

        steps.append((f"h={h} triangle-free", triangle_free))
        steps.append((f"h={h} diameter 2", diameter_two))
    return _run_checks("thm5-gadget", steps)


def _check_thm10_family() -> TheoremReport:
    steps = []
    for q in (2, 3, 5, 7):
        g = er_polarity_graph(q)

        def counts(g=g, q=q):
            want_n = q * q + q + 1
            want_m = q * (q + 1) ** 2 // 2
            return (g.n, g.m) == (want_n, want_m), f"n={g.n} m={g.m}"

        def absolutes(g=g, q=q):
            degq = [v for v in range(g.n) if g.degree(v) == q]
            return (
                len(degq) == q + 1 and sorted(degq) == sorted(absolute_points(q)),
                f"{len(degq)} degree-{q} vertices",
            )

        def c4_free(g=g):
            return max_common_neighbors(g) <= 1, "pair scan"

        def diameter_two(g=g):
            return diameter(g) == 2, ""

        steps.append((f"q={q} counts", counts))
        steps.append((f"q={q} absolute points", absolutes))
        steps.append((f"q={q} C4-free", c4_free))
        steps.append((f"q={q} diameter 2", diameter_two))

    def growth():
        a = treedepth_exact(er_polarity_graph(2)).value
        b = treedepth_exact(er_polarity_graph(3)).value
        return a < b, f"td: {a} < {b}"

    steps.append(("treedepth growth q=2 -> q=3", growth))
    return _run_checks("thm10-family", steps)


def _check_thm15_gadget() -> TheoremReport:
    steps = []
    for n in (24, 32, 48):
        g = gadget_cv_unbounded(n)

        def diameter_two(g=g):
            return diameter(g) == 2, ""

        def induced_path(g=g, n=n):
            ids = path_vertex_ids(g)
            if len(ids) != n + 1:
                return False, f"{len(ids)} path vertices"
            for ia in range(len(ids)):
                for ib in range(ia + 1, len(ids)):
                    if g.has_edge(ids[ia], ids[ib]) != (ib - ia == 1):
                        return False, f"chord at positions ({ia},{ib})"
            return True, f"{len(ids)} path vertices, chordless"

        def second_z(g=g):
            zids = [v for v, lab in g.labels if lab.startswith("Z:")]
            zmask = 0
            for z in zids:
                zmask |= 1 << z
            for v, lab in g.labels:
                if lab.startswith("Z:x"):
                    if cycles_through_vertex(
                        g, v, 8, avoid=zmask & ~(1 << v), limit=1, budget=None
                    ):
                        return False, f"lone-Z C8 at {lab}"
                if lab.startswith("Z:y"):
                    if cycles_through_vertex(
                        g, v, 6, avoid=zmask & ~(1 << v), limit=1, budget=None
                    ):
                        return False, f"lone-Z C6 at {lab}"
            return True, "every anchored C8/C6 uses a second clique vertex"

        steps.append((f"n={n} diameter 2", diameter_two))
        steps.append((f"n={n} induced path on labels", induced_path))
        steps.append((f"n={n} second clique vertex", second_z))

    def packing_refuted():
        g = gadget_cv_unbounded(32)
        anchor = ("vertex", g.find_label("Z:x:0,1"))
        res = cycle_packing(g, anchor, {8: 12})
        return res is ABSENT, f"result={res!r}"

    steps.append(("n=32 twelve-C8 packing refuted at x(0,1)", packing_refuted))
    return _run_checks("thm15-gadget", steps)


def _check_thm17_gadget() -> TheoremReport:
    n, l = 40, 3
    g = gadget_ce_unbounded(n, l)
    k = 2 * (2 * l - 3)
    steps = [
        (
            "pattern l=3",
            lambda: (ce_pattern(3) == "110", ce_pattern(3)),
        ),
        (
            "pattern l=4",
            lambda: (ce_pattern(4) == "11010", ce_pattern(4)),
        ),
        (
            f"n={n} diameter 2",
            lambda: (diameter(g) == 2, ""),
        ),
        (
            f"n={n} no edge anchors {k} hexagons",
            lambda: (
                vtype_or_etype_free(g, [2 * l] * k, "edge", budget=None).free,
                f"quota {k} x C{2*l}",
            ),
        ),
    ]
    return _run_checks("thm17-gadget", steps)


def _check_samecyc_gadgets() -> TheoremReport:
    n = 40
    steps = []
    ga = gadget_samecyc(n, "A")
    gb = gadget_samecyc(n, "B", 4)
    steps.append(("variant A diameter <= 3", lambda: (diameter(ga) <= 3, str(diameter(ga)))))
    steps.append(("variant B diameter <= 3", lambda: (diameter(gb) <= 3, str(diameter(gb)))))

    def side_free(label: str):
        g = gb
        apex = g.find_label(label)
        ids = path_vertex_ids(g) + [apex]
        from .graphs import induced_subgraph

        sub, _ = induced_subgraph(g, ids)
        from .cycles import find_cycle_subgraph

        hit = find_cycle_subgraph(sub, 8, budget=None)
        return hit is ABSENT, f"{label}-side C8 search"

    steps.append(("variant B x-side C8-free", lambda: side_free("x")))
    steps.append(("variant B y-side C8-free", lambda: side_free("y")))
    for l in range(2, 7):
        want = "11" + "01" * (l - 2) + "00" + "10" * (l - 2)
        steps.append(
            (
                f"variant B pattern l={l}",
                lambda l=l, want=want: (
                    samecyc_pattern("B", l) == want and len(want) == 4 * l - 4,
                    samecyc_pattern("B", l),
                ),
            )
        )
    steps.append(
        ("variant A pattern", lambda: (samecyc_pattern("A") == "1100", "1100"))
    )
    return _run_checks("samecyc-gadgets", steps)


def _check_h3_contrast() -> TheoremReport:
    h3 = h_graph(3, 1)
    steps = []
    for n in (10, 15, 20, 25):
        g = apex_path(n)

        def free(g=g):
            res = has_subgraph(g, h3, budget=None)
            return res is ABSENT, ""

        def diam(g=g):
            return diameter(g) <= 2, str(diameter(g))

        steps.append((f"P_{n} join K_1 H3-subgraph-free", free))
        steps.append((f"P_{n} join K_1 diameter <= 2", diam))

    def knn_c5_free():
        g = complete_bipartite(5, 5)
        res = has_subgraph(g, build_family("cycle:5"), budget=None)
        return res is ABSENT and diameter(g) == 2, ""

    steps.append(("K_{5,5} C5-subgraph-free, diameter 2", knn_c5_free))
    return _run_checks("h3-contrast", steps)


THEOREM_CHECKS = {
    "thm5-gadget": _check_thm5_gadget,
    "thm10-family": _check_thm10_family,
    "thm15-gadget": _check_thm15_gadget,
    "thm17-gadget": _check_thm17_gadget,
    "samecyc-gadgets": _check_samecyc_gadgets,
    "h3-contrast": _check_h3_contrast,
}


def verify_theorem(key: str) -> TheoremReport:
    if key not in THEOREM_CHECKS:
        raise KeyError(
            f"unknown theorem check {key!r}; known: {sorted(THEOREM_CHECKS)}"
        )
    return THEOREM_CHECKS[key]()
