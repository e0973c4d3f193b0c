"""Experiment plans and the theorem-check bundles written as plans.

``run_experiment`` sweeps a family over a parameter range, runs declared
checks per instance (diameter target, pattern freeness, induced path,
width values or bounds) and emits one CSV row per instance.
``verify_theorem`` runs the plans of a named bundle behind each headline
construction through the same sweep and reports per-check status and
runtimes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .containment import ABSENT, BUDGET, DEFAULT_BUDGET, has_subgraph
from .families import build_family, parse_family_spec
from .graphs import diameter, induced_subgraph, is_path_graph
from .width import treedepth_bounds, treedepth_exact

EXPERIMENT_CSV_SCHEMA = "diamwidth-experiment/v1"


@dataclass(frozen=True)
class ExperimentPlan:
    """Family template sweep plus the checks to run on each instance.

    JSON form: {"family_template": "gadget-cv:{}", "values": [8, 16],
    "checks": [{"kind": "diameter", "expect": 2},
               {"kind": "free", "relation": "subgraph",
                "pattern": "hgraph:3,1", "expect": true},
               {"kind": "path", "within": ["p:"]},
               {"kind": "width", "parameter": "td", "mode": "bounds"}]}

    ``diameter`` checks take an integer ``expect`` or ``expect_at_most``.
    ``free`` checks pass iff the pattern's subgraph freeness equals the
    boolean ``expect`` (when given).  ``path`` checks pass iff the
    vertices induce a path.  ``within`` (free and path checks) keeps only
    the vertices whose label starts with one of its prefixes.  An exact
    ``width`` check with ``"expect": "increasing"`` passes iff each
    instance's value exceeds the previous instance's.
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
        plan = cls(raw["family_template"], raw["values"], raw.get("checks", []))
        plan.validate()
        return cls(plan.family_template, tuple(plan.values), tuple(plan.checks))

    def validate(self) -> None:
        if not isinstance(self.family_template, str):
            raise ValueError("family_template must be a string")
        if not isinstance(self.values, (list, tuple)) or not all(
            isinstance(v, int) for v in self.values
        ):
            raise ValueError("values must be a list of integers")
        if not isinstance(self.checks, (list, tuple)) or not all(
            isinstance(chk, dict) for chk in self.checks
        ):
            raise ValueError("checks must be a list of objects")
        for v in self.values:
            try:
                spec_text = self.family_template.format(v)
            except (IndexError, KeyError):
                raise ValueError("family_template takes one {} field") from None
            parse_family_spec(spec_text)
        for chk in self.checks:
            kind = chk.get("kind")
            if kind not in ("diameter", "free", "path", "width"):
                raise ValueError(f"unknown check kind {kind!r}")
            if "within" in chk and (
                kind not in ("free", "path")
                or not isinstance(chk["within"], (list, tuple))
                or not chk["within"]
                or not all(isinstance(p, str) for p in chk["within"])
            ):
                raise ValueError("within takes a list of label prefixes, on free and path checks")
            if kind == "diameter":
                for key in ("expect", "expect_at_most"):
                    if type(chk.get(key, 0)) is not int:  # a bool is no integer here
                        raise ValueError(f"diameter checks take an integer {key}")
            if kind == "free":
                if not isinstance(chk.get("pattern"), str):
                    raise ValueError("free checks need a pattern")
                parse_family_spec(chk["pattern"])
                if chk.get("relation", "subgraph") != "subgraph":
                    raise ValueError("free checks support the subgraph relation only")
                if not isinstance(chk.get("expect", True), bool):
                    raise ValueError("free checks take a boolean expect")
            if kind == "width":
                if chk.get("parameter", "td") != "td":
                    raise ValueError("width checks support td only")
                if chk.get("mode", "bounds") not in ("bounds", "exact"):
                    raise ValueError(f"unknown width mode {chk.get('mode')!r}")
                if "expect" in chk and (chk["expect"], chk.get("mode")) != ("increasing", "exact"):
                    raise ValueError('width checks expect only "increasing", in exact mode')


def _check(g, chk: dict, budget, prev):
    """Runs one check on one instance: (value, ok).  value is the CSV
    cell; ok is False when an expectation fails or the budget runs out.
    prev is the check's value on the sweep's previous instance, if any."""
    kind = chk["kind"]
    if "within" in chk:
        prefixes = tuple(chk["within"])
        g, _ = induced_subgraph(g, [v for v, lab in g.labels if lab.startswith(prefixes)])
    if kind == "diameter":
        dia = diameter(g)
        return dia, dia == chk.get("expect", dia) and dia <= chk.get("expect_at_most", dia)
    if kind == "free":
        res = has_subgraph(g, build_family(chk["pattern"]), budget)
        if res is BUDGET:
            return "budget", False
        free = res is ABSENT
        return ("free" if free else "contains"), free == chk.get("expect", free)
    if kind == "path":
        return ("path", True) if is_path_graph(g) else ("not-path", False)
    if chk.get("mode", "bounds") == "bounds":
        return "{}..{}".format(*treedepth_bounds(g)), True
    res = treedepth_exact(g)
    value = res.value if res.exact else "{}..{}".format(*res.bounds)
    if chk.get("expect") != "increasing":
        return value, True
    return value, res.exact and (prev is None or (isinstance(prev, int) and value > prev))


def _sweep(plan: ExperimentPlan, budget):
    """Validates the plan, then builds each instance and runs every check
    on it.  Yields (spec text, graph, [(cell, ok, seconds) per check]); a
    failed expectation's cell ends in "!FAIL"."""
    plan.validate()
    last: dict[int, object] = {}
    for v in plan.values:
        spec_text = plan.family_template.format(v)
        g = build_family(spec_text)
        results = []
        for idx, chk in enumerate(plan.checks):
            t0 = time.perf_counter()
            value, ok = _check(g, chk, budget, last.get(idx))
            last[idx] = value
            # a run-out budget is no answer, so there is no expectation to fail
            cell = str(value) if ok or value == "budget" else f"{value}!FAIL"
            results.append((cell, ok, time.perf_counter() - t0))
        yield spec_text, g, results


def run_experiment(plan: ExperimentPlan, budget: int | None = DEFAULT_BUDGET):
    """Returns (header, rows, ok).  ok is False when any expectation fails."""
    rows = []
    all_ok = True
    for spec_text, g, results in _sweep(plan, budget):
        rows.append([EXPERIMENT_CSV_SCHEMA, spec_text, str(g.n), str(g.m)])
        rows[-1] += [cell for cell, _ok, _s in results]
        all_ok &= all(ok for _cell, ok, _s in results)
    header = ["schema", "family", "n", "m"]
    header += [f"check{idx}_{chk['kind']}" for idx, chk in enumerate(plan.checks)]
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


def _free(pattern: str, *within: str) -> dict:
    chk = {"kind": "free", "pattern": pattern, "expect": True}
    return {**chk, "within": list(within)} if within else chk


_DIAMETER_2 = {"kind": "diameter", "expect": 2}

# Each bundle is the plans whose checks back one construction.  Counts,
# absolute points and bit patterns are pinned by the tests instead.
THEOREM_CHECKS: dict[str, tuple[ExperimentPlan, ...]] = {
    "thm5-gadget": (
        ExperimentPlan("gadget-cw:{}", (2, 3, 4), (_free("cycle:3"), _DIAMETER_2)),
    ),
    "thm10-family": (
        ExperimentPlan("er-polarity:{}", (2, 3, 5, 7), (_free("cycle:4"), _DIAMETER_2)),
        ExperimentPlan(
            "er-polarity:{}",
            (2, 3),
            ({"kind": "width", "parameter": "td", "mode": "exact", "expect": "increasing"},),
        ),
    ),
    # Every anchored C8 through an x-type clique vertex, and every C6
    # through a y-type one, uses a second clique vertex: the path plus
    # that one vertex has no such cycle.  So twelve C8s through x(0,1),
    # disjoint apart from it, would need twelve other clique vertices;
    # there are eleven.
    "thm15-gadget": (
        ExperimentPlan(
            "gadget-cv:{}",
            (24, 32, 48),
            (_DIAMETER_2, {"kind": "path", "within": ["p:"]})
            + tuple(_free("cycle:8", "p:", f"Z:x:{ij}") for ij in "0,1 1,2 2,3 3,0".split())
            + tuple(
                _free("cycle:6", "p:", f"Z:y:{ij}")
                for ij in "0,2 1,3 2,4 3,5 4,6 5,7 6,0 7,1".split()
            ),
        ),
    ),
    "thm17-gadget": (
        ExperimentPlan("gadget-ce:{},3", (40,), (_DIAMETER_2, _free("ce:6x6"))),
    ),
    "samecyc-gadgets": (
        ExperimentPlan("samecyc:{},A", (40,), ({"kind": "diameter", "expect_at_most": 3},)),
        ExperimentPlan(
            "samecyc:{},B,4",
            (40,),
            (
                {"kind": "diameter", "expect_at_most": 3},
                _free("cycle:8", "p:", "x"),
                _free("cycle:8", "p:", "y"),
            ),
        ),
    ),
    "h3-contrast": (
        ExperimentPlan(
            "apexpath:{},1",
            (10, 15, 20, 25),
            (_free("hgraph:3,1"), {"kind": "diameter", "expect_at_most": 2}),
        ),
        ExperimentPlan("biclique:5,{}", (5,), (_free("cycle:5"), _DIAMETER_2)),
    ),
}


def _check_name(chk: dict) -> str:
    """The check in words, e.g. "free pattern=cycle:8 expect=True within=p:+x"."""
    words = [chk["kind"]]
    for key, val in chk.items():
        if key != "kind":
            words.append(f"{key}={'+'.join(val) if isinstance(val, (list, tuple)) else val}")
    return " ".join(words)


def verify_theorem(key: str) -> TheoremReport:
    if key not in THEOREM_CHECKS:
        raise KeyError(
            f"unknown theorem check {key!r}; known: {sorted(THEOREM_CHECKS)}"
        )
    results = []
    for plan in THEOREM_CHECKS[key]:
        for spec_text, _g, outcomes in _sweep(plan, DEFAULT_BUDGET):
            for chk, (cell, ok, seconds) in zip(plan.checks, outcomes):
                results.append(CheckResult(f"{spec_text} {_check_name(chk)}", ok, seconds, cell))
    return TheoremReport(key, tuple(results))
