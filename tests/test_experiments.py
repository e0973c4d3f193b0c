import json
import math

import pytest

from diamwidth import families
from diamwidth.experiments import (
    ExperimentPlan,
    experiment_csv,
    run_experiment,
    verify_theorem,
)
from diamwidth.families import apex_path, gadget_cv_unbounded
from diamwidth.graphs import graph_from_edges
from diamwidth.width import treedepth_exact


def test_plan_round_trip_and_validation():
    plan = ExperimentPlan.from_json(
        json.dumps(
            {
                "family_template": "gadget-cv:{}",
                "values": [8, 16],
                "checks": [{"kind": "diameter", "expect": 2}],
            }
        )
    )
    assert plan == ExperimentPlan("gadget-cv:{}", (8, 16), ({"kind": "diameter", "expect": 2},))
    for template in ("nope:{}", "path:{},4"):
        with pytest.raises(ValueError):
            ExperimentPlan.from_json(
                json.dumps({"family_template": template, "values": [3], "checks": []})
            )
    # checks run_experiment cannot run are rejected up front
    for bad in (
        {"kind": "bogus"},
        {"kind": "free", "relation": "minor", "pattern": "clique:4"},
        {"kind": "width", "parameter": "tw"},
        {"kind": "width", "mode": "upper"},
        {"kind": "width", "expect": "increasing"},  # bounds mode cannot increase
        {"kind": "diameter", "within": ["p:"]},
        {"kind": "path", "within": "p:"},
        {"kind": "path", "within": []},
    ):
        with pytest.raises(ValueError):
            ExperimentPlan.from_json(
                json.dumps({"family_template": "wall:{}", "values": [2], "checks": [bad]})
            )


def test_plan_must_be_an_object_with_template_and_values():
    for raw, message in (
        ([1], "an experiment plan must be a JSON object"),
        ("gadget-cv:{}", "an experiment plan must be a JSON object"),
        ({"values": [3]}, "experiment plan lacks family_template"),
        ({"family_template": "path:{}"}, "experiment plan lacks values"),
        ({}, "experiment plan lacks family_template and values"),
        ({"family_template": 5, "values": [3]}, "family_template must be a string"),
        ({"family_template": "path:{1}", "values": [3]}, "family_template takes one {} field"),
        ({"family_template": "path:{}", "values": 5}, "values must be a list of integers"),
        ({"family_template": "path:{}", "values": ["3"]}, "values must be a list of integers"),
        ({"family_template": "path:{}", "values": [3], "checks": [1]}, "checks must be a list"),
        ({"family_template": "path:{}", "values": [3], "checks": "abc"}, "checks must be a list"),
        (
            {"family_template": "path:{}", "values": [3], "checks": [{"kind": "free"}]},
            "free checks need a pattern",
        ),
        (
            {"family_template": "path:{}", "values": [3],
             "checks": [{"kind": "diameter", "expect": "2"}]},
            "diameter checks take an integer expect",
        ),
        (
            {"family_template": "path:{}", "values": [3],
             "checks": [{"kind": "diameter", "expect_at_most": True}]},
            "diameter checks take an integer expect_at_most",
        ),
        (
            {"family_template": "path:{}", "values": [3],
             "checks": [{"kind": "free", "pattern": "cycle:3", "expect": "false"}]},
            "free checks take a boolean expect",
        ),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_json(json.dumps(raw))


def test_cv_gadget_sweep():
    plan = ExperimentPlan(
        "gadget-cv:{}",
        (8, 16, 24, 32),
        (
            {"kind": "diameter", "expect": 2},
            {"kind": "width", "parameter": "td", "mode": "bounds"},
        ),
    )
    header, rows, ok = run_experiment(plan)
    assert ok
    diam_col = [r[4] for r in rows]
    assert diam_col == ["2", "2", "2", "2"]
    lows = [int(r[5].split("..")[0]) for r in rows]
    assert lows == sorted(lows) and lows[-1] > lows[0]


def test_er_sweep():
    plan = ExperimentPlan(
        "er-polarity:{}",
        (2, 3, 5, 7),
        ({"kind": "free", "pattern": "cycle:4", "expect": True},),
    )
    header, rows, ok = run_experiment(plan)
    assert ok
    assert all(r[4] == "free" for r in rows)


def test_apex_path_sweep_h3_freeness_and_growth():
    plan = ExperimentPlan(
        "apexpath:{},1",
        (4, 8, 16),
        (
            {"kind": "free", "pattern": "hgraph:3,1", "expect": True},
            {"kind": "diameter", "expect_at_most": 2},
        ),
    )
    _, rows, ok = run_experiment(plan)
    assert ok
    tds = [treedepth_exact(apex_path(n)).value for n in (4, 8, 16)]
    assert tds == sorted(tds) and tds[0] < tds[-1]
    for n, td in zip((4, 8, 16), tds):
        assert td >= math.ceil(math.log2(n + 1)) - 1


def test_failed_expectation_reported():
    plan = ExperimentPlan(
        "path:{}", (5,), ({"kind": "diameter", "expect": 2},)
    )
    _, rows, ok = run_experiment(plan)
    assert not ok
    assert "!FAIL" in rows[0][4]


def test_free_check_expect_false_is_read_as_false():
    # path:3 is triangle-free, so expecting a triangle fails and freeness passes
    for expect, ok in ((False, False), (True, True)):
        check = {"kind": "free", "pattern": "cycle:3", "expect": expect}
        _, rows, passed = run_experiment(ExperimentPlan("path:{}", (3,), (check,)))
        assert passed == ok and rows[0][4] == ("free" if ok else "free!FAIL")


def test_csv_shape():
    plan = ExperimentPlan("path:{}", (3, 4), ({"kind": "diameter"},))
    header, rows, _ = run_experiment(plan)
    text = experiment_csv(header, rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("schema,family,n,m,check0_diameter")
    assert len(lines) == 3


def test_verify_theorem_registry():
    with pytest.raises(KeyError):
        verify_theorem("nonexistent")
    report = verify_theorem("thm5-gadget")
    assert report.passed
    payload = json.loads(report.to_json())
    assert payload["key"] == "thm5-gadget"
    assert all("seconds" in c for c in payload["checks"])


def test_path_check_within_labels_can_fail():
    plan = ExperimentPlan(
        "apexpath:{},1001",
        (6,),
        ({"kind": "path", "within": ["p:"]}, {"kind": "path", "within": ["p:", "apex"]}),
    )
    _, rows, ok = run_experiment(plan)
    assert not ok
    assert rows[0][4:] == ["path", "not-path!FAIL"]


def test_free_check_within_labels_can_fail():
    # x(0,1) sees p_0 and p_4: the path plus that vertex has a C6
    plan = ExperimentPlan(
        "gadget-cv:{}",
        (24,),
        (
            {"kind": "free", "pattern": "cycle:6", "within": ["p:", "Z:x:0,1"], "expect": True},
            {"kind": "free", "pattern": "cycle:8", "within": ["p:", "Z:x:0,1"], "expect": True},
        ),
    )
    _, rows, ok = run_experiment(plan)
    assert not ok
    assert rows[0][4:] == ["contains!FAIL", "free"]


def test_increasing_width_can_fail():
    check = {"kind": "width", "parameter": "td", "mode": "exact", "expect": "increasing"}
    _, rows, ok = run_experiment(ExperimentPlan("path:{}", (3, 4, 5), (check,)))
    assert not ok
    assert [r[4] for r in rows] == ["2", "3", "3!FAIL"]
    assert run_experiment(ExperimentPlan("path:{}", (3, 4, 8), (check,)))[2]


def test_chord_on_the_cv_gadget_path_fails_its_bundle(monkeypatch):
    def chorded(n):
        g = gadget_cv_unbounded(n)
        p0, p5 = g.find_label("p:0"), g.find_label("p:5")
        return graph_from_edges(g.n, list(g.edges()) + [(p0, p5)], dict(g.labels))

    monkeypatch.setitem(families._BUILDERS, "gadget-cv", chorded)
    report = verify_theorem("thm15-gadget")
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "gadget-cv:24 path within=p:" in failed
