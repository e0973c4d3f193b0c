import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diamwidth
from diamwidth.cli import build_parser, main
from diamwidth.experiments import THEOREM_CHECKS
from diamwidth.formats import read_graph
from diamwidth.graphs import DEFAULT_BUDGET


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_construct_and_width(tmp_path, capsys):
    g6 = str(tmp_path / "g.g6")
    code, _ = run(["construct", "cycle:6", "--out", g6], capsys)
    assert code == 0
    cert = str(tmp_path / "cert.json")
    code, out = run(["width", "td", "--in", g6, "--certificate", cert], capsys)
    assert code == 0
    assert json.loads(out.strip())["value"] == 4
    payload = json.loads(open(cert).read())
    assert payload["schema"] == "td-elimination-forest/v1"


def test_construct_refuses_a_huge_family_before_building(monkeypatch, capsys):
    from diamwidth import families

    def never(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setitem(families._BUILDERS, "gadget-cv", never)
    assert main(["construct", "gadget-cv:100000000"]) == 2
    assert "over the limit" in capsys.readouterr().err


def test_construct_writes_labels(tmp_path, capsys):
    g6 = str(tmp_path / "g.g6")
    labels = str(tmp_path / "labels.json")
    code, _ = run(["construct", "gadget-cv:8", "--out", g6, "--labels", labels], capsys)
    assert code == 0
    g = read_graph(g6, "graph6", labels)
    assert g.find_label("Z:x:0,1") >= 0


def test_check_subgraph_and_budget_exit(tmp_path, capsys):
    host = str(tmp_path / "host.g6")
    pat = str(tmp_path / "pat.g6")
    run(["construct", "biclique:2,2", "--out", host], capsys)
    run(["construct", "cycle:4", "--out", pat], capsys)
    code, out = run(["check", "subgraph", "--host", host, "--pattern", pat], capsys)
    assert code == 0 and json.loads(out)["result"] == "found"
    run(["construct", "clique:8", "--out", host], capsys)
    run(["construct", "clique:7", "--out", pat], capsys)
    for kind, extra in (
        ("subgraph", ["--pattern", pat]),
        ("induced", ["--pattern", pat]),
        ("minor", ["--pattern", pat]),
        ("vfree", ["--lengths", "4,4"]),
        ("efree", ["--lengths", "4,4"]),
    ):
        code, out = run(["check", kind, "--host", host, *extra, "--budget", "1"], capsys)
        assert code == 3 and json.loads(out)["result"] == "budget", kind


def test_budget_default_ignores_environment(monkeypatch):
    # --budget is the one way to set a check's budget
    monkeypatch.setenv("DIAMWIDTH_BUDGET", "5")
    args = build_parser().parse_args(["check", "vfree", "--host", "h.g6"])
    assert args.budget == DEFAULT_BUDGET


def test_check_efree(tmp_path, capsys):
    host = str(tmp_path / "host.g6")
    run(["construct", "ce:6,6", "--out", host], capsys)
    code, out = run(
        ["check", "efree", "--host", host, "--lengths", "6,6"], capsys
    )
    assert code == 0
    assert json.loads(out)["result"] == "contains"


def test_check_vfree_multiplicity_shorthand(tmp_path, capsys):
    host = str(tmp_path / "cv.g6")
    run(["construct", "gadget-cv:32", "--out", host], capsys)
    code, out = run(
        ["check", "vfree", "--host", host, "--lengths", "12x6,12x8"], capsys
    )
    assert code == 0
    assert json.loads(out)["result"] == "free"
    code, out = run(
        ["check", "vfree", "--host", host, "--lengths", "6,6"], capsys
    )
    assert code == 0
    assert json.loads(out)["result"] == "contains"


def test_classify_cli(tmp_path, capsys):
    g6 = str(tmp_path / "c6.g6")
    run(["construct", "cycle:6", "--out", g6], capsys)
    code, out = run(
        [
            "classify", "--forbidden", g6, "--relation", "subgraph",
            "--parameter", "td", "--diameter", "3", "--json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "Unbounded"
    assert payload["citation"] == "gq-polarity-c6-d3"


def test_census_cli(capsys):
    code, out = run(
        [
            "census", "--n-max", "4", "--forbidden", "clique:3",
            "--relation", "subgraph", "--diameter", "2",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "n,count,max_width,witness_graph6"


def test_census_rejects_bad_diameter_and_order(capsys):
    base = ["census", "--forbidden", "clique:3"]
    assert main(base + ["--n-max", "4", "--diameter", "0"]) == 2
    assert "d must be an integer >= 1 or infinity" in capsys.readouterr().err
    assert main(base + ["--n-max", "0", "--diameter", "2"]) == 2
    assert "n_max must be >= 1" in capsys.readouterr().err


def test_refute_cli(capsys):
    code, out = run(
        ["refute", "--r", "3", "--d", "2", "--length", "12"], capsys
    )
    assert code == 0
    assert json.loads(out)["status"] == "Refuted"
    argv = ["refute", "--r", "2", "--d", "2", "--length", "8", "--vocabulary", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "vocabulary >= 0" in err and "Traceback" not in err


def test_refute_cli_starts_fresh_from_a_malformed_state(tmp_path, capsys):
    state = tmp_path / "s.json"
    argv = ["refute", "--r", "2", "--d", "2", "--length", "8", "--budget", "1000",
            "--state", str(state)]
    for decisions in ([99], ["a"], [-5]):
        state.write_text(json.dumps({"r": 2, "d": 2, "L": 8, "vocabulary": 12,
                                     "nodes": 0, "decisions": decisions}))
        code, out = run(argv, capsys)
        assert code == 0
        assert (json.loads(out)["status"], json.loads(out)["nodes"]) == ("Consistent", 50)


def test_closed_stdout_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    # a reader that closes the pipe early: no error line and exit 1, the
    # status Python gives a broken pipe; the rest of stdout goes to devnull
    sink = open(tmp_path / "sink", "w")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return sink.fileno()

    argv = ["refute", "--r", "2", "--d", "2", "--length", "8", "--vocabulary", "0"]
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 1
    sink.close()
    assert capsys.readouterr().err == ""
    # an input file that cannot be read is still a usage error
    missing = str(tmp_path / "missing.g6")
    assert main(["width", "td", "--in", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_convert_round_trip(tmp_path, capsys):
    el = tmp_path / "p3.el"
    el.write_text("3 2\n0 1\n1 2\n")
    g6 = str(tmp_path / "p3.g6")
    code, _ = run(
        ["convert", "--in", str(el), "--in-format", "edgelist",
         "--out", g6, "--out-format", "graph6"],
        capsys,
    )
    assert code == 0
    back = str(tmp_path / "back.el")
    run(
        ["convert", "--in", g6, "--in-format", "graph6",
         "--out", back, "--out-format", "edgelist"],
        capsys,
    )
    assert open(back).read() == el.read_text()


def test_width_rejects_failed_certificate(tmp_path, capsys, monkeypatch):
    import diamwidth.cli

    g6 = str(tmp_path / "g.g6")
    run(["construct", "cycle:6", "--out", g6], capsys)
    monkeypatch.setattr(diamwidth.cli, "verify_certificate", lambda g, result: False)
    code, out = run(["width", "tw", "--in", g6], capsys)
    assert code == 1 and out == ""


def test_malformed_graph6_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("C\n")
    code, _ = run(["width", "td", "--in", str(bad)], capsys)
    assert code == 2


def test_malformed_edge_list_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 1 2\n")
    assert main(["width", "td", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "format error: edge line must be 'u v' (byte offset 4)" in err
    assert "Traceback" not in err


def test_malformed_label_sidecar_is_format_error(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text("Bw\n")
    labels = tmp_path / "lab.json"
    for text in ('["apex"]', '{"apex": "0"}', '{"0": "a"'):
        labels.write_text(text)
        args = ["convert", "--in", str(g6), "--in-labels", str(labels),
                "--out", str(tmp_path / "out.el"), "--out-format", "edgelist"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and "byte offset" in err
        assert "Traceback" not in err


def test_unknown_theorem_key_is_usage_error(capsys):
    assert run(["verify-theorem", "nonexistent"], capsys)[0] == 2


@pytest.mark.parametrize("key", sorted(THEOREM_CHECKS))
def test_verify_theorem_cli(key, capsys):
    code, out = run(["verify-theorem", key], capsys)
    assert code == 0
    assert json.loads(out)["passed"]


def test_experiment_cli(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "family_template": "er-polarity:{}",
                "values": [2, 3],
                "checks": [{"kind": "free", "pattern": "cycle:4", "expect": True}],
            }
        )
    )
    out_csv = str(tmp_path / "out.csv")
    code, _ = run(["experiment", "--plan", str(plan), "--out", out_csv], capsys)
    assert code == 0
    assert "free" in open(out_csv).read()
    # failing expectation exits 1
    plan.write_text(
        json.dumps(
            {
                "family_template": "path:{}",
                "values": [6],
                "checks": [{"kind": "diameter", "expect": 2}],
            }
        )
    )
    code, _ = run(["experiment", "--plan", str(plan)], capsys)
    assert code == 1


def test_experiment_rejects_malformed_plans(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    for raw, message in (
        ([1], "must be a JSON object"),
        ({"values": [3]}, "lacks family_template"),
        ({"family_template": "path:{}"}, "lacks values"),
        ({"family_template": 5, "values": [3]}, "family_template must be a string"),
        ({"family_template": "path:{1}", "values": [3]}, "family_template takes one {} field"),
        ({"family_template": "path:{}", "values": 5}, "values must be a list of integers"),
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
             "checks": [{"kind": "free", "pattern": "cycle:3", "expect": "false"}]},
            "free checks take a boolean expect",
        ),
    ):
        plan.write_text(json.dumps(raw))
        assert main(["experiment", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.g6"), str(tmp_path / "b.g6")
    run(["construct", "gadget-ce:20,4", "--out", a], capsys)
    run(["construct", "gadget-ce:20,4", "--out", b], capsys)
    assert open(a).read() == open(b).read()


def test_removed_global_flags_are_usage_errors(tmp_path, capsys):
    g6 = str(tmp_path / "g.g6")
    run(["construct", "cycle:4", "--out", g6], capsys)
    for argv in (
        ["--seed", "7", "construct", "cycle:4"],
        ["--deterministic", "construct", "cycle:4"],
        ["--jobs", "2", "construct", "cycle:4"],
        ["width", "td", "--in", g6, "--limit", "5"],  # the removed width flag
    ):
        code, _ = run(argv, capsys)
        assert code == 2, argv


def test_check_rejects_forged_witnesses(tmp_path, capsys, monkeypatch):
    import diamwidth.cli
    from diamwidth.containment import Embedding
    from diamwidth.cycles import CyclePacking, FreenessCertificate

    host = str(tmp_path / "host.g6")
    pat = str(tmp_path / "pat.g6")
    run(["construct", "cycle:6", "--out", host], capsys)
    run(["construct", "path:3", "--out", pat], capsys)
    # 0 and 3 are not adjacent on C6, so this map is no subgraph copy of P3
    forged = Embedding("subgraph", vertex_map=(0, 3, 1))
    monkeypatch.setattr(diamwidth.cli, "has_subgraph", lambda h, p, b: forged)
    code, out = run(["check", "subgraph", "--host", host, "--pattern", pat], capsys)
    assert code == 1 and out == ""
    # one 6-cycle where the quota asks for two
    packing = CyclePacking(("vertex", 0), ((0, 1, 2, 3, 4, 5),))
    cert = FreenessCertificate(False, "vertex", (6, 6), packing)
    monkeypatch.setattr(diamwidth.cli, "vtype_or_etype_free", lambda h, l, m, b: cert)
    code, out = run(["check", "vfree", "--host", host, "--lengths", "2x6"], capsys)
    assert code == 1 and out == ""


def test_construct_rejects_wrong_parameter_counts(capsys):
    for spec in ("path:3,4", "wall:1,2,3"):
        assert run(["construct", spec], capsys)[0] == 2


def test_check_rejects_malformed_lengths(tmp_path, capsys):
    host = str(tmp_path / "host.g6")
    run(["construct", "cycle:6", "--out", host], capsys)
    for bad in ("6,,8", "x6", "6x", "six"):
        assert run(["check", "vfree", "--host", host, "--lengths", bad], capsys)[0] == 2
    for kind in ("vfree", "efree"):  # zero cycles: no bouquet to look for
        assert run(["check", kind, "--host", host, "--lengths", "0x6"], capsys)[0] == 2


def test_budget_must_not_be_negative(tmp_path, capsys):
    g6 = str(tmp_path / "c6.g6")
    run(["construct", "cycle:6", "--out", g6], capsys)
    commands = {
        "check": ["check", "subgraph", "--host", g6, "--pattern", g6],
        "classify": ["classify", "--forbidden", g6, "--relation", "subgraph",
                     "--parameter", "td", "--diameter", "3"],
        "refute": ["refute", "--r", "2", "--d", "2", "--length", "8"],
        "experiment": ["experiment", "--plan", str(tmp_path / "plan.json")],
    }
    for name, argv in commands.items():
        for bad in ("-5", "-1", "five"):
            assert main(argv + ["--budget", bad]) == 2, (name, bad)
            err = capsys.readouterr().err
            assert "budget must be an integer >= 0" in err and "Traceback" not in err
    # a budget of 0 is a search that may spend nothing
    code, out = run(commands["refute"] + ["--budget", "0"], capsys)
    assert code == 3 and json.loads(out)["status"] == "BudgetExhausted"
    code, out = run(commands["classify"] + ["--budget", "0"], capsys)
    assert code == 0 and out.startswith("Open (budget-limited")


def test_package_runs_as_a_module():
    root = str(Path(diamwidth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "diamwidth", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: diamwidth")
