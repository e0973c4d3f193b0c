"""Command-line front end.

Subcommands: construct, check, width, classify, census, refute,
experiment, verify-theorem, convert.  Exit codes: 0 success, 1 check
failure, 2 usage error, 3 budget exhausted.  Every command is
deterministic and single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import __version__
from .atlas import DEFAULT_CLASSIFY_BUDGET, classify, citation_statement
from .census import census, census_to_csv
from .containment import (
    ABSENT,
    BUDGET,
    DEFAULT_BUDGET,
    has_induced_subgraph,
    has_minor,
    has_subgraph,
    verify_embedding,
)
from .cycles import verify_packing, vtype_or_etype_free
from .experiments import (
    ExperimentPlan,
    experiment_csv,
    run_experiment,
    verify_theorem,
)
from .families import build_family, parse_family_spec
from .formats import FormatError, read_graph, write_graph, to_graph6, to_edgelist, labels_to_json
from .graphs import INFINITE
from .refuter import refute_path, verify_model
from .width import (
    SizeLimitError,
    pathwidth_exact,
    treedepth_exact,
    treewidth_exact,
    verify_certificate,
    EliminationForest,
    TreeDecomposition,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _cmd_construct(args) -> int:
    text = args.family
    if args.params:  # space-separated params: "construct er-polarity 3"
        text = text + ":" + ",".join(args.params)
    spec = parse_family_spec(text)
    g = build_family(spec)
    if args.out:
        write_graph(args.out, g, args.format, args.labels)
    else:
        sys.stdout.write(to_graph6(g) + "\n" if args.format == "graph6" else to_edgelist(g))
        if args.labels:
            with open(args.labels, "w", encoding="utf-8") as fh:
                fh.write(labels_to_json(g))
    sys.stderr.write(f"{spec.text()}: n={g.n} m={g.m}\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    host = read_graph(args.host, args.host_format)
    budget = args.budget
    if args.kind in ("subgraph", "induced", "minor"):
        if args.pattern:
            pattern = read_graph(args.pattern, args.pattern_format)
        elif args.pattern_family:
            pattern = build_family(args.pattern_family)
        else:
            sys.stderr.write("check: need --pattern or --pattern-family\n")
            return EXIT_USAGE
        fn = {"subgraph": has_subgraph, "induced": has_induced_subgraph, "minor": has_minor}[args.kind]
        res = fn(host, pattern, budget)
        if res is BUDGET:
            print(json.dumps({"result": "budget"}))
            return EXIT_BUDGET
        if res is ABSENT:
            print(json.dumps({"result": "absent"}))
            return EXIT_OK
        if not verify_embedding(host, pattern, res):
            sys.stderr.write(f"check: {args.kind} embedding failed verification\n")
            return EXIT_CHECK_FAILED
        payload = {"result": "found", "mode": res.mode}
        if res.mode == "minor":
            payload["branch_sets"] = [sorted(b) for b in res.branch_sets]
        else:
            payload["vertex_map"] = list(res.vertex_map)
        print(json.dumps(payload))
        return EXIT_OK
    # vfree / efree
    if not args.lengths:
        sys.stderr.write("check: vfree/efree need --lengths\n")
        return EXIT_USAGE
    lengths = list(parse_family_spec("cv:" + args.lengths).args)
    mode = "vertex" if args.kind == "vfree" else "edge"
    cert = vtype_or_etype_free(host, lengths, mode, budget)
    if cert is BUDGET:
        print(json.dumps({"result": "budget"}))
        return EXIT_BUDGET
    if cert.witness is not None and not verify_packing(host, cert.witness, Counter(lengths)):
        sys.stderr.write(f"check: {args.kind} witness failed verification\n")
        return EXIT_CHECK_FAILED
    payload = {"result": "free" if cert.free else "contains", "lengths": list(cert.lengths)}
    if cert.witness is not None:
        payload["witness_cycles"] = [list(c) for c in cert.witness.cycles]
        payload["anchor"] = list(cert.witness.anchor[1:])
    print(json.dumps(payload))
    return EXIT_OK


def _certificate_payload(result) -> dict:
    cert = result.certificate
    if isinstance(cert, EliminationForest):
        body = {"parents": list(cert.parents)}
        schema = "td-elimination-forest/v1"
    elif isinstance(cert, TreeDecomposition):
        body = {
            "bags": [sorted(b) for b in cert.bags],
            "tree_edges": [list(e) for e in cert.tree_edges],
        }
        schema = "tw-tree-decomposition/v1"
    else:
        body = {"order": list(cert)}
        schema = "pw-vertex-order/v1"
    return {"schema": schema, "parameter": result.parameter, "value": result.value, **body}


def _cmd_width(args) -> int:
    g = read_graph(args.infile, args.format)
    solve = {"td": treedepth_exact, "pw": pathwidth_exact, "tw": treewidth_exact}[args.parameter]
    try:
        result = solve(g)
    except SizeLimitError as exc:
        sys.stderr.write(f"width: {exc}\n")
        return EXIT_USAGE
    if not result.exact:
        lo, hi = result.bounds
        print(json.dumps({"parameter": args.parameter, "exact": False, "lower": lo, "upper": hi}))
        return EXIT_OK
    if not verify_certificate(g, result):
        sys.stderr.write(f"width: {args.parameter} certificate failed verification\n")
        return EXIT_CHECK_FAILED
    print(json.dumps({"parameter": args.parameter, "exact": True, "value": result.value}))
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            json.dump(_certificate_payload(result), fh, indent=2)
    return EXIT_OK


def _parse_diameter(text: str):
    if text in ("inf", "infinity", "none"):
        return INFINITE
    return int(text)


def _cmd_classify(args) -> int:
    g = read_graph(args.forbidden, args.format)
    d = _parse_diameter(args.diameter)
    forbidden = [g] if args.relation == "minor" else g
    verdict = classify(forbidden, args.relation, args.parameter, d, args.budget)
    payload = {
        "answer": verdict.answer,
        "citation": verdict.citation,
        "note": verdict.note,
        "fired_rules": list(verdict.fired),
        "trace": list(verdict.trace),
    }
    if verdict.citation:
        payload["citation_statement"] = citation_statement(verdict.citation)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        line = f"{verdict.answer}"
        if verdict.citation:
            line += f" [{verdict.citation}]"
        if verdict.note:
            line += f" ({verdict.note})"
        print(line)
    return EXIT_OK


def _cmd_census(args) -> int:
    forbidden = build_family(args.forbidden)
    d = _parse_diameter(args.diameter)
    rows = census(args.n_max, forbidden, args.relation, d, args.parameter)
    sys.stdout.write(census_to_csv(rows))
    return EXIT_OK


def _cmd_refute(args) -> int:
    out = refute_path(args.r, args.d, args.length, args.budget, args.vocabulary, args.state)
    payload = {
        "status": out.status,
        "nodes": out.nodes,
        "witnesses_used": out.witnesses_used,
        "vocabulary": out.vocabulary,
    }
    if out.dead_obligation:
        payload["dead_obligation"] = list(out.dead_obligation)
    if out.model is not None:
        ok, reason = verify_model(out.model, args.r, args.d, args.length)
        payload["model_graph6"] = to_graph6(out.model)
        payload["model_verified"] = ok
        if not ok:
            payload["model_error"] = reason
    print(json.dumps(payload, indent=2))
    if out.status == "Refuted":
        sys.stderr.write(
            "note: a refutation without a dead obligation is relative to the "
            f"witness vocabulary ({out.vocabulary} auxiliary vertices)\n"
        )
    if out.status == "BudgetExhausted":
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = ExperimentPlan.from_json(fh.read())
    header, rows, ok = run_experiment(plan, args.budget)
    csv_text = experiment_csv(header, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify_theorem(args) -> int:
    try:
        report = verify_theorem(args.key)
    except KeyError as exc:
        sys.stderr.write(f"verify-theorem: {exc}\n")
        return EXIT_USAGE
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_convert(args) -> int:
    g = read_graph(args.infile, args.in_format, args.in_labels)
    write_graph(args.out, g, args.out_format, args.out_labels)
    return EXIT_OK


def _budget(text: str) -> int:
    """The type of every ``--budget``: a node count, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diamwidth",
        description="Graph-width boundedness under diameter bounds: "
        "constructions, exact solvers, classification oracle.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a named family or gadget")
    c.add_argument("family", help="family spec, e.g. gadget-cv:32 or cv:12x6,12x8")
    c.add_argument("params", nargs="*", help="parameters, if not given inline")
    c.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    c.add_argument("--out")
    c.add_argument("--labels", help="write the JSON label sidecar here")
    c.set_defaults(fn=_cmd_construct)

    k = sub.add_parser("check", help="containment and freeness checks")
    k.add_argument("kind", choices=["subgraph", "induced", "minor", "vfree", "efree"])
    k.add_argument("--host", required=True)
    k.add_argument("--host-format", choices=["graph6", "edgelist"])
    k.add_argument("--pattern")
    k.add_argument("--pattern-format", choices=["graph6", "edgelist"])
    k.add_argument("--pattern-family", help="pattern as a family spec")
    k.add_argument("--lengths", help="cycle lengths for vfree/efree, e.g. 6,6,8")
    k.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    k.set_defaults(fn=_cmd_check)

    w = sub.add_parser("width", help="exact width with certificate")
    w.add_argument("parameter", choices=["td", "pw", "tw"])
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--format", choices=["graph6", "edgelist"])
    w.add_argument("--certificate", help="write the certificate JSON here")
    w.set_defaults(fn=_cmd_width)

    cl = sub.add_parser("classify", help="boundedness verdict with citation")
    cl.add_argument("--forbidden", required=True)
    cl.add_argument("--format", choices=["graph6", "edgelist"])
    cl.add_argument("--relation", choices=["minor", "induced", "subgraph"], required=True)
    cl.add_argument("--parameter", choices=["td", "pw", "tw", "cw"], required=True)
    cl.add_argument("--diameter", required=True, help="integer >= 1 or 'inf'")
    cl.add_argument("--budget", type=_budget, default=DEFAULT_CLASSIFY_BUDGET)
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(fn=_cmd_classify)

    ce = sub.add_parser("census", help="connected-graph census rows as CSV")
    ce.add_argument("--n-max", type=int, required=True)
    ce.add_argument("--forbidden", required=True, help="family spec of the excluded graph")
    ce.add_argument("--relation", choices=["minor", "induced", "subgraph"], default="subgraph")
    ce.add_argument("--diameter", required=True)
    ce.add_argument("--parameter", choices=["td", "pw", "tw"], default="td")
    ce.set_defaults(fn=_cmd_census)

    r = sub.add_parser("refute", help="distance-type refutation search")
    r.add_argument("--r", type=int, required=True, help="forbidden cycle C_{2r}")
    r.add_argument("--d", type=int, required=True, choices=[2, 3])
    r.add_argument("--length", type=int, required=True, help="edge length of the induced path")
    r.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    r.add_argument("--vocabulary", type=int, help="witness cap (default 3L/d)")
    r.add_argument("--state", help="resumable search-state file")
    r.set_defaults(fn=_cmd_refute)

    e = sub.add_parser("experiment", help="run an experiment plan; CSV out")
    e.add_argument("--plan", required=True)
    e.add_argument("--out")
    e.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    e.set_defaults(fn=_cmd_experiment)

    v = sub.add_parser("verify-theorem", help="run a named check bundle")
    v.add_argument("key")
    v.set_defaults(fn=_cmd_verify_theorem)

    cv = sub.add_parser("convert", help="convert between graph formats")
    cv.add_argument("--in", dest="infile", required=True)
    cv.add_argument("--in-format", choices=["graph6", "edgelist"])
    cv.add_argument("--in-labels")
    cv.add_argument("--out", required=True)
    cv.add_argument("--out-format", choices=["graph6", "edgelist"], required=True)
    cv.add_argument("--out-labels")
    cv.set_defaults(fn=_cmd_convert)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    sys.setrecursionlimit(1_000_000)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # cannot fail again, and exit 1 as Python does on a broken pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    except FormatError as exc:
        sys.stderr.write(f"format error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
