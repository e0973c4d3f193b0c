"""One-shot size-limit probe (not a gated workload).

Steps n toward each advertised size limit (TD_LIMIT, PW_LIMIT, TW_LIMIT,
the canonical-form limit on K_n / edgeless / K_{n,n}, CENSUS_LIMIT) and
runs each instance alone in a child process under a wall cap and an
address-space rlimit.  A kind stops stepping at its first instance that
does not finish.  The largest finished n, its time and the child's peak
RSS are written to perfbench/limits.json.

Run from the repository root:

    python3 perfbench/probe.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

from workloads import gnp  # this script's directory is on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAP_SECONDS = 120  # wall cap per instance
CAP_MB = 2048  # address-space cap per instance

# (kind, advertised limit, the n values stepped through)
KINDS = [
    ("td", 24, list(range(16, 25))),
    ("pw", 20, list(range(16, 21))),
    ("tw", 16, list(range(13, 17))),
    ("canon-clique", 16, list(range(7, 17))),
    ("canon-edgeless", 16, list(range(7, 17))),
    ("canon-biclique", 16, list(range(8, 17, 2))),
    ("census", 9, list(range(6, 10))),
]

# Connected graphs on n unlabelled vertices, OEIS A001349 (n = 0..9).
A001349 = [1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080]


def run_instance(kind: str, n: int) -> dict:
    """Build and solve one instance in this process; return its report."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from diamwidth import canon, census, families, graphs, width

    if kind in ("td", "pw", "tw"):
        g = gnp(n, n, 0.3)  # the ROADMAP corpus: G(n, 0.3) seeded by random.Random(n)
        solver = {"td": width.treedepth_exact, "pw": width.pathwidth_exact,
                  "tw": width.treewidth_exact}[kind]
        t0 = time.perf_counter()
        result = solver(g)
        elapsed = time.perf_counter() - t0
        ok = width.verify_certificate(g, result)
        out = {"value": result.value, "verified": ok}
    elif kind.startswith("canon-"):
        g = {"canon-clique": lambda: families.complete_graph(n),
             "canon-edgeless": lambda: graphs.edgeless_graph(n),
             "canon-biclique": lambda: families.complete_bipartite(n // 2, n // 2)}[kind]()
        t0 = time.perf_counter()
        code = canon.canonical_code(g)
        elapsed = time.perf_counter() - t0
        out = {"code_bytes": len(code)}
    elif kind == "census":
        t0 = time.perf_counter()
        levels = census.enumerate_connected_graphs(n)
        elapsed = time.perf_counter() - t0
        out = {"connected_graphs": len(levels[n]),
               "matches_A001349": len(levels[n]) == A001349[n]}
    else:
        raise ValueError(f"unknown probe kind {kind!r}")
    out["seconds"] = elapsed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _limit_address_space() -> None:
    cap = CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def probe() -> dict:
    results = {}
    for kind, limit, ns in KINDS:
        steps = []
        for n in ns:
            cmd = [sys.executable, os.path.abspath(__file__), "--instance", kind, str(n)]
            t0 = time.perf_counter()
            try:
                done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                      timeout=CAP_SECONDS, preexec_fn=_limit_address_space)
            except subprocess.TimeoutExpired:
                steps.append({"n": n, "finished": False,
                              "reason": f"wall cap {CAP_SECONDS} s"})
                break
            if done.returncode != 0:
                tail = (done.stderr.strip().splitlines() or ["?"])[-1]
                steps.append({"n": n, "finished": False,
                              "reason": f"exit {done.returncode}: {tail[:160]}"})
                break
            report = json.loads(done.stdout.strip().splitlines()[-1])
            report.update(n=n, finished=True,
                          child_wall_s=round(time.perf_counter() - t0, 3))
            steps.append(report)
            print(f"{kind} n={n}: {report['seconds']:.3f} s, "
                  f"{report['peak_rss_mb']:.0f} MB", file=sys.stderr)
        finished = [s for s in steps if s["finished"]]
        largest = finished[-1] if finished else None
        results[kind] = {
            "advertised_limit": limit,
            "largest_finished_n": largest["n"] if largest else None,
            "largest_finished_seconds": round(largest["seconds"], 3) if largest else None,
            "largest_finished_peak_rss_mb": round(largest["peak_rss_mb"], 1) if largest else None,
            "steps": steps,
        }
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instance", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.instance:
        print(json.dumps(run_instance(args.instance[0], int(args.instance[1]))))
        return 0
    results = probe()
    payload = {
        "what": "largest n finished per advertised size limit; one child process "
                "per instance under the wall cap and address-space cap below",
        "cap_seconds": CAP_SECONDS,
        "cap_address_space_mb": CAP_MB,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "corpus": "td/pw/tw: G(n, 0.3) seeded by random.Random(n); canon: K_n, "
                  "edgeless n-vertex graph, K_{n/2,n/2}; census: "
                  "enumerate_connected_graphs(n)",
        "results": results,
    }
    with open(os.path.join(HERE, "limits.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
