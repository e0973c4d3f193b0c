"""diamwidth benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload {catalog,census,solvers,check}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/`` and the catalog from ``tests/catalog.py``.  One pass sends the
workload's fixed operation list, each call after the previous returns.
Passes repeat until ``--seconds`` is used up (at least three).  Answers
are checked outside the timed calls: the first pass against independent
references (``checks.py``), later passes against the first (catalog
passes are relabelled, so each is checked against the catalog).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's traced passes untraced and traced, alternating, twice each,
fails the run unless the work counts repeat exactly, and prints the
per-layer metrics.  Spans go to ``.bench_out/``.  The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# The script's own directory is on sys.path; none of these import the
# library or networkx at module level.
import layers
from checks import OpError, check_pass, undecided
from tracer import Tracer
from workloads import INPUTS, WORKLOADS

MIN_PASSES = 3
SETUP_SAMPLES = 5  # this process plus four fresh interpreters


def _source_root() -> str | None:
    root = os.getcwd()
    needed = (os.path.join(root, "src", "diamwidth", "__init__.py"),
              os.path.join(root, "tests", "catalog.py"))
    return root if all(os.path.isfile(p) for p in needed) else None


def setup(workload: str, seed: int) -> tuple[dict, float, float]:
    """Import the library, load the rule registry and build the seeded
    inputs.  Returns (inputs, set-up seconds, input-construction seconds)."""
    t0 = time.perf_counter()
    from diamwidth import atlas, census, containment, cycles, paths, refuter, width  # noqa: F401

    atlas.citation_statement("d1-finiteness")  # loads and caches the registry
    t1 = time.perf_counter()
    inputs = INPUTS[workload](seed)
    t2 = time.perf_counter()
    return inputs, t2 - t0, t2 - t1


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time in fresh interpreters (imports are cached in-process)."""
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_pass(ops) -> tuple[list, list[float], float]:
    results, times = [], []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            result = OpError(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        results.append(result)
    return results, times, time.perf_counter() - t_pass


class Tally:
    """Attempted, failed and undecided operations over every pass.

    Later passes are checked as they finish and then dropped, so peak RSS
    does not grow with the number of passes; the first pass is kept for
    ``finish``, whose checks import networkx after the RSS is read."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = self.failed = self.undecided = 0
        self.notes: list[str] = []
        self.first: tuple[list, list] | None = None

    def add(self, ops, results) -> None:
        if self.first is None:
            self.first = (ops, results)
        elif self.workload == "catalog":
            self._record(ops, results, check_pass(ops, results))
        else:
            self._record(ops, results, [
                (True, "") if r == f else (False, "differs from pass 1")
                for r, f in zip(results, self.first[1])])

    def finish(self) -> None:
        ops, results = self.first
        self._record(ops, results, check_pass(ops, results))

    def _record(self, ops, results, verdicts) -> None:
        for op, res, (ok, why) in zip(ops, results, verdicts):
            self.attempted += 1
            self.undecided += undecided(op, res)
            if not ok:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(f"{op.label}: {why}")


def run_passes(op_lists, tally: Tally, walls: list, times: list | None = None) -> None:
    for ops in op_lists:
        results, op_times, wall = run_pass(ops)
        walls.append(wall)
        if times is not None:
            times.extend(op_times)
        tally.add(ops, results)


def traced(op_lists, tally: Tally, root: str, stem: str) -> tuple[dict, bool]:
    """Untraced and traced sets of the same passes, alternated (U T U T).
    Returns the first traced set's per-layer metrics and whether the work
    counts repeated exactly in the second."""
    walls, traced_walls, runs = [], [], []
    for _ in range(2):
        run_passes(op_lists, tally, walls)
        tr = Tracer()
        layers.install(tr)
        try:
            run_passes(op_lists, tally, traced_walls)
        finally:
            tr.restore()
        runs.append((layers.metrics(tr), tr))
    (m1, tr1), (m2, _tr2) = runs
    drift = {c: (m1[c], m2[c]) for c in layers.DETERMINISTIC_COUNTS if m1[c] != m2[c]}
    if drift:
        print(f"work counts differ between the two traced runs: {drift}", file=sys.stderr)
    tr1.write(os.path.join(root, ".bench_out"), stem)
    m1["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return m1, not drift


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog", "census", "solvers", "check"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    root = _source_root()
    if root is None:
        print("run.py: run from the root of a diamwidth checkout "
              "(src/diamwidth and tests/catalog.py not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    sys.setrecursionlimit(1_000_000)  # as the CLI does

    inputs, setup_s, build_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    make_ops, traced_passes = WORKLOADS[args.workload]
    tally = Tally(args.workload)
    counts_repeat = True
    times: list[float] = []
    if args.trace:
        op_lists = [make_ops(inputs, k) for k in range(traced_passes)]
        layer, counts_repeat = traced(op_lists, tally, root,
                                      f"{args.workload}-seed{args.seed}")
        layer["families.build_s"] = build_s
        rows = [(k, v, _unit(k), "") for k, v in layer.items()]
        tally.finish()
    else:
        setups = [setup_s] + setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
        walls: list[float] = []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < MIN_PASSES or time.perf_counter() + statistics.median(walls) <= deadline:
            run_passes([make_ops(inputs, k)], tally, walls, times)
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.finish()
        rows = [
            ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            ("wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes"),
            ("op_ms_p50", statistics.median(times) * 1000, "ms", f"{len(times)} samples"),
            ("peak_rss_mb", peak_rss_mb, "MB", ""),
        ]
    gated = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    if len(times) >= 100:  # p90 only where at least ten samples lie beyond it
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] * 1000
        rows.append(("op_ms_p90", p90, "ms", f"{len(times)} samples"))
    a = tally.attempted
    rows.append(("failed_ratio", tally.failed / a, "ratio", f"{tally.failed} of {a}"))
    rows.append(("undecided_ratio", tally.undecided / a, "ratio", f"{tally.undecided} of {a}"))

    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {a} operations, "
          "closed loop, 1 caller")
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and counts_repeat,
        "attempted": a,
        "failed": tally.failed,
        "metrics": gated,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
