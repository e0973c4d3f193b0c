"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads catalog,census] [--seeds 10]
        [--first-seed 1] [--traced] [--out FILE]

Run from the repository root.  The spread is (q3 - q1) / median over the
seeds, with quartiles from ``statistics.quantiles(values, n=4)``.  With
``--traced`` it also makes one traced run per workload (first seed) and
records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], 0)
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        entry = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                 "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": runs[0]["metrics"][name]["unit"], "values": values}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print(f"{workload:<8} {name:<12} median {med:12.6g}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}", flush=True)
        if args.traced:
            traced = run_once(workload, args.first_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
        report[workload] = entry
        print(f"{workload:<8} correct={entry['correct']} failed={entry['failed']} "
              f"of {entry['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
