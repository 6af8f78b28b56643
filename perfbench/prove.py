"""Check that the benchmark is steady, and record a baseline.

Run from the repository root:

    python3 perfbench/prove.py [--write-baseline]

Runs perfbench/run.py once per seed 1 .. 10 on every workload in
BENCHMARK.json with its settings.  For every end-to-end
metric it prints the median and the spread (q3 - q1) / median over the
runs, with quartiles from statistics.quantiles(values, n=4), next to the
metric's bound; a spread at or above a third of the bound is flagged.
--write-baseline also makes one traced run per workload and writes all
medians, per-layer numbers and machine facts to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))


def run_once(cmd, workload, seed, seconds, trace) -> dict:
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(r.stderr)
    return res


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    summary: dict = {}
    steady = True
    for name in names:
        runs = [run_once(bench["command"], name, s, bench["run_seconds"], 0) for s in SEEDS]
        failed = sum(r["failed"] for r in runs)
        summary[name] = {"failed": failed, "attempted": sum(r["attempted"] for r in runs)}
        print("%s: %d runs, %d failed of %d attempted"
              % (name, len(runs), failed, summary[name]["attempted"]))
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[name][metric] = s
            flag = ""
            if s["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print("  %-18s median %12.6g %-5s spread %.4f  bound %.2f%s"
                  % (metric, s["median"], units[metric], s["spread"], bound, flag))
        steady = steady and failed == 0

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "prove.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": SEEDS, "workloads": summary}, fh, indent=2, sort_keys=True)

    if args.write_baseline:
        sys.path.insert(0, HERE)
        from run import machine_facts

        baseline = {
            "machine": machine_facts(),
            "run_seconds": bench["run_seconds"],
            "seeds": SEEDS,
            "end_to_end": {
                name: {m: {k: summary[name][m][k] for k in ("median", "q1", "q3")}
                       for m in bounds}
                for name in names
            },
            "per_layer": {},
        }
        for name in names:
            run_once(bench["command"], name, SEEDS[0], bench["run_seconds"], 1)
            record = os.path.join(HERE, "out", "%s-seed%d-trace1.json" % (name, SEEDS[0]))
            with open(record, encoding="utf-8") as fh:
                traced = json.load(fh)
            baseline["per_layer"][name] = {
                "metrics": {m: v["value"] for m, v in traced["metrics"].items()},
                "self_time_share": traced["self_time_share"],
            }
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
