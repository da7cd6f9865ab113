#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, and
store each run's result line as OUT_DIR/<workload>.jsonl (the result-set
layout compare.py reads).  Each run lasts BENCHMARK.json's run_seconds.
Prints, per workload and metric, the median and the spread (interquartile
range as a share of the median) next to the metric's bound.

  python3 secflow_bench/collect.py OUT_DIR --runs 10 [--first-seed 1]
          [--workloads des-flow,des-warm] [--trace 0]
"""
import argparse
import json
import os
import subprocess
import sys

import metrics as M

RUN_PY = os.path.join(M.BENCH_DIR, "run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    doc = M.load_benchmark()
    names = [w["name"] for w in doc["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    defs = doc["per_layer"] if args.trace else doc["end_to_end"]
    os.makedirs(args.out_dir, exist_ok=True)
    status = 0
    for wl in names:
        path = os.path.join(args.out_dir, wl + ".jsonl")
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, RUN_PY, "--workload", wl, "--seed", str(seed),
                 "--seconds", str(doc["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" %
                      (wl, seed, proc.returncode))
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: incorrect output" % (wl, seed))
                status = 1
            results.append(result)
            with open(path, "a", encoding="utf-8") as f:
                f.write(lines[-1] + "\n")
        print("%s: %d runs" % (wl, len(results)))
        for m in defs:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            if not vals:
                continue
            s = M.spread(vals)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else "WIDE (bound/3 = %.4f)" % (
                    bound / 3)
            print("  %-30s median %14.6g %-6s spread %.4f %s" %
                  (m["name"], M.median(vals), m["unit"], s, flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
