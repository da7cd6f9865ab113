#!/usr/bin/env python3
"""Compare two benchmark result sets.

A result set is a directory holding <workload>.jsonl, one result line (as
printed by run.py) per run.  For every workload (one row each) and every
metric of BENCHMARK.json found in both sets, prints both medians, the
change, both spreads and a verdict: end-to-end metrics apply their bound
and direction (regression / better / same / unresolved, see
metrics.verdict); per-layer metrics have no bound and report direction
only.  Exits 1 when any end-to-end metric regressed.

  python3 secflow_bench/compare.py BASE_DIR NEW_DIR
"""
import argparse
import json
import os
import sys

import metrics as M


def load_set(path):
    """{workload: [result, ...]} of one result-set directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name), encoding="utf-8") as f:
            out[name[:-len(".jsonl")]] = [json.loads(l) for l in f if l.strip()]
    return out


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def compare(base, new, doc):
    """Rows of (workload, metric, unit, base median, new median, change,
    base spread, new spread, verdict)."""
    rows = []
    defs = [(m, m["bound"]) for m in doc["end_to_end"]] + \
           [(m, None) for m in doc["per_layer"]]
    for wl in [w["name"] for w in doc["workloads"]]:
        if wl not in base or wl not in new:
            continue
        for m, bound in defs:
            b = values(base[wl], m["name"])
            n = values(new[wl], m["name"])
            if not b or not n:
                continue
            bm, nm = M.median(b), M.median(n)
            change = (nm - bm) / abs(bm) if bm else 0.0
            rows.append((wl, m["name"], m["unit"], bm, nm, change,
                         M.spread(b), M.spread(n),
                         M.verdict(b, n, m["better"], bound)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    doc = M.load_benchmark()
    rows = compare(load_set(args.base), load_set(args.new), doc)
    print("%-11s %-30s %-6s %14s %14s %8s %7s %7s  %s" %
          ("workload", "metric", "unit", "base", "new", "change", "sp.base",
           "sp.new", "verdict"))
    regressed = False
    for wl, name, unit, bm, nm, ch, sb, sn, v in rows:
        print("%-11s %-30s %-6s %14.6g %14.6g %+7.1f%% %7.3f %7.3f  %s" %
              (wl, name, unit, bm, nm, 100 * ch, sb, sn, v))
        regressed = regressed or v == "regression"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
