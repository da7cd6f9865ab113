#!/usr/bin/env python3
"""secflow benchmark entry point.

Builds the benchmark binary from the checkout's own sources (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload in its own process,
prints every metric by name with its unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones.  Run from the repository root:

  python3 secflow_bench/run.py --workload des-flow --seed 1 --seconds 20 --trace 0
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import metrics as M

WORKLOADS = ("des-flow", "aes4-scale", "des-assess", "des-warm")
SRC_CMAKE = os.path.join(os.path.dirname(M.BENCH_DIR), "src", "CMakeLists.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Span names of bench.cpp -> per-layer metric names (self time, ms).
SPAN_METRICS = {
    "synth.ms": "synth.ms",
    "wddl.ms": "wddl.ms",
    "lec.ms": "lec.ms",
    "pnr.place.ms": "pnr.place.ms",
    "pnr.route.ms": "pnr.route.ms",
    "pnr.decompose.ms": "pnr.decompose.ms",
    "extract.ms": "extract.ms",
    "sta.ms": "sta.ms",
    "sim.compile.ms": "sim.compile_ms",
    "sim.ms": "sim.ms",
    "leakage.tvla.ms": "leakage.tvla_ms",
    "leakage.cpa.ms": "leakage.cpa_ms",
    "leakage.mtd.ms": "leakage.mtd_ms",
    "ckpt.load.ms": "ckpt.load_ms",
    "ckpt.save.ms": "ckpt.save_ms",
}
# Per-operation counters of bench.cpp -> per-layer metric names.
COUNTER_METRICS = {
    "pnr.route.iterations": "pnr.route.iterations",
    "pnr.route.expanded_nodes": "pnr.route.expanded_nodes",
    "pnr.route.nets_ripped": "pnr.route.nets_ripped",
    "pnr.route.full_grid_searches": "pnr.route.full_grid_searches",
    "pnr.place.hpwl_um": "pnr.place.hpwl",
    "ckpt.bytes": "ckpt.bytes",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    """Configure once, then (re)build the benchmark target."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    have_tree = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("build.ninja", "Makefile"))
    if not have_tree:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", M.BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run([cmake, "--build", build_dir, "--target", "secflow_bench",
                    "-j", str(min(cpu_count(), 4))],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "secflow_bench")


def per_layer_metrics(raw):
    layers = raw["layers"]
    one = raw["one_thread"]
    # Median over the traced operations; a layer reached only in set-up
    # reports its set-up value, and one never reached reports 0.
    out = {}
    for key, metric in list(SPAN_METRICS.items()) + \
            list(COUNTER_METRICS.items()):
        out[metric] = (M.median(layers[key]) if key in layers
                       else raw["setup_layers"].get(key, 0.0))
    lookups = layers.get("ckpt.lookups", [])
    hits = layers.get("ckpt.hits", [0.0] * len(lookups))
    out["ckpt.hit_ratio"] = (M.median([h / n for h, n in zip(hits, lookups)])
                             if lookups else 0.0)
    sim_traces = layers.get("sim.traces", [])
    sim_ms = layers.get("sim.ms", [])
    out["sim.traces_per_s"] = (M.median([t / (ms / 1e3) for t, ms in
                                         zip(sim_traces, sim_ms)])
                               if sim_traces else 0.0)
    out["pnr.route.ms_1t"] = one.get("pnr.route.ms", 0.0)
    out["sim.ms_1t"] = one.get("sim.ms", 0.0)
    # The one-thread pass reruns sub-seed 0; compare it with the threaded
    # operations on the same inputs (traced operation i ran sub-seed
    # i % rotation).
    threaded0 = layers["spans.ms"][::raw["rotation"]]
    out["parallel.speedup"] = one["spans.ms"] / M.median(threaded0)
    # Flow-layer overhead: the untraced operation minus the traced layers.
    out["flow.self_ms"] = M.median(raw["op_ms"]) - sum(
        M.median(v) for k, v in layers.items()
        if k in SPAN_METRICS and k != "sim.compile.ms")
    out["extract.rail_mismatch_max_ff"] = raw["quality"][
        "rail_cap_mismatch_max_ff"]
    out["leakage.secure_tvla_max_t"] = raw["info"].get("secure_tvla_max_t", 0.0)
    out["leakage.secure_cpa_rank"] = raw["info"].get("secure_cpa_rank", 0.0)
    return out


def end_to_end_metrics(raw):
    tail, _, _ = M.tail(raw["op_ms"])
    return {
        "setup_s": M.median(raw["setup_s"]),
        "op_ms_p50": M.median(raw["op_ms"]),
        "op_ms_tail": tail,
        "peak_rss_mb": raw["peak_rss_mb"],
        "secure_wirelength_um": raw["quality"]["secure_wirelength_um"],
        "secure_critical_delay_ps": raw["quality"]["secure_critical_delay_ps"],
    }


def report(raw, trace, values, defs):
    """Human-readable lines; the JSON result line follows them."""
    ops = raw["traced_op_ms"] if trace else raw["op_ms"]
    print("workload %s  seed %d  threads %d  closed loop, 1 caller" %
          (raw["workload"], raw["seed"], raw["threads"]))
    print("  set-up: %d repetition(s); ops timed: %d (%s); attempted %d, "
          "failed %d, ops_failed_ratio %.4f" %
          (len(raw["setup_s"]), len(ops), "traced" if trace else "untraced",
           raw["attempted"], raw["failed"],
           raw["failed"] / max(raw["attempted"], 1)))
    if trace:
        print("  tracing overhead: traced op p50 %.3f ms vs untraced %.3f ms"
              % (M.median(raw["traced_op_ms"]), M.median(raw["op_ms"])))
    else:
        _, pct, beyond = M.tail(raw["op_ms"])
        print("  op_ms_tail is p%.1f of %d samples (%d beyond it)" %
              (pct, len(raw["op_ms"]), beyond))
    for name, v in values.items():
        print("  %-32s %16.6g %s" % (name, v, defs[name]["unit"]))
    info = raw["info"]
    if "traces_per_s" in info:
        print("  assessment: traces_per_s %.1f (TVLA + CPA, both designs); "
              "secure TVLA max|t| %.2f, secure CPA rank %d, regular CPA rank "
              "%d, MTD regular %d / secure %s" %
              (info["traces_per_s"], info["secure_tvla_max_t"],
               info["secure_cpa_rank"], info["regular_cpa_rank"],
               info["regular_mtd"],
               "hidden" if info["secure_mtd"] < 0 else "%d" % info["secure_mtd"]))
    print("  rail cap mismatch max %.4f fF (paper section 5 property)" %
          raw["quality"]["rail_cap_mismatch_max_ff"])
    if "aes_half_cycle_fits" in info:
        print("  KNOWN GAP: AES half-cycle check %s: critical path %.0f ps "
              "against a %.0f ps budget; the flow stops after decomposition" %
              ("passes" if info["aes_half_cycle_fits"] else "FAILS",
               raw["quality"]["secure_critical_delay_ps"],
               info["half_cycle_budget_ps"]))
    for f in raw["failures"]:
        print("  FAILED CHECK: %s" % f)
    if not raw["hashes_match"]:
        print("  FAILED CHECK: traced / one-thread artifacts differ")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(SRC_CMAKE):
        log("secflow_bench: no secflow sources at %s; run from a full "
            "checkout" % os.path.dirname(SRC_CMAKE))
        return 2
    doc = M.load_benchmark()
    defs = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    t0 = time.monotonic()
    binary = build(build_dir)
    log("secflow_bench: build checked in %.1f s" % (time.monotonic() - t0))

    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                     os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("secflow_bench: benchmark process exited with %d" %
            proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer_metrics(raw) if args.trace else end_to_end_metrics(raw)
    names = [m["name"] for m in doc[section]]
    if sorted(names) != sorted(values):
        log("secflow_bench: BENCHMARK.json %s does not match the metrics "
            "computed: %s" % (section, sorted(set(names) ^ set(values))))
        return 1
    values = {n: values[n] for n in names}
    report(raw, args.trace, values, defs)
    result = {
        "correct": raw["failed"] == 0 and raw["hashes_match"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": v, "unit": defs[n]["unit"]}
                    for n, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
