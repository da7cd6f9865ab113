"""Definitions and statistics shared by run.py, compare.py and collect.py.

The metric list itself lives in BENCHMARK.json at the repository root; this
module checks its metric definitions, turns the raw samples of one benchmark process
into metric values, and computes the spreads and verdicts used to compare
two result sets.
"""
import json
import os
import re
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_BOUND = 0.25

# Samples beyond the tail percentile (choosing-metrics: a timing is
# reported as a median plus the highest percentile with >= 10 samples
# beyond it).
TAIL_BEYOND = 10


def load_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def check_benchmark(doc):
    """The metric-definition problems of `doc`, as messages: invalid or
    reused names, invalid units or directions, bounds outside
    (0, MAX_BOUND], and a missing or misdefined setup_s."""
    problems = []
    seen = set()
    entries = [("workload", w) for w in doc["workloads"]] + \
              [("end_to_end", m) for m in doc["end_to_end"]] + \
              [("per_layer", m) for m in doc["per_layer"]]
    for section, m in entries:
        name = m["name"]
        if not valid_name(name):
            problems.append("%s: invalid name %r" % (section, name))
        elif name in seen:
            problems.append("%s: name %r used twice" % (section, name))
        seen.add(name)
        if section == "workload":
            continue
        if not valid_unit(m["unit"]):
            problems.append("%s: invalid unit %r" % (name, m["unit"]))
        if m["better"] not in ("lower", "higher"):
            problems.append("%s: better must be lower or higher" % name)
        if section == "end_to_end" and not 0 < m["bound"] <= MAX_BOUND:
            problems.append("%s: bound must be in (0, %g]" % (name, MAX_BOUND))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end must hold setup_s in s, lower is better")
    return problems


def median(values):
    return statistics.median(values)


def tail(samples, beyond=TAIL_BEYOND):
    """(value, percentile, samples beyond it) of the highest order
    statistic with at least `beyond` samples above it.  With too few
    samples for that to lie at or above the median, the median stands in
    and the count beyond it is reported as is."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    idx = n - 1 - beyond
    if n == 1 or idx < (n - 1) / 2:
        value = statistics.median(s)
        return value, 50.0, sum(1 for x in s if x > value)
    return s[idx], 100.0 * idx / (n - 1), beyond


def spread(values):
    """Interquartile range as a share of the median
    (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_values, new_values, better, bound):
    """One metric on one workload, two result sets (choosing-metrics
    section 6): 'regression' when the new median is worse by more than the
    bound, 'unresolved' when either set spreads wider than the bound
    (unless every new run beats every base run), 'better' when the new
    median is better by more than the bound, else 'same'.  Without a
    bound, only the direction is reported."""
    w = worsening(median(base_values), median(new_values), better)
    if bound is None:
        return "worse" if w > 0 else ("better" if w < 0 else "same")
    if max(spread(base_values), spread(new_values)) > bound:
        if better == "lower":
            all_better = max(new_values) < min(base_values)
        else:
            all_better = min(new_values) > max(base_values)
        return "better" if all_better else "unresolved"
    if w > bound:
        return "regression"
    if w < -bound:
        return "better"
    return "same"
