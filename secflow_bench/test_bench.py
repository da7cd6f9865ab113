"""Tests of the benchmark's own helpers: the tail-percentile picker, the
BENCHMARK.json metric-definition checks (name validity) and compare.py's verdicts.

  python3 -m unittest discover -s secflow_bench -p 'test_*.py'
"""
import copy
import os
import tempfile
import unittest
import json

import compare
import metrics as M


class TailTest(unittest.TestCase):
    def test_picks_the_eleventh_largest(self):
        samples = list(range(1, 101))  # 100 samples
        value, pct, beyond = M.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for x in samples if x > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 89 / 99)

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(M.tail(samples), M.tail(sorted(samples)))

    def test_at_least_ten_beyond_at_every_size(self):
        for n in range(21, 300):
            samples = [float(i) for i in range(n)]
            value, _, beyond = M.tail(samples)
            self.assertEqual(beyond, 10)
            self.assertGreaterEqual(value, M.median(samples))
            self.assertEqual(sum(1 for x in samples if x > value), 10)

    def test_few_samples_fall_back_to_the_median(self):
        for n in (1, 2, 7, 15, 20):
            samples = [float(i) for i in range(n)]
            value, pct, beyond = M.tail(samples)
            self.assertEqual(value, M.median(samples))
            self.assertEqual(pct, 50.0)
            self.assertLessEqual(beyond, 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            M.tail([])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = __import__("statistics").quantiles(vals, n=4)
        self.assertAlmostEqual(M.spread(vals), (q3 - q1) / 14.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(M.spread([3.0] * 10), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.doc = M.load_benchmark()

    def test_repository_file_is_valid(self):
        self.assertEqual(M.check_benchmark(self.doc), [])

    def test_metric_names(self):
        for good in ("op_ms_p50", "pnr.route.ms_1t", "a", "9-x.y_z"):
            self.assertTrue(M.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "x" * 65, "a/b",
                    "é", None):
            self.assertFalse(M.valid_name(bad), bad)

    def test_units(self):
        for good in ("ms", "1/s", "%", "MiB", "count"):
            self.assertTrue(M.valid_unit(good))
        for bad in ("", "x" * 17, "m s", "µs"):
            self.assertFalse(M.valid_unit(bad))

    def test_rejects_duplicate_and_invalid_names(self):
        doc = copy.deepcopy(self.doc)
        doc["per_layer"].append(dict(doc["per_layer"][0]))
        self.assertTrue(any("used twice" in p for p in M.check_benchmark(doc)))
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"][1]["name"] = "bad name"
        self.assertTrue(any("invalid name" in p
                            for p in M.check_benchmark(doc)))
        doc = copy.deepcopy(self.doc)
        doc["workloads"][0]["name"] = doc["end_to_end"][0]["name"]
        self.assertTrue(any("used twice" in p for p in M.check_benchmark(doc)))

    def test_rejects_loose_bounds_and_missing_setup(self):
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(M.check_benchmark(doc))
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"] = [m for m in doc["end_to_end"]
                             if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in p for p in M.check_benchmark(doc)))


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def shifted(self, factor):
        return [v * factor for v in self.BASE]

    def test_same_within_bound(self):
        self.assertEqual(M.verdict(self.BASE, self.shifted(1.05), "lower",
                                   0.1), "same")

    def test_regression_beyond_bound(self):
        self.assertEqual(M.verdict(self.BASE, self.shifted(1.2), "lower",
                                   0.1), "regression")
        self.assertEqual(M.verdict(self.BASE, self.shifted(0.8), "higher",
                                   0.1), "regression")

    def test_better_beyond_bound(self):
        self.assertEqual(M.verdict(self.BASE, self.shifted(0.8), "lower",
                                   0.1), "better")
        self.assertEqual(M.verdict(self.BASE, self.shifted(1.2), "higher",
                                   0.1), "better")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        self.assertEqual(M.verdict(self.BASE, noisy, "lower", 0.1),
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        noisy_fast = [10.0, 30.0, 15.0, 25.0, 20.0, 12.0, 28.0, 18.0, 22.0,
                      20.0]
        self.assertEqual(M.verdict(self.BASE, noisy_fast, "lower", 0.1),
                         "better")

    def test_unbounded_reports_direction(self):
        self.assertEqual(M.verdict(self.BASE, self.shifted(1.01), "lower",
                                   None), "worse")
        self.assertEqual(M.verdict(self.BASE, self.shifted(1.01), "higher",
                                   None), "better")


class CompareToolTest(unittest.TestCase):
    def write_set(self, root, workload, p50s):
        os.makedirs(root, exist_ok=True)
        with open(os.path.join(root, workload + ".jsonl"), "w") as f:
            for v in p50s:
                f.write(json.dumps({"correct": True, "attempted": 5,
                                    "failed": 0, "metrics": {
                                        "op_ms_p50": {"value": v,
                                                      "unit": "ms"}}}) + "\n")

    def test_rows_per_workload_with_verdicts(self):
        doc = M.load_benchmark()
        wl = [w["name"] for w in doc["workloads"]]
        with tempfile.TemporaryDirectory() as tmp:
            base, new = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            self.write_set(base, wl[0], [100.0] * 10)
            self.write_set(new, wl[0], [150.0] * 10)
            self.write_set(base, wl[1], [100.0] * 10)
            self.write_set(new, wl[1], [101.0] * 10)
            rows = compare.compare(compare.load_set(base),
                                   compare.load_set(new), doc)
        verdicts = {(r[0], r[1]): r[-1] for r in rows}
        self.assertEqual(verdicts[(wl[0], "op_ms_p50")], "regression")
        self.assertEqual(verdicts[(wl[1], "op_ms_p50")], "same")
        self.assertEqual(len(rows), 2)


if __name__ == "__main__":
    unittest.main()
