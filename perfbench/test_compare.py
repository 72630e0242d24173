"""Tests of compare.py: run with `python3 -m unittest discover perfbench`."""

import contextlib
import io
import json
import os
import tempfile
import unittest

import compare


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, median, q3 = compare.quartiles(values)
        self.assertEqual((q1, median, q3), tuple(compare.statistics.quantiles(values, n=4)))
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / median)

    def test_zero_median_spread_is_infinite(self):
        self.assertEqual(compare.spread([0.0, 0.0, 0.0]), float("inf"))

    def test_seed_ranges(self):
        self.assertEqual(compare.parse_seeds("1-3,7"), [1, 2, 3, 7])


def series(values):
    return {seed: value for seed, value in enumerate(values, start=1)}


class VerdictTest(unittest.TestCase):
    PARENT = series([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])

    def test_clear_gain(self):
        change = series([110, 111, 109, 110, 112, 108, 110, 111, 109, 110])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.1),
                         ("improved", 10, 10))

    def test_gain_needs_nine_of_ten_pairs(self):
        change = series([110, 111, 109, 110, 112, 108, 110, 111, 90, 80])
        result, wins, pairs = compare.verdict(self.PARENT, change, "higher", 0.1)
        self.assertEqual((wins, pairs), (8, 10))
        self.assertEqual(result, "within bound")

    def test_gain_needs_a_gap_wider_than_the_parent_iqr(self):
        change = {s: v + 0.5 for s, v in self.PARENT.items()}
        result, wins, _ = compare.verdict(self.PARENT, change, "higher", 0.1)
        self.assertEqual(wins, 10)
        self.assertEqual(result, "within bound")

    def test_lower_is_better_direction(self):
        change = {s: v * 0.8 for s, v in self.PARENT.items()}
        self.assertEqual(compare.verdict(self.PARENT, change, "lower", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.1)[0], "regressed")

    def test_wide_spread_is_unresolved(self):
        noisy = series([60, 140, 100, 70, 130, 90, 110, 65, 135, 100])
        self.assertEqual(compare.verdict(self.PARENT, noisy, "higher", 0.1)[0], "unresolved")

    def test_per_layer_metrics_have_no_bound(self):
        self.assertEqual(compare.verdict(self.PARENT, self.PARENT, "lower", None)[0],
                         "no bound")


class LoadSetTest(unittest.TestCase):
    def test_reads_the_last_line_of_each_run(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "f0_engine"))
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
            with open(os.path.join(root, "f0_engine", "3.out"), "w") as f:
                f.write("human line\n{\"info\": {}}\n" + json.dumps(result) + "\n")
            loaded = compare.load_set(root)
            self.assertEqual(loaded, {"f0_engine": {3: result}})
            self.assertEqual(compare.metric_values(loaded["f0_engine"], "setup_s"), {3: 0.5})


def run_result(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"cpu_ns_per_update": {"value": value, "unit": "ns"}}}


def write_set(root, runs):
    os.makedirs(os.path.join(root, "f0_engine"))
    for seed, result in runs.items():
        with open(os.path.join(root, "f0_engine", f"{seed}.out"), "w") as f:
            f.write(json.dumps(result) + "\n")


class FailedRunTest(unittest.TestCase):
    def test_failed_runs_and_null_values_are_left_out(self):
        runs = {1: run_result(1.0), 2: run_result(9.0, correct=False),
                3: run_result(9.0, failed=2), 4: run_result(None)}
        self.assertEqual(compare.failed_seeds(runs), [2, 3])
        self.assertEqual(compare.metric_values(runs, "cpu_ns_per_update"), {1: 1.0})

    def compare_sets(self, parent, change):
        with tempfile.TemporaryDirectory() as root:
            write_set(os.path.join(root, "p"), parent)
            write_set(os.path.join(root, "c"), change)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = compare.main(["compare", os.path.join(root, "p"),
                                       os.path.join(root, "c")])
            return status, out.getvalue()

    def test_more_failures_in_the_change_fail_the_workload(self):
        parent = {s: run_result(100.0 + s) for s in range(1, 11)}
        # Cheaper on every seed, but two runs failed their oracle: no gain.
        change = {s: run_result(50.0 + s, correct=s > 2) for s in range(1, 11)}
        status, out = self.compare_sets(parent, change)
        self.assertEqual(status, 1)
        self.assertIn("parent 0, change 2, left out  FAILED", out)

    def test_failures_no_worse_than_the_parent_do_not_fail(self):
        parent = {s: run_result(100.0 + s, failed=int(s == 1)) for s in range(1, 11)}
        change = {s: run_result(100.0 + s, failed=int(s == 2)) for s in range(1, 11)}
        status, out = self.compare_sets(parent, change)
        self.assertEqual(status, 0)
        self.assertIn("parent 1, change 1, left out", out)
        self.assertNotIn("FAILED", out)


class DefinitionTest(unittest.TestCase):
    def test_bounds_are_within_the_contract(self):
        definition = compare.load_definition()
        for metric in definition["end_to_end"]:
            self.assertGreater(metric["bound"], 0)
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in definition["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in definition["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
