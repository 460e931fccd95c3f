#!/usr/bin/env python3
"""Unit tests for benchmark/compare.py (run directly or through ctest)."""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True  # leave benchmark/ as checked out
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
    "end_to_end": [
        {"name": "rate", "unit": "Hz", "better": "higher", "bound": 0.1},
        {"name": "time", "unit": "s", "better": "lower", "bound": 0.1},
    ],
}


def result_set(values, failed=0, workload="w1", metric="time"):
    runs = [{"workload": workload, "trace": 0, "attempted": 5,
             "failed": failed, "metrics": {metric: v}} for v in values]
    runs.append({"workload": workload, "trace": 1, "attempted": 5,
                 "failed": 0, "metrics": {metric: 1000.0}})
    return {"runs": runs}


class VerdictTest(unittest.TestCase):
    def test_same_within_bound(self):
        self.assertEqual(
            compare.verdict([1.0, 1.01, 0.99], [1.02, 1.03, 1.01],
                            "lower", 0.1), "same")

    def test_worse_beyond_bound(self):
        self.assertEqual(
            compare.verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19],
                            "lower", 0.1), "worse")

    def test_better_beyond_spread(self):
        self.assertEqual(
            compare.verdict([1.0, 1.01, 0.99], [0.9, 0.91, 0.89],
                            "lower", 0.1), "better")

    def test_direction_of_higher_is_better(self):
        self.assertEqual(
            compare.verdict([100.0, 101.0, 99.0], [80.0, 81.0, 79.0],
                            "higher", 0.1), "worse")
        self.assertEqual(
            compare.verdict([100.0, 101.0, 99.0], [120.0, 121.0, 119.0],
                            "higher", 0.1), "better")

    def test_wide_spread_is_unresolved(self):
        self.assertEqual(
            compare.verdict([1.0, 1.5, 0.7, 1.2], [1.0, 1.02, 0.98],
                            "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        self.assertEqual(
            compare.verdict([2.0, 3.0, 2.5, 2.2], [1.0, 1.5, 1.2],
                            "lower", 0.1), "better")

    def test_single_run_per_side(self):
        self.assertEqual(compare.verdict([1.0], [1.05], "lower", 0.1),
                         "same")


class MainTest(unittest.TestCase):
    def run_main(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("spec", SPEC), ("a", a), ("b", b)):
                p = Path(d) / f"{name}.json"
                p.write_text(json.dumps(doc))
                paths.append(str(p))
            out = io.StringIO()
            with redirect_stdout(out):
                rc = compare.main([paths[1], paths[2], "--spec", paths[0]])
            return rc, out.getvalue()

    def test_clean_pair_exits_zero(self):
        rc, out = self.run_main(result_set([1.0, 1.01, 0.99]),
                                result_set([1.0, 1.02, 0.98]))
        self.assertEqual(rc, 0, out)
        self.assertIn("same", out)

    def test_traced_runs_are_ignored(self):
        rows = compare.compare(SPEC, result_set([1.0, 1.0]),
                               result_set([1.0, 1.0]))
        self.assertEqual([(r[0], r[1], r[4]) for r in rows],
                         [("w1", "time", "same")])

    def test_regression_exits_one(self):
        rc, out = self.run_main(result_set([1.0, 1.01, 0.99]),
                                result_set([1.5, 1.51, 1.49]))
        self.assertEqual(rc, 1)
        self.assertIn("worse", out)

    def test_failed_checks_exit_one(self):
        rc, out = self.run_main(result_set([1.0, 1.01]),
                                result_set([1.0, 1.01], failed=1))
        self.assertEqual(rc, 1)
        self.assertIn("B: 2 of 15 correctness checks failed", out)

    def test_no_common_pair_exits_one(self):
        rc, _ = self.run_main(result_set([1.0], workload="w1"),
                              result_set([1.0], workload="w2"))
        self.assertEqual(rc, 1)


if __name__ == "__main__":
    unittest.main()
