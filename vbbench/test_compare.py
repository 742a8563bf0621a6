#!/usr/bin/env python3
"""Unit tests for compare.py: python3 vbbench/test_compare.py"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
    "end_to_end": [
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def record(side, workload, pair, metrics, digest="d", failed=0, correct=True):
    return {"side": side, "workload": workload, "pair": pair, "seed": pair + 1,
            "first": "parent", "digest": digest, "correct": correct,
            "attempted": 10, "failed": failed, "metrics": metrics}


class SummarizeTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(compare.summarize(values), {"median": med, "q1": q1, "q3": q3})

    def test_single_value(self):
        self.assertEqual(compare.summarize([2.0]), {"median": 2.0, "q1": 2.0, "q3": 2.0})


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_improved(self):
        change = [v * 1.2 for v in self.parent]
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertEqual(v["verdict"], "improved")
        self.assertEqual(v["win_frac"], 1.0)

    def test_lower_is_better_direction(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1)["verdict"], "improved")
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1)["verdict"], "regressed")

    def test_small_difference_is_unchanged(self):
        change = [v * 0.98 for v in self.parent]
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertEqual(v["verdict"], "unchanged")
        self.assertAlmostEqual(v["worse_by"], 0.02, places=9)

    def test_ties_count_for_neither_side(self):
        change = list(self.parent)
        change[0] += 50.0
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertAlmostEqual(v["win_frac"], 0.1)
        self.assertEqual(v["verdict"], "unchanged")

    def test_nine_in_ten_wins_needed(self):
        # Eight wins of ten, large median gap: not improved.
        change = [v * 1.5 for v in self.parent[:8]] + [v * 0.99 for v in self.parent[8:]]
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertAlmostEqual(v["win_frac"], 0.8)
        self.assertNotEqual(v["verdict"], "improved")

    def test_gain_must_exceed_parent_quartile_distance(self):
        parent = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        change = [v + 1.0 for v in parent]
        v = compare.verdict(parent, change, "higher", 0.5)
        self.assertEqual(v["win_frac"], 1.0)
        self.assertEqual(v["verdict"], "unchanged")

    def test_wide_spread_is_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        change = [v * 0.7 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_not_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        change = [v + 200.0 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)["verdict"], "improved")

    def test_regression_beyond_bound(self):
        change = [v * 0.85 for v in self.parent]
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertEqual(v["verdict"], "regressed")
        self.assertAlmostEqual(v["worse_by"], 0.15, places=9)


class ReportTest(unittest.TestCase):
    def test_pairs_digests_and_failures(self):
        recs = []
        for pair in range(10):
            recs.append(record("parent", "a", pair, {"tput": 100.0 + pair, "lat": 5.0}))
            recs.append(record("change", "a", pair, {"tput": 130.0 + pair, "lat": 5.0},
                               digest="d" if pair else "other", failed=int(pair == 3)))
        recs.append(record("parent", "b", 0, {"tput": 1.0, "lat": 1.0}))  # unpaired
        rows, notes = compare.report(recs, BENCH)
        self.assertEqual([(w, m["name"]) for w, m, _ in rows], [("a", "tput"), ("a", "lat")])
        self.assertEqual(rows[0][2]["verdict"], "improved")
        self.assertEqual(rows[1][2]["verdict"], "unchanged")
        self.assertTrue(any("digests differ at seeds [1]" in n for n in notes), notes)
        self.assertTrue(any("change had 1 failed" in n for n in notes), notes)

    def test_load_results_round_trip(self):
        recs = [record("parent", "a", 0, {"tput": 1.5})]
        lines = [json.dumps(r) + "\n" for r in recs] + ["\n"]
        self.assertEqual(compare.load_results(lines), recs)

    def test_parse_run_output(self):
        out = ("vbbench a seed=1\noutput_digest a 00ff\n"
               '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
               '{"tput": {"value": 2.5, "unit": "1/s"}}}\n')
        result, digest = compare.parse_run_output(out)
        self.assertEqual(digest, "00ff")
        self.assertEqual(result["metrics"]["tput"]["value"], 2.5)
        with self.assertRaises(ValueError):
            compare.parse_run_output("")


if __name__ == "__main__":
    unittest.main()
