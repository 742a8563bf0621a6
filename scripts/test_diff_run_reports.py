#!/usr/bin/env python3
"""Unit tests for diff_run_reports.py, the determinism job's diff.

Run with `python3 scripts/test_diff_run_reports.py` (or unittest
discovery). Each case writes two JSONL run reports to a temporary
directory and runs the script on them as CI's `determinism` job does,
so exit codes, stdout and stderr are checked as the job sees them: 0 on
a match, 1 with the differences on stdout, and an `error:` on stderr
when a report cannot certify anything.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "diff_run_reports.py")


def report():
    """A small run report: two events, one series and a summary."""
    return {
        "events": [
            {
                "type": "event",
                "seq": 0,
                "kind": "sched.run_start",
                "fields": {"policy": "Greedy", "sites": 3},
            },
            {
                "type": "event",
                "seq": 1,
                "kind": "sched.run_end",
                "fields": {"policy": "Greedy", "total_gb": 9440.0, "elapsed_secs": 0.52},
            },
        ],
        "series": [
            {
                "type": "series",
                "name": "sched.step_series",
                "instance": "Greedy@A+B",
                "epochs": [0, 1, 2],
                "columns": {"transfer_gb": [0.0, 16.0, 4.0], "secs": [0.01, 0.02, 0.01]},
            }
        ],
        "summary": {
            "type": "summary",
            "name": "table1_policies",
            "counters": {
                "sched.site_steps": 2016,
                "par.tasks": 4,
                "par.workers": 1,
                "par.worker_tasks": 4,
                "trace.anchor_draws": 100,
                "trace.anchor_copied": 50,
            },
            "float_counters": {"sched.transfer_gb": 9440.0},
            "histograms": {
                "sched.step_transfer_gb": {
                    "bounds": [1.0, 10.0],
                    "counts": [1, 1, 1],
                    "count": 3,
                    "sum": 20.0,
                    "min": 0.0,
                    "max": 16.0,
                }
            },
            "spans": {"sched.group_run": {"count": 1, "total_ns": 500000}},
        },
    }


def jsonl(rep):
    lines = rep["events"] + rep["series"] + [rep["summary"]]
    return "".join(json.dumps(line) + "\n" for line in lines)


class DiffRunReportsTests(unittest.TestCase):
    def run_script(self, text_a, text_b):
        """Run the script on two report texts (None: no file); return
        (exit code, stdout, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, text in (("a.jsonl", text_a), ("b.jsonl", text_b)):
                path = os.path.join(tmp, name)
                if text is not None:
                    with open(path, "w") as fh:
                        fh.write(text)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, SCRIPT, *paths], capture_output=True, text=True
            )
            return proc.returncode, proc.stdout, proc.stderr

    def assert_match(self, a, b):
        code, out, err = self.run_script(jsonl(a), jsonl(b))
        self.assertEqual(code, 0, out + err)
        self.assertIn("run reports match", out)

    def assert_differs(self, a, b, what):
        code, out, err = self.run_script(jsonl(a), jsonl(b))
        self.assertEqual(code, 1, out + err)
        self.assertIn(what, out)
        self.assertEqual(err, "")

    def assert_error(self, text_a, text_b, what):
        code, out, err = self.run_script(text_a, text_b)
        self.assertNotEqual(code, 0, out + err)
        self.assertIn("error:", err)
        self.assertIn(what, err)

    def test_identical_reports_pass(self):
        code, out, err = self.run_script(jsonl(report()), jsonl(report()))
        self.assertEqual(code, 0, out + err)
        # Two counters, a float counter, a histogram, two events and a
        # series: the excluded counters and the spans are not counted.
        self.assertIn("(7 metrics/events/series compared", out)

    def test_changed_values_fail(self):
        def counter(r):
            r["summary"]["counters"]["sched.site_steps"] = 2017

        def missing_counter(r):
            del r["summary"]["counters"]["par.tasks"]

        def float_counter(r):
            r["summary"]["float_counters"]["sched.transfer_gb"] = 9440.5

        def histogram(r):
            r["summary"]["histograms"]["sched.step_transfer_gb"]["counts"] = [0, 2, 1]

        def event_field(r):
            r["events"][1]["fields"]["total_gb"] = 9441.0

        def series_value(r):
            r["series"][0]["columns"]["transfer_gb"][1] = 16.5

        cases = [
            (counter, "counters.sched.site_steps: 2016 != 2017"),
            (missing_counter, "counters.par.tasks: 4 != None"),
            (float_counter, "float_counters.sched.transfer_gb: 9440.0 != 9440.5"),
            (histogram, "histograms.sched.step_transfer_gb:"),
            (event_field, '"total_gb": 9441.0'),
            (series_value, "series sched.step_series/Greedy@A+B.transfer_gb: values differ"),
        ]
        for change, what in cases:
            with self.subTest(change=change.__name__):
                b = report()
                change(b)
                self.assert_differs(report(), b, what)

    def test_excluded_quantities_are_ignored(self):
        def worker_counts(r):
            r["summary"]["counters"]["par.workers"] = 4
            r["summary"]["counters"]["par.worker_tasks"] = 9

        def anchor_memo(r):
            r["summary"]["counters"]["trace.anchor_draws"] = 400
            r["summary"]["counters"]["trace.anchor_copied"] = 7

        def elapsed_secs(r):
            r["events"][1]["fields"]["elapsed_secs"] = 0.31

        def spans(r):
            r["summary"]["spans"] = {"sched.group_run": {"count": 4, "total_ns": 9}}

        def secs_column(r):
            r["series"][0]["columns"]["secs"] = [0.5, 0.5, 0.5]

        for change in (worker_counts, anchor_memo, elapsed_secs, spans, secs_column):
            with self.subTest(change=change.__name__):
                b = report()
                change(b)
                self.assert_match(report(), b)

    def test_event_order_is_ignored(self):
        # Parallel workers emit events in completion order, so seq
        # numbers and line order may differ between thread counts.
        b = report()
        b["events"].reverse()
        for seq, event in enumerate(b["events"]):
            event["seq"] = seq
        self.assert_match(report(), b)

    def test_missing_or_empty_file_is_an_error(self):
        self.assert_error(jsonl(report()), None, "cannot read run report")
        self.assert_error(jsonl(report()), "", "is empty")
        self.assert_error(" \n\n", jsonl(report()), "is empty")

    def test_malformed_json_is_an_error(self):
        self.assert_error(jsonl(report()) + "{not json\n", jsonl(report()), "malformed JSON")

    def test_missing_summary_line_is_an_error(self):
        r = report()
        text = "".join(json.dumps(line) + "\n" for line in r["events"] + r["series"])
        self.assert_error(jsonl(report()), text, "no summary line found")

    def test_duplicate_series_key_is_an_error(self):
        r = report()
        r["series"].append(dict(r["series"][0]))
        self.assert_error(jsonl(r), jsonl(r), "duplicate series sched.step_series/Greedy@A+B")

    def test_comparison_left_empty_after_exclusions_is_an_error(self):
        # Only excluded metrics and spans: a "match" would certify
        # nothing.
        r = report()
        r["events"] = []
        r["series"] = []
        r["summary"]["counters"] = {"par.workers": 1, "trace.anchor_draws": 3}
        r["summary"]["float_counters"] = {}
        r["summary"]["histograms"] = {}
        self.assert_error(jsonl(r), jsonl(r), "no comparable metrics or events after exclusions")


if __name__ == "__main__":
    unittest.main()
