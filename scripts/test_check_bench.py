#!/usr/bin/env python3
"""Unit tests for the check_bench.py perf gate.

Run with `python3 scripts/test_check_bench.py` (or unittest discovery).
The regression pinned here: the key-set comparison must be *symmetric*.
The old gate only verified that its own rule table's keys existed in
each file, so a current result that dropped a baseline key — or grew a
key the baseline never had (a renamed metric, a vanished scale row) —
passed silently as "nothing to compare".
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench


def solver_result(**updates):
    base = {"bench": "solver_scaling", "scaling": [solver_scale_row("100x")]}
    base.update(updates)
    return base


def solver_scale_row(scale, **updates):
    row = {
        "scale": scale,
        "apps": 1600,
        "vars": 4818,
        "rows": 2578,
        "epochs": 2,
        "kernel_secs": 0.12,
        "kernel_pivots": 3435,
        "presolve_vars_fixed": 5760,
        "refactorizations": 26,
        "eta_updates": 3435,
        "lp_solves": 2,
        "nodes_expanded": 2,
        "objective_sum": 926572,
    }
    row.update(updates)
    return row


# The solver row keys gated exactly: work counts and the objective sum.
EXACT_WORK_KEYS = (
    "kernel_pivots",
    "eta_updates",
    "refactorizations",
    "lp_solves",
    "nodes_expanded",
    "objective_sum",
)


def fleet_row(scale, **updates):
    row = {
        "scale": scale,
        "sites": 30,
        "shards": 10,
        "days": 84,
        "steps": 8064,
        "policy": "Greedy",
        "build_secs": 0.3,
        "event_secs": 0.2,
        "event_steps_per_sec": 1_200_000.0,
        "vm_decisions": 532_000,
        "vm_decisions_per_sec": 2_600_000.0,
        "event_wakeups": 16_700,
        "transfers": 36_900,
        "power_scan_visits": 500_000,
        "resume_scan_visits": 300_000,
        "total_gb": 888_000.0,
        "dropped_apps": 1000,
        "peak_rss_mb": 120.0,
    }
    row.update(updates)
    return row


def fleet_result(rows):
    return {"bench": "fleet_sim", "shard_size": 3, "rows": rows}


# The fleet row's step-loop work counts, each moved just inside and
# just past its 1 % relative band around `fleet_row`'s value.
FLEET_COUNTS_WITHIN_BAND = {
    "event_wakeups": 16_860,
    "transfers": 36_540,
    "power_scan_visits": 504_000,
    "resume_scan_visits": 302_900,
}
FLEET_COUNTS_PAST_BAND = {
    "event_wakeups": 16_900,
    "transfers": 36_500,
    "power_scan_visits": 506_000,
    "resume_scan_visits": 303_100,
}


class GateHarness(unittest.TestCase):
    def gate(self, current, baseline, rows_filter=None, overrides=None):
        """Run the gate over two in-memory results; return (code, output)."""
        return self.gate_text(
            json.dumps(current), json.dumps(baseline), rows_filter, overrides
        )

    def gate_text(self, current, baseline, rows_filter=None, overrides=None):
        """Run the gate over two result files' text; return (code, output)."""
        with tempfile.TemporaryDirectory() as tmp:
            cur_path = os.path.join(tmp, "current.json")
            base_path = os.path.join(tmp, "baseline.json")
            with open(cur_path, "w") as fh:
                fh.write(current)
            with open(base_path, "w") as fh:
                fh.write(baseline)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = check_bench.run_gate(cur_path, base_path, rows_filter, overrides)
            return code, out.getvalue()


class SolverGateTests(GateHarness):
    def test_identical_results_pass(self):
        code, out = self.gate(solver_result(), solver_result())
        self.assertEqual(code, 0, out)
        self.assertIn("perf gate passed", out)

    def test_wallclock_regression_fails(self):
        code, out = self.gate(
            solver_result(scaling=[solver_scale_row("100x", kernel_secs=0.5)]),
            solver_result(),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("100x.kernel_secs", out)

    def test_missing_key_in_current_fails(self):
        # Direction 1: the current result lost a key the baseline has.
        current = solver_result()
        del current["scaling"][0]["lp_solves"]
        code, out = self.gate(current, solver_result())
        self.assertEqual(code, 1, out)
        self.assertIn("only in baseline: 100x.lp_solves", out)

    def test_extra_key_in_current_fails(self):
        # Direction 2 (the old gate's blind spot): the current result
        # carries a key the baseline has never seen.
        code, out = self.gate(solver_result(new_metric=1.0), solver_result())
        self.assertEqual(code, 1, out)
        self.assertIn("only in current result: new_metric", out)

    def test_removed_flat_key_fails(self):
        # The cross-epoch warm-start keys left the solver bench; a result
        # that still carries one is a key-set mismatch.
        code, out = self.gate(solver_result(warm_hits=95), solver_result())
        self.assertEqual(code, 1, out)
        self.assertIn("only in current result: warm_hits", out)

    def test_key_without_a_rule_fails(self):
        # Present on both sides, so the key sets match, but no rule gates
        # it: failing beats passing it unchecked.
        code, out = self.gate(solver_result(warm_hits=95), solver_result(warm_hits=95))
        self.assertEqual(code, 1, out)
        self.assertIn("keys without a gate rule: warm_hits", out)

    def test_old_kind_name_is_unknown(self):
        old = solver_result(bench="solver_epoch_reuse")
        with self.assertRaises(SystemExit) as exit_:
            self.gate(old, old)
        self.assertIn("unknown bench kind 'solver_epoch_reuse'", str(exit_.exception.code))

    def test_bench_kind_mismatch_fails(self):
        code, out = self.gate(fleet_result([fleet_row("10x")]), solver_result())
        self.assertEqual(code, 1, out)
        self.assertIn("bench kind mismatch", out)

    def test_scaling_rows_gate_independently(self):
        rows = [solver_scale_row("100x")]
        code, out = self.gate(
            solver_result(scaling=rows), solver_result(scaling=rows)
        )
        self.assertEqual(code, 0, out)
        self.assertIn("100x.kernel_pivots", out)

    def test_leftover_speedup_key_is_unknown(self):
        # The baseline-kernel ratio left the solver rows with the
        # tableau engine it divided by; a row still carrying it has no
        # rule and must not pass.
        stale = solver_result(scaling=[solver_scale_row("100x", speedup=4.2)])
        with self.assertRaises(SystemExit) as exit_:
            self.gate(stale, solver_result())
        self.assertIn(
            "no gate rule for scaling row key `speedup`", str(exit_.exception.code)
        )

    def test_exact_work_keys_pass_when_equal(self):
        for key in EXACT_WORK_KEYS:
            with self.subTest(key=key):
                code, out = self.gate(solver_result(), solver_result())
                self.assertEqual(code, 0, out)
                self.assertRegex(out, rf"100x\.{key} .* ok \(exact match required\)")

    def test_exact_work_keys_fail_on_any_change(self):
        # Fewer is a change as much as more: the solver took another path.
        for key in EXACT_WORK_KEYS:
            base = solver_scale_row("100x")[key]
            for moved in (base + 1, base - 1):
                with self.subTest(key=key, value=moved):
                    code, out = self.gate(
                        solver_result(scaling=[solver_scale_row("100x", **{key: moved})]),
                        solver_result(),
                    )
                    self.assertEqual(code, 1, out)
                    self.assertRegex(out, rf"100x\.{key} .* FAIL \(exact match required\)")

    def test_exact_work_tolerance_cannot_be_overridden(self):
        with self.assertRaises(SystemExit) as exit_:
            check_bench.main(["check_bench.py", "cur.json", "base.json", "kernel_pivots=1.1"])
        self.assertIn("gated exactly", str(exit_.exception.code))

    def test_scaling_presolve_reduction_drift_fails(self):
        code, out = self.gate(
            solver_result(scaling=[solver_scale_row("100x", presolve_vars_fixed=0)]),
            solver_result(scaling=[solver_scale_row("100x")]),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("100x.presolve_vars_fixed", out)

    def test_scaling_wallclock_within_band_passes(self):
        code, out = self.gate(
            solver_result(scaling=[solver_scale_row("100x", kernel_secs=0.2)]),
            solver_result(),
        )
        self.assertEqual(code, 0, out)
        self.assertIn("100x.kernel_secs", out)

    def test_vanished_scaling_row_fails(self):
        code, out = self.gate(
            solver_result(scaling=[solver_scale_row("1x", apps=16)]),
            solver_result(
                scaling=[solver_scale_row("1x", apps=16), solver_scale_row("100x")]
            ),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("only in baseline", out)

    def test_rows_filter_applies_to_scaling_rows(self):
        code, out = self.gate(
            solver_result(scaling=[solver_scale_row("1x", apps=16)]),
            solver_result(
                scaling=[solver_scale_row("1x", apps=16), solver_scale_row("100x")]
            ),
            rows_filter=["1x"],
        )
        self.assertEqual(code, 0, out)
        self.assertNotIn("100x.", out)

    def test_bench_writer_format_passes_against_a_pretty_baseline(self):
        # `vb_bench::report::write_bench_json` writes one compact row per
        # line and f64 values at full precision, so an integral objective
        # sum reads `37912.0`; committed baselines are pretty-printed with
        # `37912`. The gate compares numbers, not text: the pair passes,
        # and an objective one off still fails the exact rule.
        row = solver_scale_row(
            "1x", apps=16, vars=66, rows=44, epochs=8, kernel_secs=0.001946,
            kernel_pivots=323, presolve_vars_fixed=240, refactorizations=0,
            eta_updates=323, lp_solves=8, nodes_expanded=8, objective_sum=37912,
        )
        baseline = json.dumps(solver_result(scaling=[row]), indent=2)
        self.assertIn('"objective_sum": 37912\n', baseline)
        for objective, expected in (("37912.0", 0), ("37913.0", 1)):
            current = (
                '{"bench":"solver_scaling","scaling":[\n'
                '{"scale":"1x","apps":16,"vars":66,"rows":44,"epochs":8,'
                '"kernel_secs":0.001946,"kernel_pivots":323,'
                '"presolve_vars_fixed":240,"refactorizations":0,'
                '"eta_updates":323,"lp_solves":8,"nodes_expanded":8,'
                f'"objective_sum":{objective}}}\n'
                "]}\n"
            )
            with self.subTest(objective=objective):
                code, out = self.gate_text(current, baseline)
                self.assertEqual(code, expected, out)
                verdict = "ok" if expected == 0 else "FAIL"
                self.assertRegex(
                    out, rf"1x\.objective_sum .* {verdict} \(exact match required\)"
                )


class FleetGateTests(GateHarness):
    def test_identical_results_pass(self):
        rows = [fleet_row("10x"), fleet_row("100x", sites=300, shards=100)]
        code, out = self.gate(fleet_result(rows), fleet_result(rows))
        self.assertEqual(code, 0, out)

    def test_work_counts_pass_within_the_band(self):
        # Libm feeds the counts, so a drift under 1 % passes.
        for key, moved in FLEET_COUNTS_WITHIN_BAND.items():
            with self.subTest(key=key):
                code, out = self.gate(
                    fleet_result([fleet_row("10x", **{key: moved})]),
                    fleet_result([fleet_row("10x")]),
                )
                self.assertEqual(code, 0, out)
                self.assertRegex(out, rf"10x\.{key} .* ok \(must stay within 0.01 relative\)")

    def test_work_counts_fail_past_the_band(self):
        # More wake-ups or transfers than the baseline's band is the
        # step core doing other work (a lost skip, an eviction storm),
        # and fewer is as much a change.
        for key, moved in FLEET_COUNTS_PAST_BAND.items():
            with self.subTest(key=key):
                code, out = self.gate(
                    fleet_result([fleet_row("10x", **{key: moved})]),
                    fleet_result([fleet_row("10x")]),
                )
                self.assertEqual(code, 1, out)
                self.assertRegex(out, rf"10x\.{key} .* FAIL \(must stay within 0.01 relative\)")

    def test_build_secs_within_band_passes(self):
        code, out = self.gate(
            fleet_result([fleet_row("10x", build_secs=0.55)]),
            fleet_result([fleet_row("10x")]),
        )
        self.assertEqual(code, 0, out)
        self.assertRegex(out, r"10x\.build_secs .* ok")

    def test_build_secs_regression_fails(self):
        # Shard construction (trace and forecast synthesis) slowing
        # past 2x trips the gate like the step loop would.
        code, out = self.gate(
            fleet_result([fleet_row("10x", build_secs=0.7)]),
            fleet_result([fleet_row("10x")]),
        )
        self.assertEqual(code, 1, out)
        self.assertRegex(out, r"10x\.build_secs .* FAIL")

    def test_leftover_legacy_keys_are_unknown(self):
        # The legacy-core timers and the legacy/event ratio left the
        # fleet rows with the full-scan driver they measured; a row
        # still carrying one has no rule and must not pass.
        for key, value in (("speedup", 14.7), ("legacy_secs", 3.2)):
            with self.subTest(key=key):
                stale = fleet_result([fleet_row("10x", **{key: value})])
                with self.assertRaises(SystemExit) as exit_:
                    self.gate(stale, fleet_result([fleet_row("10x")]))
                self.assertIn(
                    f"no gate rule for rows row key `{key}`", str(exit_.exception.code)
                )

    def test_missing_scale_row_fails(self):
        # A vanished 100x row is a key-set mismatch, not a silent skip.
        code, out = self.gate(
            fleet_result([fleet_row("10x")]),
            fleet_result([fleet_row("10x"), fleet_row("100x", sites=300)]),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("only in baseline", out)
        self.assertIn("100x.event_wakeups", out)

    def test_extra_scale_row_fails(self):
        code, out = self.gate(
            fleet_result([fleet_row("10x"), fleet_row("1000x", sites=3000)]),
            fleet_result([fleet_row("10x")]),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("only in current result", out)

    def test_rows_filter_gates_named_scales_only(self):
        # CI runs only the 10x row; the baseline still carries 100x.
        code, out = self.gate(
            fleet_result([fleet_row("10x")]),
            fleet_result([fleet_row("10x"), fleet_row("100x", sites=300)]),
            rows_filter=["10x"],
        )
        self.assertEqual(code, 0, out)
        self.assertNotIn("100x.", out)

    def test_structural_drift_fails(self):
        code, out = self.gate(
            fleet_result([fleet_row("10x", days=7, steps=672)]),
            fleet_result([fleet_row("10x")]),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("10x.days", out)

    def test_override_widens_band(self):
        current = fleet_result([fleet_row("10x", event_secs=0.7)])
        baseline = fleet_result([fleet_row("10x")])
        code, _ = self.gate(current, baseline)
        self.assertEqual(code, 1)
        code, _ = self.gate(current, baseline, overrides={"event_secs": 4.0})
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
