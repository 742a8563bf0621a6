//! Run-report plumbing shared by every bench target.
//!
//! Each `benches/` main wraps its work in a [`BenchRun`]: telemetry is
//! reset at the start so the captured [`vb_telemetry::RunReport`]
//! describes exactly one artifact run, and `finish` serializes the
//! report to JSONL next to the build artifacts (override the directory
//! with `VB_REPORT_DIR`, or set it to the empty string to skip the
//! file). Setting `VB_RUN_REPORT=1` additionally prints the span/counter
//! summary to stdout — the gated replacement for the old ad-hoc
//! "[target completed in Ns]" progress lines.
//!
//! The perf benches (`solver_perf`, `fleet_perf`) also write their rows
//! to a `BENCH_*.json` file through [`write_bench_json`], which
//! `scripts/check_bench.py` gates against the committed baseline.

use std::time::Instant;
use vb_telemetry::{Json, RunReport};

/// A telemetry counter's current value, 0 before it first fires (a
/// counter registers on first use). Bench rows report a counter as the
/// difference of two reads around the measured work.
pub fn counter_now(name: &str) -> u64 {
    vb_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// Write a perf bench's result document, the JSON object of `fields`, to
/// `VB_BENCH_OUT`, by default `file` next to the workspace root (cargo
/// runs benches from the package directory). An empty `VB_BENCH_OUT`
/// skips the file. The parent directory is created, since `VB_BENCH_OUT`
/// may point into a report directory that only exists after
/// [`BenchRun::finish`].
pub fn write_bench_json(file: &str, fields: &[(&str, Json)]) {
    let path = std::env::var("VB_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")));
    if path.is_empty() {
        return;
    }
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, bench_json(fields)) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

/// The object of `fields` as compact JSON, except that each element of a
/// top-level array gets a line of its own, so a re-recorded baseline
/// diffs row by row.
fn bench_json(fields: &[(&str, Json)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&Json::from(*key).emit());
        out.push(':');
        match value {
            Json::Arr(rows) => {
                let rows: Vec<String> = rows.iter().map(Json::emit).collect();
                out.push_str(&format!("[\n{}\n]", rows.join(",\n")));
            }
            other => out.push_str(&other.emit()),
        }
    }
    out.push_str("}\n");
    out
}

/// Scope of one bench-target execution.
pub struct BenchRun {
    name: &'static str,
    t0: Instant,
}

impl BenchRun {
    /// Start a run: clears any telemetry left over from module setup so
    /// the final report covers this target alone.
    pub fn start(name: &'static str) -> BenchRun {
        vb_telemetry::reset();
        vb_telemetry::event("bench.start", &[("target", name.into())]);
        BenchRun {
            name,
            // vb-audit: allow(wallclock-in-logic, elapsed feeds only the bench timing report, which determinism diffs exclude)
            t0: Instant::now(),
        }
    }

    /// Finish the run: capture the telemetry report, write it as JSONL
    /// plus a Chrome trace (`<name>.trace.json`, Perfetto-loadable), and
    /// print the one-line completion notice (plus the full metric
    /// summary when `VB_RUN_REPORT=1`).
    pub fn finish(self) {
        let elapsed = self.t0.elapsed().as_secs_f64();
        vb_telemetry::event(
            "bench.complete",
            &[
                ("target", self.name.into()),
                ("elapsed_secs", elapsed.into()),
            ],
        );
        let report = RunReport::capture(self.name);
        let written = write_jsonl(&report);
        let trace = write_trace(self.name);
        if verbose() {
            print_summary(&report);
        }
        match written {
            Some(path) => println!(
                "\n[{} completed in {elapsed:.1}s — report: {path} ({} events, {} series)]",
                self.name,
                report.events.len(),
                report.series.len()
            ),
            None => println!("\n[{} completed in {elapsed:.1}s]", self.name),
        }
        if let Some((path, spans, drops)) = trace {
            println!("[trace: {path} ({spans} spans, {drops} dropped)]");
        }
    }
}

/// Drain the trace timeline and write it as Chrome trace-event JSON next
/// to the JSONL report. Returns `(path, span count, dropped events)`;
/// `None` when tracing is off, recording is empty, or reports are
/// disabled via `VB_REPORT_DIR=`.
fn write_trace(name: &str) -> Option<(String, usize, u64)> {
    let events = vb_telemetry::trace_events();
    if events.is_empty() {
        return None;
    }
    let dir = report_dir()?;
    let path = format!("{dir}/{name}.trace.json");
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&path, vb_telemetry::chrome_trace_json(&events)).ok()?;
    let spans = events
        .iter()
        .filter(|e| e.phase == vb_telemetry::TracePhase::Begin)
        .count();
    Some((path, spans, vb_telemetry::trace_drops()))
}

fn verbose() -> bool {
    std::env::var("VB_RUN_REPORT").is_ok_and(|v| v == "1")
}

/// Report directory: `VB_REPORT_DIR` (default `target/run-reports`);
/// empty string disables report files entirely.
fn report_dir() -> Option<String> {
    let dir = std::env::var("VB_REPORT_DIR").unwrap_or_else(|_| "target/run-reports".into());
    if dir.is_empty() {
        None
    } else {
        Some(dir)
    }
}

/// Write the JSONL report under [`report_dir`].
fn write_jsonl(report: &RunReport) -> Option<String> {
    let dir = report_dir()?;
    let path = format!("{dir}/{}.jsonl", report.name);
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&path, report.to_jsonl()).ok()?;
    Some(path)
}

/// Human-readable span and counter summary (the `VB_RUN_REPORT=1` view).
fn print_summary(report: &RunReport) {
    let snap = &report.snapshot;
    if !snap.spans.is_empty() {
        println!("\n== telemetry: spans ==");
        println!(
            "{:<28} {:>10} {:>12} {:>12}",
            "span", "count", "total", "mean"
        );
        for (name, stat) in &snap.spans {
            println!(
                "{name:<28} {:>10} {:>12} {:>12}",
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(stat.mean_ns())
            );
        }
    }
    if !snap.counters.is_empty() || !snap.float_counters.is_empty() {
        println!("\n== telemetry: counters ==");
        for (name, value) in &snap.counters {
            println!("{name:<36} {value:>14}");
        }
        for (name, value) in &snap.float_counters {
            println!("{name:<36} {value:>14.2}");
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_parses_back_with_one_row_per_line() {
        let row = |scale: &str, secs: f64| {
            Json::Obj(vec![
                ("scale".into(), scale.into()),
                ("pivots".into(), 323u64.into()),
                ("secs".into(), secs.into()),
                ("objective_sum".into(), Json::Num(37_912.0)),
            ])
        };
        let fields = [
            ("bench", Json::from("solver_scaling")),
            (
                "scaling",
                Json::Arr(vec![row("1x", 0.001946), row("10x", 1e-7)]),
            ),
        ];
        let text = bench_json(&fields);
        let doc = fields.map(|(k, v)| (k.to_string(), v));
        assert_eq!(Json::parse(&text), Ok(Json::Obj(doc.into())));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert_eq!(lines[0], r#"{"bench":"solver_scaling","scaling":["#);
        assert_eq!(
            lines[1],
            r#"{"scale":"1x","pivots":323,"secs":0.001946,"objective_sum":37912.0},"#
        );
        assert!(lines[2].starts_with(r#"{"scale":"10x","#), "{text}");
        assert_eq!(lines[3], "]}");
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
