//! Offline analysis of Chrome trace files produced by
//! [`chrome_trace_json`](crate::chrome_trace_json): rebuild the span
//! forest, break wall-clock down per phase (span name), and rank the
//! slowest individual spans — e.g. the top-k slowest `sched.sim_epoch`
//! epochs of a run.

use crate::report::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reconstructed span from a Chrome trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    pub name: String,
    pub tid: u64,
    /// Span id from the Begin record's `args` (0 when absent).
    pub id: u64,
    /// Parent span id from the Begin record's `args` (0 for roots).
    pub parent: u64,
    /// Begin timestamp in microseconds.
    pub ts_us: f64,
    /// Wall-clock duration in microseconds (0 for unclosed spans).
    pub dur_us: f64,
    /// Duration minus time spent in direct children on the same thread.
    pub self_us: f64,
}

/// Parse a Chrome trace-event JSON array into spans. Begin/End records
/// pair up per thread in file order (the exporter preserves each
/// thread's recording order); unknown phases are ignored so traces with
/// metadata records still load.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceSpan>, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let Json::Arr(items) = doc else {
        return Err("trace must be a JSON array of trace events".to_string());
    };
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for item in &items {
        let ph = item.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = item.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let ts = item.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        match ph {
            "B" => {
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let args = item.get("args");
                let field = |key: &str| {
                    args.and_then(|a| a.get(key))
                        .and_then(Json::as_u64)
                        .unwrap_or(0)
                };
                let idx = spans.len();
                spans.push(TraceSpan {
                    name,
                    tid,
                    id: field("id"),
                    parent: field("parent"),
                    ts_us: ts,
                    dur_us: 0.0,
                    self_us: 0.0,
                });
                stacks.entry(tid).or_default().push(idx);
            }
            "E" => {
                if let Some(idx) = stacks.entry(tid).or_default().pop() {
                    let dur = (ts - spans[idx].ts_us).max(0.0);
                    spans[idx].dur_us = dur;
                    spans[idx].self_us += dur;
                    if let Some(&pidx) = stacks.get(&tid).and_then(|s| s.last()) {
                        spans[pidx].self_us -= dur;
                    }
                }
            }
            _ => {}
        }
    }
    // Unclosed spans never accumulated their own duration; clamp the
    // child subtractions so self time stays non-negative.
    for s in &mut spans {
        s.self_us = s.self_us.max(0.0);
    }
    Ok(spans)
}

/// Aggregated wall-clock for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    pub name: String,
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
    pub max_us: f64,
}

/// Per-phase breakdown, sorted by self time (descending) — the phases
/// where wall-clock is actually spent, not just enclosed.
pub fn phase_breakdown(spans: &[TraceSpan]) -> Vec<PhaseStat> {
    let mut by_name: BTreeMap<&str, PhaseStat> = BTreeMap::new();
    for s in spans {
        let stat = by_name.entry(&s.name).or_insert_with(|| PhaseStat {
            name: s.name.clone(),
            count: 0,
            total_us: 0.0,
            self_us: 0.0,
            max_us: 0.0,
        });
        stat.count += 1;
        stat.total_us += s.dur_us;
        stat.self_us += s.self_us;
        stat.max_us = stat.max_us.max(s.dur_us);
    }
    let mut out: Vec<PhaseStat> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    out
}

/// The `k` slowest spans, optionally restricted to one name (e.g.
/// `sched.sim_epoch` to rank epochs), sorted by duration descending.
pub fn top_spans<'a>(spans: &'a [TraceSpan], name: Option<&str>, k: usize) -> Vec<&'a TraceSpan> {
    let mut picked: Vec<&TraceSpan> = spans
        .iter()
        .filter(|s| name.is_none_or(|n| s.name == n))
        .collect();
    picked.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
    picked.truncate(k);
    picked
}

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.3}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.3}ms", us / 1_000.0)
    } else {
        format!("{us:.1}us")
    }
}

/// Human-readable report: per-phase wall-clock table plus the top-`k`
/// slowest spans named `focus` (all names when `focus` is empty).
pub fn render_analysis(spans: &[TraceSpan], focus: &str, k: usize) -> String {
    let mut out = String::new();
    let phases = phase_breakdown(spans);
    let name_w = phases
        .iter()
        .map(|p| p.name.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}",
        "phase", "count", "total", "self", "max"
    );
    for p in &phases {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}",
            p.name,
            p.count,
            fmt_us(p.total_us),
            fmt_us(p.self_us),
            fmt_us(p.max_us)
        );
    }
    let filter = if focus.is_empty() { None } else { Some(focus) };
    let top = top_spans(spans, filter, k);
    if !top.is_empty() {
        let label = filter.unwrap_or("any phase");
        let _ = writeln!(out, "\ntop {} slowest spans ({label}):", top.len());
        for (rank, s) in top.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<2} {:<name_w$}  tid={:<3} t+{:>12}  dur={:>12}",
                rank + 1,
                s.name,
                s.tid,
                fmt_us(s.ts_us),
                fmt_us(s.dur_us)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{chrome_trace_json, TraceEvent, TracePhase};

    fn ev(phase: TracePhase, id: u64, parent: u64, tid: u64, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            phase,
            id,
            parent,
            tid,
            ts_ns,
            name: match id {
                1 => "outer.phase",
                _ => "inner.phase",
            },
        }
    }

    #[test]
    fn breakdown_and_top_k_from_exported_trace() {
        use TracePhase::{Begin, End};
        // outer [0, 12ms] contains inner [2ms, 5ms]; a second inner on
        // another thread [0, 4ms].
        let events = [
            ev(Begin, 1, 0, 1, 0),
            ev(Begin, 2, 1, 1, 2_000_000),
            ev(End, 2, 0, 1, 5_000_000),
            ev(End, 1, 0, 1, 12_000_000),
            ev(Begin, 3, 1, 2, 0),
            ev(End, 3, 0, 2, 4_000_000),
        ];
        let spans = parse_chrome_trace(&chrome_trace_json(&events)).expect("parse");
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.id == 1).expect("outer");
        assert_eq!(outer.parent, 0);
        assert!((outer.dur_us - 12_000.0).abs() < 1e-6);
        assert!(
            (outer.self_us - 9_000.0).abs() < 1e-6,
            "inner time excluded"
        );
        let cross = spans.iter().find(|s| s.id == 3).expect("cross-thread");
        assert_eq!(cross.parent, 1, "parent link survives export");

        let phases = phase_breakdown(&spans);
        assert_eq!(phases[0].name, "outer.phase", "sorted by self time");
        assert_eq!(phases[1].count, 2);

        let top = top_spans(&spans, Some("inner.phase"), 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id, 3, "slowest inner span ranks first");

        let text = render_analysis(&spans, "inner.phase", 5);
        assert!(text.contains("outer.phase"));
        assert!(text.contains("top 2 slowest spans (inner.phase)"));
    }

    #[test]
    fn rejects_non_array_and_tolerates_metadata() {
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("not json").is_err());
        // Metadata records (ph "M") and unclosed spans don't break it.
        let text = "[{\"ph\":\"M\",\"name\":\"process_name\"},\
                    {\"name\":\"open.phase\",\"ph\":\"B\",\"ts\":1.0,\"tid\":1}]";
        let spans = parse_chrome_trace(text).expect("parse");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_us, 0.0);
    }
}
