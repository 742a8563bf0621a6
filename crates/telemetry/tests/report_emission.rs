//! Run-report JSONL emission: every line `to_jsonl` writes is one JSON
//! document, events come first, series lines next and the summary line
//! last. `scripts/diff_run_reports.py` is the one reader of a report.
//!
//! The capture test is a single test fn because it exercises the
//! process-global registry (including `reset`), which would race with
//! sibling tests in the same binary.

use vb_telemetry::{HistogramSnapshot, Json, RunReport, Snapshot};

/// Parse every line of a report, requiring each to be one JSON document.
fn lines(jsonl: &str) -> Vec<Json> {
    assert!(jsonl.ends_with('\n'), "every line ends in a newline");
    jsonl
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")))
        .collect()
}

fn str_field<'a>(line: &'a Json, key: &str) -> &'a str {
    line.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {}", line.emit()))
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {}", other.emit()),
    }
}

/// The summary line carries exactly these sections, in this order.
const SUMMARY_KEYS: [&str; 5] = ["type", "name", "counters", "float_counters", "histograms"];

#[test]
fn capture_emits_events_then_series_then_the_summary() {
    use vb_telemetry::{counter, event, float_counter, histogram, series_sample, span};

    vb_telemetry::reset();
    {
        let _run = span!("emission.run");
        counter!("emission.steps").add(7);
        float_counter!("emission.gb_moved").add(12.625);
        static BOUNDS: [f64; 3] = [1.0, 8.0, 64.0];
        for v in [0.5, 3.0, 9.0, 100.0] {
            histogram!("emission.batch", &BOUNDS).observe(v);
        }
        event(
            "epoch_planned",
            &[
                ("epoch", Json::from(3u64)),
                ("policy", Json::from("mip \"peak\"\n\\")),
                ("gb", Json::from(9.5)),
            ],
        );
        series_sample("emission.step_series", "greedy", 0, &[("gb", 0.5)]);
        series_sample("emission.step_series", "greedy", 1, &[("gb", 3.25)]);
        event("phase_done", &[("name", Json::from("warmup"))]);
    }

    let jsonl = RunReport::capture("emission_demo").to_jsonl();
    let lines = lines(&jsonl);
    let kinds: Vec<&str> = lines.iter().map(|l| str_field(l, "type")).collect();
    assert_eq!(kinds, ["event", "event", "series", "summary"], "{jsonl}");

    // Events keep their kind, sequence number and escaped strings.
    assert_eq!(str_field(&lines[0], "kind"), "epoch_planned");
    assert_eq!(lines[0].get("seq"), Some(&Json::Int(0)));
    let fields = lines[0].get("fields").expect("event fields");
    assert_eq!(fields.get("epoch"), Some(&Json::Int(3)));
    assert_eq!(str_field(fields, "policy"), "mip \"peak\"\n\\");
    assert_eq!(fields.get("gb").and_then(Json::as_f64), Some(9.5));
    assert_eq!(str_field(&lines[1], "kind"), "phase_done");
    assert_eq!(lines[1].get("seq"), Some(&Json::Int(1)));

    // The series line sits between the events and the summary.
    let series = &lines[2];
    assert_eq!(str_field(series, "name"), "emission.step_series");
    assert_eq!(str_field(series, "instance"), "greedy");
    assert_eq!(
        series.get("epochs").map(Json::emit).as_deref(),
        Some("[0,1]")
    );
    let gb = series.get("columns").and_then(|c| c.get("gb"));
    assert_eq!(gb.map(Json::emit).as_deref(), Some("[0.5,3.25]"));

    // The summary carries the metrics and nothing else; span timings
    // live in the trace timeline.
    let summary = &lines[3];
    assert_eq!(keys(summary), SUMMARY_KEYS);
    assert_eq!(str_field(summary, "name"), "emission_demo");
    let section = |key: &str| summary.get(key).expect("summary section");
    assert_eq!(
        section("counters").get("emission.steps"),
        Some(&Json::Int(7))
    );
    assert_eq!(
        section("float_counters")
            .get("emission.gb_moved")
            .and_then(Json::as_f64),
        Some(12.625)
    );
    let hist = section("histograms").get("emission.batch").expect("hist");
    assert_eq!(
        keys(hist),
        ["bounds", "counts", "count", "sum", "min", "max"]
    );
    assert_eq!(
        hist.get("counts").map(Json::emit).as_deref(),
        Some("[1,1,1,1]")
    );
    assert_eq!(hist.get("count"), Some(&Json::Int(4)));
    assert_eq!(hist.get("sum").and_then(Json::as_f64), Some(112.5));
    assert_eq!(hist.get("min").and_then(Json::as_f64), Some(0.5));
    assert_eq!(hist.get("max").and_then(Json::as_f64), Some(100.0));
    vb_telemetry::reset();
}

#[test]
fn a_summary_only_report_with_an_unobserved_histogram_emits_a_valid_summary() {
    // Regression: a run that records metrics but emits no events (and no
    // series) still writes a complete summary line, including a
    // histogram that was never observed.
    let report = RunReport {
        name: "quiet_run".to_string(),
        snapshot: Snapshot {
            counters: vec![("quiet.steps".to_string(), 42)],
            float_counters: vec![("quiet.gb".to_string(), 0.0)],
            histograms: vec![(
                "quiet.empty_hist".to_string(),
                HistogramSnapshot {
                    bounds: vec![1.0, 10.0],
                    counts: vec![0, 0, 0],
                    count: 0,
                    sum: 0.0,
                    min: 0.0,
                    max: 0.0,
                },
            )],
        },
        ..RunReport::default()
    };
    let jsonl = report.to_jsonl();
    let lines = lines(&jsonl);
    assert_eq!(lines.len(), 1, "summary line only: {jsonl}");
    let summary = &lines[0];
    assert_eq!(keys(summary), SUMMARY_KEYS);
    assert_eq!(str_field(summary, "type"), "summary");
    assert_eq!(str_field(summary, "name"), "quiet_run");
    assert_eq!(
        summary.get("counters").and_then(|c| c.get("quiet.steps")),
        Some(&Json::Int(42))
    );
    let hist = summary
        .get("histograms")
        .and_then(|h| h.get("quiet.empty_hist"))
        .expect("unobserved histogram is emitted");
    assert_eq!(
        hist.emit(),
        r#"{"bounds":[1.0,10.0],"counts":[0,0,0],"count":0,"sum":0.0,"min":0.0,"max":0.0}"#
    );
}

#[test]
fn json_value_round_trips_tricky_scalars() {
    for text in [
        "{\"neg\":-12,\"big\":9007199254740993,\"frac\":0.1,\"exp\":1e-9,\"s\":\"\\u00e9\\n\"}",
        "[1,2.5,null,true,false,\"\",[],{}]",
    ] {
        let v = Json::parse(text).expect("parse");
        let emitted = v.emit();
        let reparsed = Json::parse(&emitted).expect("reparse");
        assert_eq!(v, reparsed, "emit/parse must be stable for {text}");
    }
    // Integers beyond 2^53 survive exactly (stored as i64, not f64).
    let v = Json::parse("9007199254740993").unwrap();
    assert_eq!(v, Json::Int(9_007_199_254_740_993));
    assert_eq!(v.emit(), "9007199254740993");
}
