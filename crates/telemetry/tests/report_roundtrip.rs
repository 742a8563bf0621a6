//! Run-report JSONL round-trip: capture -> serialize -> parse -> equal.
//!
//! The capture test is a single test fn because it exercises the
//! process-global registry (including `reset`), which would race with
//! sibling tests in the same binary.

use vb_telemetry::{Json, RunReport};

#[test]
fn capture_serialize_parse_roundtrip() {
    use vb_telemetry::{counter, event, float_counter, histogram, span};

    vb_telemetry::reset();
    {
        let _run = span!("roundtrip.run");
        counter!("roundtrip.steps").add(7);
        float_counter!("roundtrip.gb_moved").add(12.625);
        static BOUNDS: [f64; 3] = [1.0, 8.0, 64.0];
        for v in [0.5, 3.0, 9.0, 100.0] {
            histogram!("roundtrip.batch", &BOUNDS).observe(v);
        }
        event(
            "epoch_planned",
            &[
                ("epoch", Json::from(3u64)),
                ("policy", Json::from("mip")),
                ("moves", Json::from(14u64)),
                ("gb", Json::from(9.5)),
            ],
        );
        event("phase_done", &[("name", Json::from("warmup"))]);
    }

    let report = RunReport::capture("roundtrip_demo");
    assert_eq!(report.name, "roundtrip_demo");
    assert_eq!(report.events.len(), 2);
    assert_eq!(report.events[0].kind, "epoch_planned");
    assert_eq!(report.snapshot.counter("roundtrip.steps"), Some(7));
    assert_eq!(
        report.snapshot.float_counter("roundtrip.gb_moved"),
        Some(12.625)
    );
    let hist = report.snapshot.histogram("roundtrip.batch").expect("hist");
    assert_eq!(hist.counts, vec![1, 1, 1, 1]);
    assert!(report.snapshot.span("roundtrip.run").is_some());

    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), 3, "2 events + 1 summary");
    let parsed = RunReport::parse_jsonl(&jsonl).expect("parse back");
    assert_eq!(parsed, report, "JSONL round-trip must be lossless");

    // A second serialization of the parsed report is byte-identical.
    assert_eq!(parsed.to_jsonl(), jsonl);
}

#[test]
fn parser_accepts_hand_written_reports() {
    let text = concat!(
        "{\"type\":\"event\",\"seq\":0,\"kind\":\"start\",\"fields\":{\"note\":\"a \\\"quoted\\\" name\",\"ok\":true,\"x\":null}}\n",
        "{\"type\":\"summary\",\"name\":\"hand\",\"counters\":{\"c\":3},",
        "\"float_counters\":{\"f\":1.5},",
        "\"histograms\":{\"h\":{\"bounds\":[1.0,2.0],\"counts\":[1,0,2],\"count\":3,\"sum\":7.5,\"min\":0.5,\"max\":4.0}},",
        "\"spans\":{\"s\":{\"count\":2,\"total_ns\":100,\"min_ns\":40,\"max_ns\":60}}}\n",
    );
    let report = RunReport::parse_jsonl(text).expect("valid report");
    assert_eq!(report.name, "hand");
    assert_eq!(report.events.len(), 1);
    assert_eq!(
        report.events[0].fields[0].1,
        Json::Str("a \"quoted\" name".to_string())
    );
    assert_eq!(report.snapshot.counter("c"), Some(3));
    assert_eq!(
        report.snapshot.histogram("h").unwrap().counts,
        vec![1, 0, 2]
    );
    assert_eq!(report.snapshot.span("s").unwrap().mean_ns(), 50);
}

#[test]
fn zero_event_reports_with_nonempty_snapshots_roundtrip() {
    // Regression: a run that records metrics but emits no events (and no
    // series) must survive serialize -> parse -> serialize, including
    // empty histograms whose min/max were never observed.
    use vb_telemetry::{HistogramSnapshot, RunReport, Snapshot, SpanStat};
    let report = RunReport {
        name: "quiet_run".to_string(),
        events: Vec::new(),
        series: Vec::new(),
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
            spans: vec![(
                "quiet.span".to_string(),
                SpanStat {
                    count: 3,
                    total_ns: 300,
                    min_ns: 50,
                    max_ns: 200,
                },
            )],
        },
    };
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), 1, "summary line only");
    let parsed = RunReport::parse_jsonl(&jsonl).expect("zero-event report parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_jsonl(), jsonl);

    // Trailing newlines, blank/whitespace lines and CRLF endings are
    // tolerated wherever a line boundary can occur.
    for decorated in [
        format!("{jsonl}\n\n"),
        format!("\n  \n{jsonl}"),
        format!("  {}  \n\t\n", jsonl.trim_end()),
        jsonl.trim_end().to_string(), // no final newline
        jsonl.replace('\n', "\r\n"),
    ] {
        let parsed = RunReport::parse_jsonl(&decorated)
            .unwrap_or_else(|e| panic!("must parse {decorated:?}: {e}"));
        assert_eq!(parsed, report);
    }

    // Error offsets stay within the input even without a final newline.
    let truncated = "{\"type\":\"event\",\"seq\":0,\"kind\":\"k\",\"fields\":{}}";
    let err = RunReport::parse_jsonl(truncated).expect_err("missing summary");
    assert!(err.offset <= truncated.len());
}

#[test]
fn series_lines_roundtrip_between_events_and_summary() {
    use vb_telemetry::{RunReport, SeriesData};
    let mut report = RunReport {
        name: "with_series".to_string(),
        ..RunReport::default()
    };
    report.series.push(SeriesData {
        name: "demo.step_series".to_string(),
        instance: "greedy".to_string(),
        epochs: vec![0, 1, 2],
        columns: vec![
            ("queued_apps".to_string(), vec![0.0, 2.0, 1.0]),
            ("transfer_gb".to_string(), vec![0.5, 0.0, 3.25]),
        ],
    });
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), 2, "1 series + 1 summary");
    let parsed = RunReport::parse_jsonl(&jsonl).expect("parse");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_jsonl(), jsonl);
    assert_eq!(
        parsed.series[0].column("transfer_gb"),
        Some(&[0.5, 0.0, 3.25][..])
    );

    // Malformed series lines are rejected with a clear error.
    let summary = jsonl.lines().last().expect("summary line");
    let ragged = format!(
        "{}\n{summary}\n",
        "{\"type\":\"series\",\"name\":\"s.x\",\"instance\":\"\",\"epochs\":[0,1],\"columns\":{\"v\":[1.0]}}"
    );
    assert!(
        RunReport::parse_jsonl(&ragged).is_err(),
        "column length must match epochs"
    );
    let after_summary = format!(
        "{summary}\n{}\n",
        jsonl.lines().next().expect("series line")
    );
    assert!(
        RunReport::parse_jsonl(&after_summary).is_err(),
        "series after summary is malformed"
    );
}

#[test]
fn parser_rejects_malformed_input() {
    assert!(RunReport::parse_jsonl("").is_err(), "no summary line");
    assert!(
        RunReport::parse_jsonl("{\"type\":\"event\",\"seq\":0}\n").is_err(),
        "event missing fields and no summary"
    );
    assert!(
        RunReport::parse_jsonl("not json at all\n").is_err(),
        "not JSON"
    );
    let dup = "{\"type\":\"summary\",\"name\":\"a\",\"counters\":{},\"float_counters\":{},\"histograms\":{},\"spans\":{}}\n";
    assert!(
        RunReport::parse_jsonl(&format!("{dup}{dup}")).is_err(),
        "two summaries"
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
