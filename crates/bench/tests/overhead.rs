//! Telemetry overhead guard: a traced short Table-1 run must stay
//! within a generous bound of the same run with trace recording
//! switched off, produce the same Table 1 rows (recording never steers
//! a result), and the trace collector must hold a paper-sized run
//! without dropping a single event.
//!
//! Recording is toggled at runtime (`set_trace_enabled`).

use std::time::Instant;
use vb_bench::table1;
use vb_sched::GroupSimConfig;
use vb_trace::TRIO;

#[test]
fn traced_table1_run_is_cheap_and_lossless() {
    let cfg = || GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    };

    // One scope: the test toggles process-global trace state and reads
    // the process-global registry.
    vb_par::with_threads(4, || {
        // Warm-up so allocator and page-cache effects hit neither side.
        vb_telemetry::reset();
        let _ = table1::run_on_group_with(7, &TRIO, cfg());

        // Best of two timed runs, and the rows of the last one.
        let time_run = |trace_on: bool| {
            vb_telemetry::set_trace_enabled(trace_on);
            let mut best = f64::INFINITY;
            let mut rows = Vec::new();
            for _ in 0..2 {
                vb_telemetry::reset();
                let t = Instant::now();
                rows = table1::run_on_group_with(7, &TRIO, cfg()).rows;
                best = best.min(t.elapsed().as_secs_f64());
            }
            (best, rows)
        };

        let (traced_secs, traced_rows) = time_run(true);

        // The run that just finished is still in the global stores:
        // losslessness and series coverage are asserted on it.
        assert_eq!(
            vb_telemetry::trace_drops(),
            0,
            "trace collector must hold a paper-sized run"
        );
        let events = vb_telemetry::trace_events();
        assert!(!events.is_empty(), "traced run records a timeline");

        let step_series: Vec<_> = vb_telemetry::series_snapshot()
            .into_iter()
            .filter(|s| s.name == "sched.step_series")
            .collect();
        assert!(
            step_series.len() >= 2,
            "every policy records its own series instance"
        );
        for s in &step_series {
            let expected: Vec<u64> = (0..2 * 96).collect();
            assert_eq!(
                s.epochs, expected,
                "{}/{}: series must cover every simulated step",
                s.name, s.instance
            );
        }

        let (untraced_secs, untraced_rows) = time_run(false);
        vb_telemetry::set_trace_enabled(true);
        vb_telemetry::reset();

        // Every `PolicySummary` field, the per-step volumes included.
        assert_eq!(traced_rows.len(), 4, "one row per Table 1 policy");
        assert_eq!(
            traced_rows, untraced_rows,
            "trace recording changed a Table 1 row"
        );

        // Generous: per-span trace cost is ~100ns against multi-ms
        // steps; 3x + 250ms absorbs scheduler noise on loaded CI hosts
        // while still catching anything pathological (locks on the hot
        // path, unbounded flushing).
        assert!(
            traced_secs <= 3.0 * untraced_secs + 0.25,
            "tracing overhead out of bounds: traced {traced_secs:.3}s vs untraced {untraced_secs:.3}s"
        );
    });
}
