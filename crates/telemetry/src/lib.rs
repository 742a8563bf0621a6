//! # vb-telemetry
//!
//! Zero-dependency observability for the virtual-battery workspace:
//!
//! * **Metrics** — [`counter!`], [`float_counter!`] and [`histogram!`]
//!   resolve a name to a process-global metric once per
//!   call site (cached in a static), then update it with a single atomic
//!   operation. No locks on the hot path.
//! * **Spans** — [`span!`] returns an RAII guard that times the enclosed
//!   scope. Durations aggregate in thread-local storage and merge into
//!   the global registry when the outermost span on a thread closes, so
//!   deeply nested instrumentation stays cheap.
//! * **Run reports** — [`event`] records structured moments (an epoch
//!   planned, a figure completed); [`RunReport::capture`] bundles the
//!   event stream with a full metric snapshot and serializes to JSONL
//!   that [`RunReport::parse_jsonl`] reads back.
//! * **Trace timelines** — every [`span!`] also records begin/end events
//!   with span/parent/thread ids into per-thread buffers; [`trace_events`]
//!   drains them and [`chrome_trace_json`] exports Perfetto-loadable
//!   Chrome trace JSON. [`trace_context`]/[`adopt_trace`] carry causality
//!   across `vb-par` worker threads. See [`trace`].
//! * **Metric series** — [`series_sample`] appends per-epoch rows to a
//!   compact columnar buffer keyed by `(name, instance)`, embedded in
//!   the run report for step-by-step inspection. See [`series`].
//! * **Trace analysis** — [`analyze`] parses a Chrome trace back into
//!   spans and prints per-phase wall-clock breakdowns and top-k slowest
//!   spans (also available as the `trace_analyze` binary).
//!
//! ```
//! let _span = vb_telemetry::span!("example.work");
//! vb_telemetry::counter!("example.iterations").add(10);
//! vb_telemetry::histogram!("example.batch_size").observe(32.0);
//! let report = vb_telemetry::RunReport::capture("example");
//! let jsonl = report.to_jsonl();
//! let back = vb_telemetry::RunReport::parse_jsonl(&jsonl).unwrap();
//! assert_eq!(report, back);
//! ```

pub mod analyze;
pub mod report;
pub mod series;
mod snapshot;
pub mod trace;

pub use analyze::{parse_chrome_trace, phase_breakdown, render_analysis, PhaseStat, TraceSpan};
pub use report::{Event, Json, RunReport};
pub use series::{series_extend, series_sample, series_snapshot, SeriesData};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanStat};
pub use trace::{
    adopt_trace, chrome_trace_json, set_trace_enabled, trace_context, trace_drops, trace_enabled,
    trace_events, TraceAdoptGuard, TraceContext, TraceEvent, TracePhase,
};

mod metrics;
mod registry;
mod span;

pub use metrics::{Counter, FloatCounter, Histogram};
pub use registry::{event, events, global, reset, snapshot, Registry};
pub use span::SpanGuard;

#[doc(hidden)]
pub mod cells {
    pub use crate::metrics::{CounterCell, FloatCounterCell, HistogramCell};
}

/// Monotonic counter handle for the named metric.
///
/// The name must be a string literal (or `&'static str` expression); the
/// registry lookup happens once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __VB_CELL: $crate::cells::CounterCell = $crate::cells::CounterCell::new();
        __VB_CELL.get($name)
    }};
}

/// Monotonic `f64` accumulator handle (e.g. gigabytes moved).
#[macro_export]
macro_rules! float_counter {
    ($name:expr) => {{
        static __VB_CELL: $crate::cells::FloatCounterCell = $crate::cells::FloatCounterCell::new();
        __VB_CELL.get($name)
    }};
}

/// Fixed-bucket histogram handle. The one-argument form uses the default
/// decade buckets; pass a `&'static [f64]` of ascending upper bounds to
/// customize.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __VB_CELL: $crate::cells::HistogramCell = $crate::cells::HistogramCell::new();
        __VB_CELL.get($name, None)
    }};
    ($name:expr, $bounds:expr) => {{
        static __VB_CELL: $crate::cells::HistogramCell = $crate::cells::HistogramCell::new();
        __VB_CELL.get($name, Some($bounds))
    }};
}

/// Time the enclosing scope: `let _span = span!("solver.mip_solve");`.
///
/// Durations are aggregated per thread and merged into the registry when
/// the thread's outermost span closes; nested spans are tracked
/// independently by name.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
