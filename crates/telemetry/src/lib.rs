//! # vb-telemetry
//!
//! Zero-dependency observability for the virtual-battery workspace:
//!
//! * **Metrics** — [`counter!`], [`float_counter!`] and [`histogram!`]
//!   resolve a name to a process-global metric once per
//!   call site (cached in a static), then update it with a single atomic
//!   operation. No locks on the hot path.
//! * **Spans** — [`span!`] returns an RAII guard that records a
//!   begin/end pair in the trace timeline, its one record. With trace
//!   recording off, a span records nothing.
//! * **Run reports** — [`event`] records structured moments (an epoch
//!   planned, a figure completed); [`RunReport::capture`] bundles the
//!   event stream with the recorded series and a metric snapshot and
//!   serializes to JSONL, which `scripts/diff_run_reports.py` compares.
//! * **Trace timelines** — every [`span!`] records begin/end events
//!   with span/parent/thread ids into per-thread buffers; [`trace_events`]
//!   drains them and [`chrome_trace_json`] exports Perfetto-loadable
//!   Chrome trace JSON. [`trace_context`]/[`adopt_trace`] carry causality
//!   across `vb-par` worker threads. See [`trace`].
//! * **Metric series** — [`series_sample`] appends per-epoch rows to a
//!   compact columnar buffer keyed by `(name, instance)`, embedded in
//!   the run report for step-by-step inspection. See [`series`].
//! * **Trace analysis** — [`analyze`] parses a Chrome trace back into
//!   spans and prints per-phase wall-clock breakdowns (count, total and
//!   self time) and top-k slowest spans (also available as the
//!   `trace_analyze` binary).
//!
//! ```
//! use vb_telemetry::Json;
//!
//! vb_telemetry::counter!("example.iterations").add(10);
//! vb_telemetry::histogram!("example.batch_size").observe(32.0);
//! let report = vb_telemetry::RunReport::capture("example");
//! let jsonl = report.to_jsonl();
//! let summary = Json::parse(jsonl.lines().last().unwrap()).unwrap();
//! assert_eq!(summary.get("type").and_then(Json::as_str), Some("summary"));
//!
//! vb_telemetry::set_trace_enabled(true);
//! {
//!     let _span = vb_telemetry::span!("example.work");
//! }
//! let trace = vb_telemetry::chrome_trace_json(&vb_telemetry::trace_events());
//! let spans = vb_telemetry::parse_chrome_trace(&trace).unwrap();
//! let phases = vb_telemetry::phase_breakdown(&spans);
//! assert_eq!((phases[0].name.as_str(), phases[0].count), ("example.work", 1));
//! ```

pub mod analyze;
pub mod report;
pub mod series;
mod snapshot;
pub mod trace;

pub use analyze::{parse_chrome_trace, phase_breakdown, render_analysis, PhaseStat, TraceSpan};
pub use report::{Event, Json, RunReport};
pub use series::{series_extend, series_sample, series_snapshot, SeriesData};
pub use snapshot::{HistogramSnapshot, Snapshot};
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
/// Records a begin/end pair in the trace timeline (nothing while trace
/// recording is off); [`phase_breakdown`] reads count, total and self
/// time per name back from an exported trace.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
