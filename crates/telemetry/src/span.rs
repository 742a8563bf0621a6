//! RAII timing spans, recorded once: in the causal trace timeline.
//!
//! A [`SpanGuard`] is a begin/end pair in the timeline (see
//! [`crate::trace`]). Its duration and self time are read back from the
//! timeline — [`phase_breakdown`](crate::phase_breakdown) per span name,
//! or the `trace_analyze` binary from an exported trace. With trace
//! recording off, a span records nothing.

/// Guard returned by [`span!`](crate::span!): a Begin record when it
/// opens and the matching End record when it drops.
#[must_use = "a span guard times its scope; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// Timeline span id; 0 when trace recording was off at open, so the
    /// matching end record is suppressed and traces stay balanced.
    trace_id: u64,
}

impl SpanGuard {
    /// Open a span. Prefer the [`span!`](crate::span!) macro.
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            trace_id: crate::trace::begin_span(name),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        crate::trace::end_span(self.trace_id, self.name);
    }
}
