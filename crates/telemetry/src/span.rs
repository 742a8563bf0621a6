//! RAII timing spans with thread-local aggregation.
//!
//! Each [`SpanGuard`] times its scope with a monotonic clock. Durations
//! accumulate into a thread-local map keyed by span name; when the
//! outermost span on a thread closes, the whole map merges into the
//! global registry in one lock acquisition. Hot loops can therefore open
//! thousands of nested spans without touching shared state.

use crate::snapshot::SpanStat;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static LOCAL: RefCell<BTreeMap<&'static str, SpanStat>> = const { RefCell::new(BTreeMap::new()) };
}

/// Guard returned by [`span!`](crate::span!); records the elapsed time
/// for `name` when dropped, and (when trace recording is on) a
/// begin/end pair in the causal timeline — see [`crate::trace`].
#[must_use = "a span guard times its scope; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    /// Timeline span id; 0 when trace recording was off at open, so the
    /// matching end record is suppressed and traces stay balanced.
    trace_id: u64,
}

impl SpanGuard {
    /// Open a span. Prefer the [`span!`](crate::span!) macro.
    pub fn enter(name: &'static str) -> SpanGuard {
        DEPTH.with(|d| d.set(d.get() + 1));
        let trace_id = crate::trace::begin_span(name);
        SpanGuard {
            name,
            start: Instant::now(),
            trace_id,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        crate::trace::end_span(self.trace_id, self.name);
        LOCAL.with(|local| {
            local
                .borrow_mut()
                .entry(self.name)
                .or_default()
                .record_ns(ns);
        });
        let depth = DEPTH.with(|d| {
            let v = d.get() - 1;
            d.set(v);
            v
        });
        if depth == 0 {
            LOCAL.with(|local| {
                let mut map = local.borrow_mut();
                if !map.is_empty() {
                    crate::registry::global().merge_spans(&map);
                    map.clear();
                }
            });
            // The outermost close is also the natural point to hand this
            // thread's timeline records to the global collector.
            crate::trace::flush_thread();
        }
    }
}
