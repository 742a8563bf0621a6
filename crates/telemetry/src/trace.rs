//! Causal trace timelines: begin/end records for every [`span!`] scope,
//! linked by span id / parent id, exportable as Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`).
//!
//! ## Recording design
//!
//! The hot path touches only thread-local state. Each thread appends
//! [`TraceEvent`]s to a private buffer and flushes it into the bounded
//! process-global collector in one lock acquisition when either the
//! buffer fills (16 384 events) or the thread's outermost span closes.
//! The collector itself holds at most 1 048 576 events; once full,
//! further events are dropped and counted in [`trace_drops`] — recording
//! never blocks and never grows without bound.
//!
//! ## Cross-thread causality
//!
//! [`trace_context`] captures the calling thread's innermost open span;
//! [`adopt_trace`] installs that context on a worker thread so spans the
//! worker opens nest under the caller's span. `vb-par` does this around
//! every `par_map` fan-out, which is why worker timelines appear as
//! children of the span that launched them.
//!
//! Recording can be switched off at runtime with [`set_trace_enabled`]
//! or by setting `VB_TRACE=0`.
//!
//! [`span!`]: crate::span!

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::report::Json;

/// Whether a record marks a span opening or closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    Begin,
    End,
}

/// One begin/end record in a trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub phase: TracePhase,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span at open time; 0 for roots. End records
    /// carry 0 — the Begin record owns the causal link.
    pub parent: u64,
    /// Small stable per-thread number (assigned on first trace use).
    pub tid: u64,
    /// Monotonic nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    pub name: &'static str,
}

/// A captured parent-span link, handed to worker threads so their spans
/// nest under the capturing thread's innermost open span. `Copy` + cheap
/// so `vb-par` can clone it into every worker closure.
#[derive(Debug, Clone, Copy)]
pub struct TraceContext {
    pub(crate) parent: u64,
}

/// Render trace events as a Chrome trace-event JSON array (duration
/// events, `ph: "B"/"E"`, timestamps in microseconds). The output loads
/// directly in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`; Begin records carry the span id and parent id in
/// `args` so causal links survive the export.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut arr = Vec::with_capacity(events.len());
    for ev in events {
        let mut fields = vec![
            ("name".to_string(), Json::from(ev.name)),
            ("cat".to_string(), Json::from("vb")),
            (
                "ph".to_string(),
                Json::from(match ev.phase {
                    TracePhase::Begin => "B",
                    TracePhase::End => "E",
                }),
            ),
            ("ts".to_string(), Json::Num(ev.ts_ns as f64 / 1000.0)),
            ("pid".to_string(), Json::from(1u64)),
            ("tid".to_string(), Json::from(ev.tid)),
        ];
        if ev.phase == TracePhase::Begin {
            fields.push((
                "args".to_string(),
                Json::Obj(vec![
                    ("id".to_string(), Json::from(ev.id)),
                    ("parent".to_string(), Json::from(ev.parent)),
                ]),
            ));
        }
        arr.push(Json::Obj(fields));
    }
    Json::Arr(arr).emit()
}

/// See `registry::lock_or_recover`: telemetry must survive lock
/// poisoning from unrelated panics.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    trace_epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let off = matches!(
            std::env::var("VB_TRACE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        );
        AtomicBool::new(!off)
    })
}

/// Turn trace recording on or off at runtime. Span timing aggregates
/// are unaffected; only timeline records stop.
pub fn set_trace_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// True when timeline records are being collected.
pub fn trace_enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Events a thread buffers before flushing them into the collector.
const THREAD_CAPACITY: usize = 16 * 1024;

/// Events the global collector holds before it starts dropping.
const GLOBAL_CAPACITY: usize = 1 << 20;

fn collector() -> &'static Mutex<Vec<TraceEvent>> {
    static COLLECTOR: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Number of trace events discarded because the global collector was
/// full. Zero for paper-sized runs; a non-zero value means the timeline
/// has holes (drain it with [`trace_events`] more often).
pub fn trace_drops() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static ADOPTED: Cell<u64> = const { Cell::new(0) };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUF: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| {
        let mut v = t.get();
        if v == 0 {
            static NEXT_TID: AtomicU64 = AtomicU64::new(1);
            v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

fn push(ev: TraceEvent) {
    BUF.with(|b| {
        let mut buf = b.borrow_mut();
        buf.push(ev);
        if buf.len() >= THREAD_CAPACITY {
            flush_buf(&mut buf);
        }
    });
}

fn flush_buf(buf: &mut Vec<TraceEvent>) {
    if buf.is_empty() {
        return;
    }
    let mut global = lock_or_recover(collector());
    let room = GLOBAL_CAPACITY.saturating_sub(global.len());
    if room >= buf.len() {
        global.append(buf);
    } else {
        let overflow = (buf.len() - room) as u64;
        global.extend(buf.drain(..room));
        DROPPED.fetch_add(overflow, Ordering::Relaxed);
        buf.clear();
    }
}

/// Flush this thread's private buffer into the global collector.
/// Called when the thread's outermost span closes and by
/// [`trace_events`].
pub(crate) fn flush_thread() {
    BUF.with(|b| flush_buf(&mut b.borrow_mut()));
}

/// Record a span opening. Returns the span id to hand back to
/// [`end_span`], or 0 when recording is disabled.
pub(crate) fn begin_span(name: &'static str) -> u64 {
    if !trace_enabled() {
        return 0;
    }
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| ADOPTED.with(Cell::get));
    push(TraceEvent {
        phase: TracePhase::Begin,
        id,
        parent,
        tid: tid(),
        ts_ns: now_ns(),
        name,
    });
    OPEN.with(|s| s.borrow_mut().push(id));
    id
}

/// Record a span closing. `id` 0 (recording was off at open) is a
/// no-op so Begin/End records always pair up.
pub(crate) fn end_span(id: u64, name: &'static str) {
    if id == 0 {
        return;
    }
    OPEN.with(|s| {
        let mut open = s.borrow_mut();
        // RAII guards close innermost-first; search from the top in
        // case a guard was leaked and drop everything above it.
        if let Some(pos) = open.iter().rposition(|&v| v == id) {
            open.truncate(pos);
        }
    });
    push(TraceEvent {
        phase: TracePhase::End,
        id,
        parent: 0,
        tid: tid(),
        ts_ns: now_ns(),
        name,
    });
}

/// Capture the calling thread's innermost open span as a parent link
/// for spans opened on another thread.
pub fn trace_context() -> TraceContext {
    let parent = OPEN
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| ADOPTED.with(Cell::get));
    TraceContext { parent }
}

/// Guard restoring the previously adopted context on drop.
#[must_use = "the adopted context lasts only while the guard lives"]
#[derive(Debug)]
pub struct TraceAdoptGuard {
    prev: u64,
}

/// Install `ctx` as the parent for root spans this thread opens while
/// the returned guard lives. Dropping the guard restores the previous
/// context and flushes the thread's trace buffer (worker threads
/// usually exit right after).
pub fn adopt_trace(ctx: TraceContext) -> TraceAdoptGuard {
    let prev = ADOPTED.with(|a| a.replace(ctx.parent));
    TraceAdoptGuard { prev }
}

impl Drop for TraceAdoptGuard {
    fn drop(&mut self) {
        ADOPTED.with(|a| a.set(self.prev));
        flush_thread();
    }
}

/// Drain every collected trace event (flushing the calling thread's
/// buffer first). Buffers of other threads that still have open
/// spans are not visible — drain from the thread that owns the run,
/// after its fan-outs have joined.
pub fn trace_events() -> Vec<TraceEvent> {
    flush_thread();
    std::mem::take(&mut *lock_or_recover(collector()))
}

/// Clear collected events, the calling thread's buffer, and the drop
/// counter (span ids keep incrementing so ids stay process-unique).
pub(crate) fn reset_trace() {
    BUF.with(|b| b.borrow_mut().clear());
    lock_or_recover(collector()).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; one test fn avoids cross-test races.
    #[test]
    fn spans_nest_adopt_and_export() {
        reset_trace();
        set_trace_enabled(true);

        let outer_id;
        {
            let _outer = crate::span!("trace.test_outer");
            outer_id = trace_context().parent;
            assert_ne!(outer_id, 0, "open span must be the context parent");
            {
                let _inner = crate::span!("trace.test_inner");
            }
            let ctx = trace_context();
            let handle = std::thread::spawn(move || {
                let _adopt = adopt_trace(ctx);
                let _w = crate::span!("trace.test_worker");
            });
            handle.join().expect("worker");
        }

        let events = trace_events();
        let begins: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.phase == TracePhase::Begin)
            .collect();
        let ends = events.iter().filter(|e| e.phase == TracePhase::End).count();
        assert_eq!(begins.len(), 3);
        assert_eq!(ends, 3, "every span closed");

        let by_name = |n: &str| {
            begins
                .iter()
                .find(|e| e.name == n)
                .unwrap_or_else(|| panic!("missing span {n}"))
        };
        let outer = by_name("trace.test_outer");
        let inner = by_name("trace.test_inner");
        let worker = by_name("trace.test_worker");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.id, outer_id);
        assert_eq!(inner.parent, outer.id, "nested span links to parent");
        assert_eq!(
            worker.parent, outer.id,
            "adopted context parents cross-thread spans"
        );
        assert_ne!(worker.tid, outer.tid);
        assert_eq!(trace_drops(), 0);

        // Export is a valid JSON array with B/E phases and µs timestamps.
        let json = chrome_trace_json(&events);
        let doc = crate::Json::parse(&json).expect("chrome trace parses");
        let crate::Json::Arr(items) = doc else {
            panic!("trace export must be a JSON array");
        };
        assert_eq!(items.len(), 6);
        for item in &items {
            let ph = item.get("ph").and_then(crate::Json::as_str).expect("ph");
            assert!(ph == "B" || ph == "E");
            assert!(item.get("ts").and_then(crate::Json::as_f64).is_some());
        }

        // Disabled recording emits nothing.
        set_trace_enabled(false);
        {
            let _off = crate::span!("trace.test_disabled");
        }
        assert!(trace_events().is_empty());
        set_trace_enabled(true);
        reset_trace();
    }
}
