//! Process-global metric registry and the structured event stream.

use crate::metrics::{Counter, FloatCounter, Histogram, DEFAULT_BOUNDS};
use crate::report::{Event, Json};
use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Lock a telemetry mutex, recovering from poisoning. Telemetry must stay
/// usable during unwinding: if a panic elsewhere poisoned a lock, a later
/// `.unwrap()` here would turn the first panic into a double panic and
/// abort the process. The guarded data (metric maps, event vectors,
/// series rows, the trace collector) has no invariants a half-completed
/// update can break, so taking the inner guard is always safe.
pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Registry of named metrics. Lookups take a lock; updates through the
/// returned handles are lock-free, so the lock is only contended when a
/// call site first resolves its metric.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    float_counters: Mutex<BTreeMap<&'static str, Arc<FloatCounter>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    events: Mutex<Vec<Event>>,
}

impl Registry {
    /// Get or create the named counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = lock_or_recover(&self.counters);
        Arc::clone(map.entry(name).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// Get or create the named float counter.
    pub fn float_counter(&self, name: &'static str) -> Arc<FloatCounter> {
        let mut map = lock_or_recover(&self.float_counters);
        Arc::clone(
            map.entry(name)
                .or_insert_with(|| Arc::new(FloatCounter::new())),
        )
    }

    /// Get or create the named histogram. `bounds` applies only on first
    /// creation; later callers share the existing buckets.
    pub fn histogram(&self, name: &'static str, bounds: Option<&[f64]>) -> Arc<Histogram> {
        let mut map = lock_or_recover(&self.histograms);
        Arc::clone(
            map.entry(name).or_insert_with(|| {
                Arc::new(Histogram::with_bounds(bounds.unwrap_or(&DEFAULT_BOUNDS)))
            }),
        )
    }

    /// Append a structured event to the run's stream.
    pub fn event(&self, kind: &str, fields: &[(&str, Json)]) {
        let mut events = lock_or_recover(&self.events);
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Copy of the event stream so far.
    pub fn events(&self) -> Vec<Event> {
        lock_or_recover(&self.events).clone()
    }

    /// Freeze every metric into plain data, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock_or_recover(&self.counters)
                .iter()
                .map(|(&n, c)| (n.to_string(), c.get()))
                .collect(),
            float_counters: lock_or_recover(&self.float_counters)
                .iter()
                .map(|(&n, c)| (n.to_string(), c.get()))
                .collect(),
            histograms: lock_or_recover(&self.histograms)
                .iter()
                .map(|(&n, h)| (n.to_string(), h.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric in place and clear the events.
    /// Registrations survive, so handles cached at call sites stay
    /// valid — this is how benches separate back-to-back runs.
    pub fn reset(&self) {
        for c in lock_or_recover(&self.counters).values() {
            c.reset();
        }
        for c in lock_or_recover(&self.float_counters).values() {
            c.reset();
        }
        for h in lock_or_recover(&self.histograms).values() {
            h.reset();
        }
        lock_or_recover(&self.events).clear();
    }
}

/// The process-global registry every macro records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Record a structured event in the global run stream.
pub fn event(kind: &str, fields: &[(&str, Json)]) {
    global().event(kind, fields);
}

/// Copy of the global event stream so far.
pub fn events() -> Vec<Event> {
    global().events()
}

/// Reset the global registry, recorded series, and trace timeline
/// (between runs — see [`Registry::reset`]).
pub fn reset() {
    global().reset();
    crate::series::reset_series();
    crate::trace::reset_trace();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_recover_instead_of_double_panicking() {
        let reg = Registry::default();
        reg.counter("poison.test").inc();
        // Poison the counters mutex by panicking while holding the lock.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = reg.counters.lock().unwrap();
            panic!("deliberate poison");
        }));
        assert!(reg.counters.is_poisoned());
        // Every telemetry path must keep working afterwards.
        reg.counter("poison.test").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("poison.test"), Some(2));
        reg.event("after.poison", &[]);
        assert_eq!(reg.events().len(), 1);
        reg.reset();
        assert_eq!(reg.snapshot().counter("poison.test"), Some(0));
    }
}
