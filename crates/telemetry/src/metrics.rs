//! Atomic metric primitives and the per-call-site caching cells the
//! `counter!` / `gauge!` / `histogram!` macros expand to.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default histogram bucket upper bounds: decades from 1e-9 to 1e9,
/// suitable for both sub-microsecond durations (seconds) and large
/// magnitudes (GB, node counts).
pub(crate) const DEFAULT_BOUNDS: [f64; 19] = [
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
    1e8, 1e9,
];

/// Monotonic `u64` counter. Increments saturate instead of wrapping.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An `f64` total that does not depend on the order of its terms, so
/// workers adding concurrently leave the same value at any thread count.
/// Each term is rounded to a multiple of 2^-64 and added to a 128-bit
/// two's-complement fixed-point total held in two words; integer
/// additions commute exactly, and the carry out of the low word reaches
/// the high word whatever the interleaving. Terms below 2^-64 in
/// magnitude round away; a total must stay below 2^63 in magnitude.
#[derive(Debug, Default)]
struct FixedSum {
    lo: AtomicU64,
    hi: AtomicU64,
}

/// 2^64: one unit of [`FixedSum`]'s high word.
const FIXED_ONE: f64 = 18_446_744_073_709_551_616.0;

impl FixedSum {
    #[inline]
    fn add(&self, v: f64) {
        // Saturating cast; NaN adds nothing.
        let bits = (v * FIXED_ONE).round() as i128 as u128;
        let lo = bits as u64;
        let prev = self.lo.fetch_add(lo, Ordering::Relaxed);
        let carry = prev.overflowing_add(lo).1 as u64;
        self.hi
            .fetch_add(((bits >> 64) as u64).wrapping_add(carry), Ordering::Relaxed);
    }

    fn get(&self) -> f64 {
        let hi = self.hi.load(Ordering::Relaxed) as u128;
        let lo = self.lo.load(Ordering::Relaxed) as u128;
        ((hi << 64 | lo) as i128) as f64 / FIXED_ONE
    }

    fn reset(&self) {
        self.lo.store(0, Ordering::Relaxed);
        self.hi.store(0, Ordering::Relaxed);
    }
}

/// Monotonic `f64` accumulator whose total does not depend on the order
/// of the additions: it sums in 128-bit fixed point, exact to 2^-64.
#[derive(Debug, Default)]
pub struct FloatCounter {
    sum: FixedSum,
}

impl FloatCounter {
    pub(crate) fn new() -> FloatCounter {
        FloatCounter::default()
    }

    /// Add `v` (typically non-negative; no sign restriction enforced).
    #[inline]
    pub fn add(&self, v: f64) {
        self.sum.add(v);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.sum.get()
    }

    pub(crate) fn reset(&self) {
        self.sum.reset();
    }
}

/// Last-value gauge (bits stored in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Fixed-bucket histogram: `counts[i]` records observations `<=
/// bounds[i]` (and greater than the previous bound); one extra overflow
/// bucket catches the rest. Also tracks count / sum / min / max of the
/// raw observations with atomic fast paths; like every statistic here,
/// the sum does not depend on the order of the observations.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: FixedSum,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    pub(crate) fn with_bounds(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: FixedSum::default(),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        update_f64(&self.min_bits, |m| m.min(v));
        update_f64(&self.max_bits, |m| m.max(v));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freeze into plain data (non-finite min/max of an empty histogram
    /// are normalized to 0 so snapshots always serialize).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.get(),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
        }
    }

    pub(crate) fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.reset();
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

fn update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

macro_rules! metric_cell {
    ($cell:ident, $metric:ident, $register:ident) => {
        /// Per-call-site cache: resolves the named metric against the
        /// global registry once, then hands out the same `&'static` handle.
        pub struct $cell(OnceLock<Arc<$metric>>);

        impl Default for $cell {
            fn default() -> $cell {
                $cell::new()
            }
        }

        impl $cell {
            pub const fn new() -> $cell {
                $cell(OnceLock::new())
            }

            pub fn get(&'static self, name: &'static str) -> &'static $metric {
                self.0
                    .get_or_init(|| crate::registry::global().$register(name))
            }
        }
    };
}

metric_cell!(CounterCell, Counter, counter);
metric_cell!(FloatCounterCell, FloatCounter, float_counter);
metric_cell!(GaugeCell, Gauge, gauge);

/// Per-call-site cache for histograms; carries optional custom bounds.
pub struct HistogramCell(OnceLock<Arc<Histogram>>);

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell::new()
    }
}

impl HistogramCell {
    pub const fn new() -> HistogramCell {
        HistogramCell(OnceLock::new())
    }

    pub fn get(
        &'static self,
        name: &'static str,
        bounds: Option<&'static [f64]>,
    ) -> &'static Histogram {
        self.0
            .get_or_init(|| crate::registry::global().histogram(name, bounds))
    }
}
