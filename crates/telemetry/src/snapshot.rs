//! Plain-data snapshot types shared by the live registry and the
//! run-report serializer.

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub float_counters: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    pub spans: Vec<(String, SpanStat)>,
}

impl Snapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a float counter by name.
    pub fn float_counter(&self, name: &str) -> Option<f64> {
        self.float_counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Look up span timing stats by name.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Frozen histogram state: `counts[i]` observations fell in
/// `(bounds[i-1], bounds[i]]`, with a final overflow bucket, plus running
/// count / sum / min / max of the raw observations.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean of the raw observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregated timings for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl SpanStat {
    /// Merge another aggregate into this one.
    pub fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Record a single duration.
    pub fn record_ns(&mut self, ns: u64) {
        self.merge(&SpanStat {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        });
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}
