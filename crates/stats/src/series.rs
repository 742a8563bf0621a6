//! Fixed-interval time series.
//!
//! Power traces (§2.2), forecasts (Fig 5) and migration-traffic signals
//! (Fig 4) are all sampled at a fixed interval — 15 minutes in the ELIA
//! dataset the paper uses. [`TimeSeries`] stores such a signal as a start
//! offset, an interval, and a dense `Vec<f64>`, and provides the windowed
//! and element-wise operations the evaluation needs.

/// Seconds in one hour; used when converting power (MW) to energy (MWh).
pub const SECS_PER_HOUR: u64 = 3_600;

/// A signal sampled at a fixed interval.
///
/// Sample `i` covers the half-open wall-clock span
/// `[start_secs + i*interval_secs, start_secs + (i+1)*interval_secs)`.
/// For power traces the value is the average power (MW, or normalized to
/// peak capacity) over that span, which makes energy integration exact:
/// `energy = value * interval`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Offset of sample 0 from the trace epoch, in seconds.
    pub start_secs: u64,
    /// Sampling interval in seconds (e.g. 900 for 15-minute data).
    pub interval_secs: u64,
    /// The samples.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Create a series starting at the epoch.
    ///
    /// # Panics
    /// Panics if `interval_secs` is zero.
    pub fn new(interval_secs: u64, values: Vec<f64>) -> Self {
        Self::with_start(0, interval_secs, values)
    }

    /// Create a series with an explicit start offset.
    ///
    /// # Panics
    /// Panics if `interval_secs` is zero.
    pub fn with_start(start_secs: u64, interval_secs: u64, values: Vec<f64>) -> Self {
        assert!(interval_secs > 0, "interval must be positive");
        Self {
            start_secs,
            interval_secs,
            values,
        }
    }

    /// A series of `n` zeros.
    pub fn zeros(interval_secs: u64, n: usize) -> Self {
        Self::new(interval_secs, vec![0.0; n])
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Wall-clock start (seconds) of sample `i`.
    pub fn time_of(&self, i: usize) -> u64 {
        self.start_secs + i as u64 * self.interval_secs
    }

    /// Sub-series covering samples `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len`.
    pub fn slice(&self, lo: usize, hi: usize) -> TimeSeries {
        TimeSeries {
            start_secs: self.time_of(lo),
            interval_secs: self.interval_secs,
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Element-wise sum of two aligned series.
    ///
    /// # Panics
    /// Panics if the intervals differ or the lengths differ.
    pub fn add(&self, other: &TimeSeries) -> TimeSeries {
        assert_eq!(self.interval_secs, other.interval_secs, "interval mismatch");
        assert_eq!(self.len(), other.len(), "length mismatch");
        TimeSeries {
            start_secs: self.start_secs,
            interval_secs: self.interval_secs,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Multiply every sample by `k` (e.g. normalized power → MW).
    pub fn scale(&self, k: f64) -> TimeSeries {
        self.map(|v| v * k)
    }

    /// Apply `f` to every sample.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries {
            start_secs: self.start_secs,
            interval_secs: self.interval_secs,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum all samples of several aligned series.
    ///
    /// # Panics
    /// Panics if `series` is empty or the series are misaligned.
    pub fn sum_of(series: &[&TimeSeries]) -> TimeSeries {
        assert!(!series.is_empty(), "need at least one series");
        let mut acc = series[0].clone();
        for s in &series[1..] {
            acc = acc.add(s);
        }
        acc
    }

    /// Minimum sample value; `None` for an empty series.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum sample value; `None` for an empty series.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Integrate power over time: `sum(value_i) * interval` in
    /// value-hours (MWh when samples are MW).
    pub fn energy(&self) -> f64 {
        // vb-audit: allow(div-guard, SECS_PER_HOUR is a nonzero constant)
        let hours = self.interval_secs as f64 / SECS_PER_HOUR as f64;
        self.values.iter().sum::<f64>() * hours
    }

    /// Downsample by averaging consecutive groups of `factor` samples.
    /// A trailing partial group is averaged over its actual size.
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn downsample(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "factor must be positive");
        let values = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        TimeSeries {
            start_secs: self.start_secs,
            interval_secs: self.interval_secs * factor as u64,
            values,
        }
    }

    /// Upsample by repeating each sample `factor` times (zero-order hold).
    ///
    /// # Panics
    /// Panics if `factor` is zero or does not divide the interval.
    pub fn upsample(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "factor must be positive");
        assert_eq!(
            self.interval_secs % factor as u64,
            0,
            "factor must divide the interval"
        );
        let mut values = Vec::with_capacity(self.len() * factor);
        for &v in &self.values {
            values.extend(std::iter::repeat_n(v, factor));
        }
        TimeSeries {
            start_secs: self.start_secs,
            interval_secs: self.interval_secs / factor as u64,
            values,
        }
    }

    /// Minimum over each non-overlapping window of `window` samples.
    ///
    /// This is the primitive behind the paper's stable-energy definition
    /// (§2.3): within a window, `window_min * window_duration` of energy
    /// is guaranteed. A trailing partial window produces its own minimum;
    /// note the returned series' fixed interval over-weights such a
    /// partial window in [`TimeSeries::energy`] — energy-accurate
    /// decomposition lives in `vb_core::energy::decompose`, which weights
    /// chunks by their true lengths.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn window_min(&self, window: usize) -> TimeSeries {
        assert!(window > 0, "window must be positive");
        let values = self
            .values
            .chunks(window)
            .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        TimeSeries {
            start_secs: self.start_secs,
            interval_secs: self.interval_secs * window as u64,
            values,
        }
    }

    /// Per-sample deltas: `values[i] - values[i-1]`, length `len - 1`.
    pub fn diff(&self) -> Vec<f64> {
        self.values.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Clamp every sample into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> TimeSeries {
        self.map(|v| v.clamp(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(900, vals.to_vec())
    }

    #[test]
    fn time_of_uses_start_and_interval() {
        let s = TimeSeries::with_start(100, 900, vec![0.0; 4]);
        assert_eq!(s.time_of(0), 100);
        assert_eq!(s.time_of(3), 100 + 3 * 900);
    }

    #[test]
    fn add_and_scale_are_elementwise() {
        let a = ts(&[1.0, 2.0, 3.0]);
        let b = ts(&[10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).values, vec![11.0, 22.0, 33.0]);
        assert_eq!(a.scale(2.0).values, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_rejects_mismatched_lengths() {
        ts(&[1.0]).add(&ts(&[1.0, 2.0]));
    }

    #[test]
    fn energy_integrates_power() {
        // 4 samples of 15 min at 100 MW = 1 hour at 100 MW = 100 MWh.
        let s = ts(&[100.0, 100.0, 100.0, 100.0]);
        assert!((s.energy() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn downsample_averages_groups() {
        let s = ts(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        let d = s.downsample(2);
        assert_eq!(d.values, vec![2.0, 6.0, 9.0]);
        assert_eq!(d.interval_secs, 1_800);
    }

    #[test]
    fn upsample_repeats_samples() {
        let s = ts(&[1.0, 2.0]);
        let u = s.upsample(3);
        assert_eq!(u.values, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(u.interval_secs, 300);
    }

    #[test]
    fn downsample_then_energy_is_preserved_for_full_groups() {
        let s = ts(&[2.0, 4.0, 6.0, 8.0]);
        assert!((s.energy() - s.downsample(2).energy()).abs() < 1e-9);
    }

    #[test]
    fn window_min_takes_chunk_minima() {
        let s = ts(&[5.0, 1.0, 4.0, 2.0, 9.0]);
        let m = s.window_min(2);
        assert_eq!(m.values, vec![1.0, 2.0, 9.0]);
        assert_eq!(m.interval_secs, 1_800);
    }

    #[test]
    fn window_min_energy_never_exceeds_total_energy() {
        let s = ts(&[5.0, 1.0, 4.0, 2.0]);
        assert!(s.window_min(2).energy() <= s.energy() + 1e-12);
    }

    #[test]
    fn slice_retains_wall_clock_alignment() {
        let s = TimeSeries::with_start(0, 900, vec![0.0, 1.0, 2.0, 3.0]);
        let w = s.slice(2, 4);
        assert_eq!(w.start_secs, 1_800);
        assert_eq!(w.values, vec![2.0, 3.0]);
    }

    #[test]
    fn diff_produces_len_minus_one_deltas() {
        let s = ts(&[1.0, 4.0, 2.0]);
        assert_eq!(s.diff(), vec![3.0, -2.0]);
        assert!(ts(&[1.0]).diff().is_empty());
    }

    #[test]
    fn sum_of_accumulates_all_series() {
        let a = ts(&[1.0, 1.0]);
        let b = ts(&[2.0, 2.0]);
        let c = ts(&[3.0, 3.0]);
        assert_eq!(TimeSeries::sum_of(&[&a, &b, &c]).values, vec![6.0, 6.0]);
    }

    #[test]
    fn min_max_and_clamp() {
        let s = ts(&[-1.0, 0.5, 2.0]);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(2.0));
        assert_eq!(s.clamp(0.0, 1.0).values, vec![0.0, 0.5, 1.0]);
        assert_eq!(TimeSeries::new(1, vec![]).min(), None);
    }
}
