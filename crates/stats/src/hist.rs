//! Histograms, including the log-spaced variant used for migration-burst
//! distributions (Fig 4b/7 span 10¹–10⁵ GB, so linear bins are useless).

/// A fixed-bin histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin edges, ascending; bin `i` covers `[edges[i], edges[i+1])`.
    edges: Vec<f64>,
    counts: Vec<u64>,
    /// Samples below the first edge.
    underflow: u64,
    /// Samples at or above the last edge.
    overflow: u64,
}

impl Histogram {
    /// Linear bins covering `[lo, hi)` in `n` equal steps.
    ///
    /// # Panics
    /// Panics if `n == 0` or `lo >= hi`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(n > 0, "need at least one bin");
        assert!(lo < hi, "lo must be below hi");
        let step = (hi - lo) / n as f64;
        let edges = (0..=n).map(|i| lo + step * i as f64).collect();
        Histogram::from_edges(edges)
    }

    /// Log-spaced bins covering `[lo, hi)` with `n` bins per decade
    /// resolution (edges at equal ratios).
    ///
    /// # Panics
    /// Panics if `lo <= 0`, `lo >= hi`, or `n == 0`.
    pub fn log(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(lo > 0.0, "log bins need a positive lower edge");
        assert!(lo < hi, "lo must be below hi");
        assert!(n > 0, "need at least one bin");
        let ratio = (hi / lo).powf(1.0 / n as f64);
        let edges = (0..=n).map(|i| lo * ratio.powi(i as i32)).collect();
        Histogram::from_edges(edges)
    }

    fn from_edges(edges: Vec<f64>) -> Histogram {
        let bins = edges.len() - 1;
        Histogram {
            edges,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if v < self.edges[0] {
            self.underflow += 1;
            return;
        }
        if v >= *self.edges.last().expect("edges non-empty") {
            self.overflow += 1;
            return;
        }
        // Binary search for the containing bin.
        let i = self.edges.partition_point(|&e| e <= v) - 1;
        self.counts[i] += 1;
    }

    /// Record many samples.
    pub fn record_all(&mut self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Total recorded samples (including under/overflow).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples that fell below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at/above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(bin_lo, bin_hi, count)` rows.
    pub fn rows(&self) -> Vec<(f64, f64, u64)> {
        self.edges
            .windows(2)
            .zip(&self.counts)
            .map(|(e, &c)| (e[0], e[1], c))
            .collect()
    }

    /// The mode bin's `(lo, hi)` range, or `None` when empty.
    pub fn mode_bin(&self) -> Option<(f64, f64)> {
        let (i, &c) = self.counts.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        (c > 0).then(|| (self.edges[i], self.edges[i + 1]))
    }
}

/// Lag-`k` autocorrelation of a series (Pearson correlation between the
/// series and itself shifted by `k`). Returns 0 for degenerate inputs.
pub fn autocorrelation(values: &[f64], lag: usize) -> f64 {
    if lag == 0 {
        return 1.0;
    }
    if values.len() <= lag + 1 {
        return 0.0;
    }
    let a = &values[..values.len() - lag];
    let b = &values[lag..];
    let ma = crate::summary::mean(a);
    let mb = crate::summary::mean(b);
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let da: f64 = a.iter().map(|x| (x - ma).powi(2)).sum::<f64>().sqrt();
    let db: f64 = b.iter().map(|y| (y - mb).powi(2)).sum::<f64>().sqrt();
    if da < 1e-12 || db < 1e-12 {
        0.0
    } else {
        num / (da * db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bins_partition_the_range() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        h.record_all(&[0.0, 1.9, 2.0, 9.9, 10.0, -1.0]);
        assert_eq!(h.bins(), 5);
        let rows = h.rows();
        assert_eq!(rows[0].2, 2, "0.0 and 1.9");
        assert_eq!(rows[1].2, 1, "2.0");
        assert_eq!(rows[4].2, 1, "9.9");
        assert_eq!(h.overflow(), 1, "10.0 is outside [0,10)");
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn log_bins_have_equal_ratios() {
        let h = Histogram::log(1.0, 10_000.0, 4);
        let rows = h.rows();
        for (lo, hi, _) in rows {
            assert!((hi / lo - 10.0).abs() < 1e-9, "decade bins");
        }
    }

    #[test]
    fn log_histogram_spreads_bursty_data() {
        let mut h = Histogram::log(1.0, 100_000.0, 10);
        let data: Vec<f64> = (0..100).map(|i| 10f64.powf(i as f64 / 20.0)).collect();
        h.record_all(&data);
        assert_eq!(h.total(), 100);
        let nonempty = h.rows().iter().filter(|r| r.2 > 0).count();
        assert!(nonempty >= 9, "log data covers log bins");
    }

    #[test]
    fn mode_bin_finds_the_peak() {
        let mut h = Histogram::linear(0.0, 3.0, 3);
        h.record_all(&[0.5, 1.5, 1.6, 1.7, 2.5]);
        assert_eq!(h.mode_bin(), Some((1.0, 2.0)));
        assert_eq!(Histogram::linear(0.0, 1.0, 2).mode_bin(), None);
    }

    #[test]
    #[should_panic(expected = "log bins need a positive lower edge")]
    fn log_rejects_zero_lower_edge() {
        Histogram::log(0.0, 10.0, 2);
    }

    #[test]
    fn autocorrelation_of_known_signals() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 0), 1.0);
        // Alternating signal: lag-1 autocorr = -1.
        let alt = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!((autocorrelation(&alt, 1) + 1.0).abs() < 1e-9);
        assert!((autocorrelation(&alt, 2) - 1.0).abs() < 1e-9);
        // Constant signal: undefined -> 0.
        assert_eq!(autocorrelation(&[3.0; 10], 1), 0.0);
        // Too short -> 0.
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
    }
}
