//! Empirical cumulative distribution functions.
//!
//! Figures 2b, 4b and 7 of the paper are CDFs. Figure 4b additionally
//! "only includes non-zero overhead values", and Figure 7's discussion
//! quotes the *fraction of zero values* per policy (74 % / 81 % / 94 %),
//! so the type tracks how many samples were dropped by a zero filter.

use crate::summary::percentile_of_sorted;

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Samples in ascending order.
    sorted: Vec<f64>,
    /// Number of samples excluded by [`Cdf::of_nonzero`].
    excluded_zeros: usize,
}

impl Cdf {
    /// Build a CDF from all samples. NaN samples sort after every finite
    /// value (`total_cmp` order).
    pub fn of(values: &[f64]) -> Cdf {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Cdf {
            sorted,
            excluded_zeros: 0,
        }
    }

    /// Build a CDF of the strictly positive samples only, remembering how
    /// many zero (or negative) samples were excluded — the Figure 4b/7
    /// convention.
    pub fn of_nonzero(values: &[f64]) -> Cdf {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let excluded_zeros = values.len() - sorted.len();
        Cdf {
            sorted,
            excluded_zeros,
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Samples excluded by the non-zero filter.
    pub fn excluded_zeros(&self) -> usize {
        self.excluded_zeros
    }

    /// Fraction of the *original* sample that was zero/negative
    /// (the "94 % zero values in MIP" statistic of §3.1).
    pub fn zero_fraction(&self) -> f64 {
        let total = self.sorted.len() + self.excluded_zeros;
        if total == 0 {
            0.0
        } else {
            self.excluded_zeros as f64 / total as f64
        }
    }

    /// `P(X <= x)` over the retained samples.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Quantile `q` in `[0, 1]` of the retained samples; 0.0 when none
    /// were retained, as [`Cdf::eval`] does.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// The retained samples in ascending order.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// `(x, P(X <= x))` plot points, decimated to at most `max_points`
    /// evenly spaced quantiles — enough to redraw the paper's figures.
    pub fn points(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len().min(max_points);
        (0..n)
            .map(|i| {
                let idx = if n == 1 {
                    self.sorted.len() - 1
                } else {
                    i * (self.sorted.len() - 1) / (n - 1)
                };
                (
                    self.sorted[idx],
                    (idx + 1) as f64 / self.sorted.len() as f64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_counts_fraction_at_or_below() {
        let c = Cdf::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(99.0), 1.0);
    }

    #[test]
    fn eval_of_empty_is_zero() {
        assert_eq!(Cdf::of(&[]).eval(1.0), 0.0);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(Cdf::of_nonzero(&[0.0; 5]).quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_is_inverse_of_eval_on_grid() {
        let c = Cdf::of(&[10.0, 20.0, 30.0]);
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(0.5), 20.0);
        assert_eq!(c.quantile(1.0), 30.0);
    }

    #[test]
    fn nonzero_filter_tracks_exclusions() {
        let c = Cdf::of_nonzero(&[0.0, 0.0, 5.0, 0.0, 7.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.excluded_zeros(), 3);
        assert!((c.zero_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_fraction_of_empty_input_is_zero() {
        assert_eq!(Cdf::of_nonzero(&[]).zero_fraction(), 0.0);
    }

    #[test]
    fn points_are_monotonic() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let pts = Cdf::of(&vals).points(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn points_handles_tiny_inputs() {
        assert!(Cdf::of(&[]).points(5).is_empty());
        let single = Cdf::of(&[3.0]).points(5);
        assert_eq!(single, vec![(3.0, 1.0)]);
    }
}
