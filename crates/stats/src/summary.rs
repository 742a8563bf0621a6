//! Scalar summaries: mean, standard deviation, percentiles and the
//! coefficient of variation the paper uses to rank site combinations.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Coefficient of variation, `std / mean` — the §2.3 comparison metric.
///
/// Returns `f64::INFINITY` when the mean is zero but the data varies, and
/// 0 for constant-zero data, so that "no energy at all" is not mistaken
/// for "perfectly stable energy".
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let m = mean(values);
    let s = std_dev(values);
    if m.abs() < f64::EPSILON {
        if s.abs() < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        s / m
    }
}

/// Percentile `p` in `[0, 100]` with linear interpolation between order
/// statistics (the same convention as numpy's default). NaN samples sort
/// after every finite value (`total_cmp` order), so they only influence
/// the top percentiles instead of aborting the run. An empty slice gives
/// 0.0, as [`Summary::of`] does.
///
/// # Panics
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_of_sorted(&sorted, p)
}

/// Percentile on an already-sorted slice (ascending order); 0.0 for an
/// empty slice.
///
/// # Panics
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One-shot descriptive summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Coefficient of variation (std / mean).
    pub cov: f64,
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples.
    pub total: f64,
}

impl Summary {
    /// Summarise a slice of samples. An empty slice gives the zero
    /// summary: `count` 0 and every statistic 0.0.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return Summary::default();
        };
        Summary {
            count: values.len(),
            mean: mean(values),
            std: std_dev(values),
            cov: coefficient_of_variation(values),
            min,
            p25: percentile_of_sorted(&sorted, 25.0),
            p50: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max,
            total: values.iter().sum(),
        }
    }

    /// Tail-to-upper-quartile ratio (p99 / p75), the "high tail" metric of
    /// §2.2 ("99th divided by 75th percentile ratios of 4× for solar").
    /// Returns `f64::INFINITY` when p75 is zero but p99 is not.
    pub fn tail_ratio(&self) -> f64 {
        ratio(self.p99, self.p75)
    }

    /// Tail-to-median ratio (p99 / p50), used in §3's migration analysis.
    pub fn p99_over_p50(&self) -> f64 {
        ratio(self.p99, self.p50)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den.abs() < f64::EPSILON {
        if num.abs() < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_sample() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
    }

    #[test]
    fn cov_is_std_over_mean() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&v) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cov_of_constant_zero_is_zero_not_nan() {
        assert_eq!(coefficient_of_variation(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn cov_of_zero_mean_variation_is_infinite() {
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]), f64::INFINITY);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
        // rank = 0.25 * 3 = 0.75 -> 10 + 0.75*10 = 17.5
        assert!((percentile(&v, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 50.0), 25.0);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile_of_sorted(&[], 99.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn nan_adjacent_readouts_sort_last_not_panic() {
        // Regression for the total_cmp sweep: a NaN readout must not
        // abort summarisation, and must land *after* every finite value
        // (total_cmp order), pinning min/median to the finite samples.
        let v = [3.0, f64::NAN, 1.0, 2.0];
        let s = Summary::of(&v);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 2.5);
        assert!(s.max.is_nan(), "NaN sorts greatest");
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Negative NaN sorts *before* -inf in total_cmp order.
        let neg_nan = -f64::NAN;
        let s = Summary::of(&[0.0, neg_nan, f64::NEG_INFINITY]);
        assert!(s.min.is_nan());
        assert_eq!(s.p50, f64::NEG_INFINITY);
    }

    #[test]
    fn summary_matches_direct_computations() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        let s = Summary::of(&v);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.total, 110.0);
        assert!((s.mean - 22.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(
            s,
            Summary {
                count: 0,
                mean: 0.0,
                std: 0.0,
                cov: 0.0,
                min: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
                p99: 0.0,
                max: 0.0,
                total: 0.0,
            }
        );
        assert_eq!(s.tail_ratio(), 0.0);
        assert_eq!(s.p99_over_p50(), 0.0);
    }

    #[test]
    fn tail_ratios_handle_zero_denominators() {
        let zeros = Summary::of(&[0.0, 0.0, 0.0]);
        assert_eq!(zeros.tail_ratio(), 0.0);
        let spike = Summary::of(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0]);
        assert_eq!(spike.p99_over_p50(), f64::INFINITY);
    }
}
