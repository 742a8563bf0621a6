//! Property tests for the statistics kernel.

use proptest::prelude::*;
use vb_stats::{
    coefficient_of_variation, mae, mape, mean, percentile, rmse, std_dev, Cdf, Summary, TimeSeries,
};

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e3..1e3f64, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mean_is_translation_equivariant(v in samples(), shift in -100.0..100.0f64) {
        let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - (mean(&v) + shift)).abs() < 1e-6);
    }

    #[test]
    fn std_is_translation_invariant_and_scale_equivariant(
        v in samples(),
        shift in -100.0..100.0f64,
        k in 0.0..10.0f64,
    ) {
        let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        prop_assert!((std_dev(&shifted) - std_dev(&v)).abs() < 1e-6);
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        prop_assert!((std_dev(&scaled) - std_dev(&v) * k).abs() < 1e-5);
    }

    #[test]
    fn cov_is_scale_invariant_for_positive_data(
        v in proptest::collection::vec(0.1..1e3f64, 2..200),
        k in 0.1..50.0f64,
    ) {
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        let a = coefficient_of_variation(&v);
        let b = coefficient_of_variation(&scaled);
        prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn percentiles_are_monotone_in_p(v in samples()) {
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let x = percentile(&v, p);
            prop_assert!(x >= prev - 1e-9);
            prev = x;
        }
    }

    #[test]
    fn percentile_brackets_match_min_max(v in samples()) {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((percentile(&v, 0.0) - lo).abs() < 1e-12);
        prop_assert!((percentile(&v, 100.0) - hi).abs() < 1e-12);
    }

    #[test]
    fn summary_total_is_the_sum(v in samples()) {
        let s = Summary::of(&v);
        let total: f64 = v.iter().sum();
        prop_assert!((s.total - total).abs() < 1e-6 * (1.0 + total.abs()));
        prop_assert_eq!(s.count, v.len());
    }

    #[test]
    fn cdf_eval_is_monotone_nondecreasing(v in samples(), probes in proptest::collection::vec(-1e3..1e3f64, 2..20)) {
        let cdf = Cdf::of(&v);
        let mut sorted_probes = probes;
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in sorted_probes {
            let p = cdf.eval(x);
            prop_assert!(p >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn nonzero_cdf_partitions_the_sample(v in proptest::collection::vec(-10.0..10.0f64, 0..200)) {
        let cdf = Cdf::of_nonzero(&v);
        let positives = v.iter().filter(|&&x| x > 0.0).count();
        prop_assert_eq!(cdf.len(), positives);
        prop_assert_eq!(cdf.len() + cdf.excluded_zeros(), v.len());
    }

    #[test]
    fn error_metrics_are_nonnegative_and_zero_on_self(v in samples()) {
        prop_assert_eq!(mape(&v, &v), 0.0);
        prop_assert_eq!(mae(&v, &v), 0.0);
        prop_assert_eq!(rmse(&v, &v), 0.0);
        let noisy: Vec<f64> = v.iter().map(|x| x + 1.0).collect();
        prop_assert!(mae(&v, &noisy) >= 0.0);
        prop_assert!(rmse(&v, &noisy) >= mae(&v, &noisy) - 1e-9);
    }

    #[test]
    fn series_add_commutes(a in samples(), _k in 0..1) {
        let ts_a = TimeSeries::new(900, a.clone());
        let b: Vec<f64> = a.iter().map(|x| x * 2.0 + 1.0).collect();
        let ts_b = TimeSeries::new(900, b);
        let ab = ts_a.add(&ts_b);
        let ba = ts_b.add(&ts_a);
        prop_assert_eq!(ab.values, ba.values);
    }

    #[test]
    fn slice_concatenation_reconstructs(v in proptest::collection::vec(-5.0..5.0f64, 2..100), cut_at in 1usize..99) {
        let ts = TimeSeries::new(900, v.clone());
        let cut = cut_at.min(ts.len() - 1).max(1);
        let left = ts.slice(0, cut);
        let right = ts.slice(cut, ts.len());
        let mut rebuilt = left.values.clone();
        rebuilt.extend(&right.values);
        prop_assert_eq!(rebuilt, v);
        prop_assert_eq!(right.start_secs, cut as u64 * 900);
    }
}
