//! Forecast-error metrics.
//!
//! Figure 5 of the paper quantifies ELIA's power forecasts with the mean
//! absolute percentage error (MAPE): 8.5–9 % for 3-hour-ahead, 18–25 % for
//! day-ahead and 44 %/75 % (solar/wind) for week-ahead horizons. The
//! forecast simulator in `vb-trace` is calibrated against [`mape`], and
//! [`mae`]/[`rmse`] are provided for completeness.

/// Mean absolute percentage error, in percent.
///
/// Samples where the actual value is (near) zero are skipped, the usual
/// convention for renewable forecasts — night-time solar would otherwise
/// make MAPE undefined. Returns 0 when no sample is usable.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mape(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&a, &f) in actual.iter().zip(forecast) {
        if a.abs() > 1e-9 {
            sum += ((a - f) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// Mean absolute error.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mae(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    assert!(!actual.is_empty(), "mae of empty slices");
    actual
        .iter()
        .zip(forecast)
        .map(|(a, f)| (a - f).abs())
        .sum::<f64>()
        / actual.len() as f64
}

/// Root mean squared error.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn rmse(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    assert!(!actual.is_empty(), "rmse of empty slices");
    let mse = actual
        .iter()
        .zip(forecast)
        .map(|(a, f)| (a - f).powi(2))
        .sum::<f64>()
        / actual.len() as f64;
    mse.sqrt()
}

/// MAPE restricted to samples whose actual value is at least
/// `min_actual`.
///
/// Renewable-forecast accuracy is conventionally reported over periods
/// of meaningful production: with normalized power, a dawn sample of
/// 0.5 % of capacity mis-forecast by one percentage point would count as
/// a 200 % error and dominate the average. ELIA's published accuracy
/// (which Figure 5 of the paper quotes) filters such samples; we use
/// `min_actual = 0.02` (2 % of capacity) throughout the reproduction.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mape_above(actual: &[f64], forecast: &[f64], min_actual: f64) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&a, &f) in actual.iter().zip(forecast) {
        if a >= min_actual && a.abs() > 1e-9 {
            sum += ((a - f) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_forecast_has_zero_error() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mape(&a, &a), 0.0);
        assert_eq!(mae(&a, &a), 0.0);
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn mape_of_known_errors() {
        // errors of 10% and 20% -> MAPE 15%.
        let a = [100.0, 100.0];
        let f = [110.0, 80.0];
        assert!((mape(&a, &f) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        // The zero-actual sample (with a wild forecast) must not blow up
        // the metric.
        let a = [0.0, 100.0];
        let f = [50.0, 90.0];
        assert!((mape(&a, &f) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_of_all_zero_actuals_is_zero() {
        assert_eq!(mape(&[0.0, 0.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    fn mape_above_filters_small_actuals() {
        let a = [0.01, 0.5];
        let f = [0.05, 0.55];
        // Unfiltered: (400% + 10%) / 2 = 205%. Filtered: 10%.
        assert!((mape(&a, &f) - 205.0).abs() < 1e-9);
        assert!((mape_above(&a, &f, 0.02) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mape_above_with_no_qualifying_samples_is_zero() {
        assert_eq!(mape_above(&[0.001], &[0.5], 0.02), 0.0);
    }

    #[test]
    fn mae_and_rmse_of_known_errors() {
        let a = [0.0, 0.0];
        let f = [3.0, -4.0];
        assert!((mae(&a, &f) - 3.5).abs() < 1e-12);
        assert!((rmse(&a, &f) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_upper_bounds_mae() {
        let a = [1.0, 5.0, 9.0, 2.0];
        let f = [2.0, 3.0, 10.0, 0.0];
        assert!(rmse(&a, &f) >= mae(&a, &f));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mape(&[1.0], &[1.0, 2.0]);
    }
}
