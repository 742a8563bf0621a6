//! Power-forecast simulator.
//!
//! §3.1 of the paper leans on a key property: "migrations are spiky, but
//! also predictable". Figure 5 quantifies the ELIA forecasts by horizon:
//!
//! | Horizon      | MAPE (solar) | MAPE (wind) |
//! |--------------|--------------|-------------|
//! | 3 hours      | 8.5–9 %      | 8.5–9 %     |
//! | day-ahead    | 18–25 %      | 18–25 %     |
//! | week-ahead   | ~44 %        | ~75 %       |
//!
//! We do not have a weather model to forecast from, so the simulator
//! works backwards: it degrades the *actual* series with
//! horizon-dependent smoothing (forecasts miss fast fluctuations) and
//! multiplicative noise (amplitude errors grow with horizon), calibrated
//! so the realized MAPE lands in the paper's bands. The scheduler only
//! ever sees the forecast series, so this reproduces exactly the
//! information structure the paper's co-scheduler exploits.

use crate::site::{Site, SourceKind};
use crate::weather::{Ar1Request, Channel, WeatherField};
use vb_stats::TimeSeries;

/// Forecast lead time, mirroring Figure 5's three horizons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Horizon {
    /// 3 hours ahead — MAPE target 8.5–9 %.
    Hours3,
    /// Day ahead — MAPE target 18–25 %.
    DayAhead,
    /// Week ahead — MAPE target ~44 % (solar) / ~75 % (wind).
    WeekAhead,
}

impl Horizon {
    /// Lead time in 15-minute samples.
    pub fn lead_samples(self) -> usize {
        match self {
            Horizon::Hours3 => 12,
            Horizon::DayAhead => crate::STEPS_PER_DAY,
            Horizon::WeekAhead => crate::WEEK_AHEAD_STEPS,
        }
    }

    /// All three paper horizons.
    pub fn all() -> [Horizon; 3] {
        [Horizon::Hours3, Horizon::DayAhead, Horizon::WeekAhead]
    }

    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Horizon::Hours3 => "3Hour-Ahead",
            Horizon::DayAhead => "Day-Ahead",
            Horizon::WeekAhead => "Week-Ahead",
        }
    }
}

/// Error-model parameters for one (horizon, source) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ForecastParams {
    /// Width (in samples) of the centred moving average applied to the
    /// actuals: forecasts can't see fast fluctuations.
    smooth_window: usize,
    /// Standard deviation of the multiplicative amplitude error.
    mult_sigma: f64,
    /// AR(1) persistence of the amplitude error (errors are correlated —
    /// a forecast that is too low tends to stay too low for hours).
    error_rho: f64,
}

impl ForecastParams {
    /// Calibrated parameters per horizon and source kind.
    pub(crate) fn for_horizon(horizon: Horizon, kind: SourceKind) -> ForecastParams {
        match (horizon, kind) {
            (Horizon::Hours3, _) => ForecastParams {
                smooth_window: 1,
                mult_sigma: 0.11,
                error_rho: 0.9,
            },
            (Horizon::DayAhead, SourceKind::Solar) => ForecastParams {
                smooth_window: 3,
                mult_sigma: 0.18,
                error_rho: 0.97,
            },
            (Horizon::DayAhead, SourceKind::Wind) => ForecastParams {
                smooth_window: 5,
                mult_sigma: 0.22,
                error_rho: 0.97,
            },
            (Horizon::WeekAhead, SourceKind::Solar) => ForecastParams {
                smooth_window: 5,
                mult_sigma: 0.42,
                error_rho: 0.99,
            },
            (Horizon::WeekAhead, SourceKind::Wind) => ForecastParams {
                smooth_window: 25,
                mult_sigma: 0.68,
                error_rho: 0.99,
            },
        }
    }
}

/// Produce a forecast of `actual` for `site` at the given horizon.
///
/// The returned series is aligned sample-for-sample with `actual` (it
/// forecasts the same instants, as issued `horizon` ahead of time).
/// Deterministic: the error realization is drawn from the site's weather
/// field stream, keyed by horizon, so re-running an experiment reproduces
/// the same forecasts.
pub fn forecast_for(
    actual: &TimeSeries,
    site: &Site,
    horizon: Horizon,
    field: &WeatherField,
) -> TimeSeries {
    if actual.is_empty() {
        return actual.clone();
    }
    let params = ForecastParams::for_horizon(horizon, site.kind);
    let request = error_request(
        site,
        horizon,
        params,
        actual.start_secs,
        actual.interval_secs,
        actual.len(),
    );
    degrade(actual, params, &field.ar1_batch(&[request])[0])
}

/// The error stream of a forecast of the `n`-sample series starting at
/// `start_secs`: unique per (site, horizon) but deterministic. The time
/// axis is offset per horizon so the three horizons' errors differ.
pub(crate) fn error_request(
    site: &Site,
    horizon: Horizon,
    params: ForecastParams,
    start_secs: u64,
    interval_secs: u64,
    n: usize,
) -> Ar1Request<'_> {
    Ar1Request {
        channel: Channel::WindGust,
        site,
        rho: params.error_rho,
        t0: (start_secs / interval_secs) as i64 + horizon.lead_samples() as i64 * 1_000_003,
        n,
    }
}

/// Smooth `actual` and apply the multiplicative error `noise` (the
/// series of [`error_request`]).
pub(crate) fn degrade(actual: &TimeSeries, params: ForecastParams, noise: &[f64]) -> TimeSeries {
    let smooth = moving_average(&actual.values, params.smooth_window);
    let values = smooth
        .iter()
        .zip(noise)
        .map(|(&s, &e)| (s * (1.0 + params.mult_sigma * e)).clamp(0.0, 1.0))
        .collect();
    TimeSeries {
        start_secs: actual.start_secs,
        interval_secs: actual.interval_secs,
        values,
    }
}

/// Centred moving average with edge truncation.
fn moving_average(values: &[f64], window: usize) -> Vec<f64> {
    let w = window.max(1);
    let half = w / 2;
    let n = values.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let sum: f64 = values[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_in;

    #[test]
    fn moving_average_smooths_and_preserves_constants() {
        let flat = vec![2.0; 10];
        assert_eq!(moving_average(&flat, 5), flat);
        let spiky = vec![0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let sm = moving_average(&spiky, 3);
        let spread = |v: &[f64]| {
            v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(spread(&sm) < spread(&spiky));
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let v = vec![1.0, 3.0, 2.0];
        assert_eq!(moving_average(&v, 1), v);
        assert_eq!(moving_average(&v, 0), v, "window 0 clamps to 1");
    }

    #[test]
    fn forecast_is_deterministic_and_aligned() {
        let site = Site::wind("w", 52.0, 0.0);
        let field = WeatherField::new(3);
        let actual = generate_in(&site, 10, 7, &field);
        let a = forecast_for(&actual, &site, Horizon::DayAhead, &field);
        let b = forecast_for(&actual, &site, Horizon::DayAhead, &field);
        assert_eq!(a, b);
        assert_eq!(a.len(), actual.len());
        assert_eq!(a.start_secs, actual.start_secs);
    }

    #[test]
    fn horizons_have_distinct_errors() {
        let site = Site::wind("w", 52.0, 0.0);
        let field = WeatherField::new(3);
        let actual = generate_in(&site, 10, 7, &field);
        let h3 = forecast_for(&actual, &site, Horizon::Hours3, &field);
        let d1 = forecast_for(&actual, &site, Horizon::DayAhead, &field);
        assert_ne!(h3, d1);
    }

    #[test]
    fn error_grows_with_horizon() {
        // The core property of Fig 5: longer horizons are worse.
        let field = WeatherField::new(8);
        for site in [Site::solar("s", 50.8, 4.4), Site::wind("w", 50.8, 4.4)] {
            let actual = generate_in(&site, 60, 60, &field);
            let m3 = vb_stats::mape(
                &actual.values,
                &forecast_for(&actual, &site, Horizon::Hours3, &field).values,
            );
            let md = vb_stats::mape(
                &actual.values,
                &forecast_for(&actual, &site, Horizon::DayAhead, &field).values,
            );
            let mw = vb_stats::mape(
                &actual.values,
                &forecast_for(&actual, &site, Horizon::WeekAhead, &field).values,
            );
            assert!(m3 < md && md < mw, "{}: {m3} {md} {mw}", site.name);
        }
    }

    #[test]
    fn forecasts_stay_normalized() {
        let site = Site::solar("s", 50.8, 4.4);
        let field = WeatherField::new(9);
        let actual = generate_in(&site, 100, 14, &field);
        let f = forecast_for(&actual, &site, Horizon::WeekAhead, &field);
        assert!(f.min().unwrap() >= 0.0);
        assert!(f.max().unwrap() <= 1.0);
    }

    #[test]
    fn lead_samples_match_horizons() {
        assert_eq!(Horizon::Hours3.lead_samples(), 12);
        assert_eq!(Horizon::DayAhead.lead_samples(), 96);
        assert_eq!(Horizon::WeekAhead.lead_samples(), 672);
        assert_eq!(Horizon::all().len(), 3);
        assert_eq!(Horizon::DayAhead.label(), "Day-Ahead");
    }
}
