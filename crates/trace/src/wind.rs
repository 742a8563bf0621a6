//! Wind generation model.
//!
//! Per Fig 2a, wind production "exhibits sharp peaks and valleys
//! (depending on weather conditions), but rarely go\[es\] down to zero";
//! per Fig 2b its median is at most ~20 % of peak capacity with a ~2×
//! p99/p75 tail ratio.
//!
//! The model is a classic two-layer construction:
//!
//! 1. **Synoptic regime** — a slow, spatially correlated driver (shared
//!    through [`WeatherField`](crate::WeatherField), advected
//!    west→east) sets the regional mean wind speed, sweeping between
//!    calm (~4.5 m/s) and stormy (~14 m/s) conditions over
//!    hours-to-days.
//! 2. **Turbulence** — an Ornstein–Uhlenbeck process reverts the local
//!    wind speed toward the regime mean while fast gust noise perturbs
//!    it.
//!
//! The speed is then pushed through a turbine **power curve**: zero below
//! the cut-in speed, cubic up to the rated speed, flat at 1.0 to the
//! cut-out speed, and an emergency stop above it (storm shut-down gives
//! the occasional cliff from full power to zero).

use crate::site::Site;
use crate::weather::{Ar1Request, Channel};
use crate::INTERVAL_15M;
use vb_stats::TimeSeries;

/// Wind model; [`WindModel::default`] is calibrated against the paper's
/// Figure 2 statistics (see `tests/calibration.rs`). Only the turbine
/// speeds, which [`WindModel::power_curve`] reads, are public.
#[derive(Debug, Clone)]
pub struct WindModel {
    /// Long-run mean wind speed (m/s) in the neutral regime.
    base_speed: f64,
    /// How strongly the synoptic driver swings the regime mean (m/s per
    /// driver standard deviation).
    regime_gain: f64,
    /// Seasonal amplitude (m/s): winter is windier in Europe.
    seasonal_amplitude: f64,
    /// AR(1) persistence per 15-minute step of the synoptic driver.
    regime_rho: f64,
    /// OU mean-reversion rate per 15-minute step.
    reversion: f64,
    /// Gust (innovation) standard deviation, m/s per step.
    gust_sigma: f64,
    /// Turbine cut-in speed, m/s.
    pub cut_in: f64,
    /// Turbine rated speed, m/s.
    pub rated: f64,
    /// Turbine cut-out (storm shutdown) speed, m/s.
    pub cut_out: f64,
}

impl Default for WindModel {
    fn default() -> WindModel {
        WindModel {
            base_speed: 7.2,
            regime_gain: 2.8,
            seasonal_amplitude: 1.1,
            regime_rho: 0.997,
            reversion: 0.06,
            gust_sigma: 0.55,
            cut_in: 3.0,
            rated: 13.0,
            cut_out: 25.0,
        }
    }
}

impl WindModel {
    /// Warm-up steps of the OU integration: it starts this far before
    /// the window so the speed at any absolute instant is independent of
    /// the window start (the drivers themselves are already
    /// window-consistent).
    fn warmup(&self) -> usize {
        (30.0 / self.reversion).ceil() as usize
    }

    /// The synoptic regime and gust drivers of a window, both covering
    /// the OU warm-up too.
    pub(crate) fn drivers<'a>(
        &self,
        site: &'a Site,
        start_day: u32,
        days: u32,
    ) -> [Ar1Request<'a>; 2] {
        let t0 = start_day as i64 * crate::STEPS_PER_DAY as i64;
        let warmup = self.warmup();
        let driver = |channel, rho| Ar1Request {
            channel,
            site,
            rho,
            t0: t0 - warmup as i64,
            n: warmup + days as usize * crate::STEPS_PER_DAY,
        };
        [
            driver(Channel::WindRegime, self.regime_rho),
            driver(Channel::WindGust, 0.3),
        ]
    }

    /// The trace of a window from its [`WindModel::drivers`].
    pub(crate) fn shape(
        &self,
        start_day: u32,
        days: u32,
        regime: &[f64],
        gusts: &[f64],
    ) -> TimeSeries {
        let n = days as usize * crate::STEPS_PER_DAY;
        let t0 = start_day as i64 * crate::STEPS_PER_DAY as i64;
        let warmup = self.warmup();
        let gen_start = t0 - warmup as i64;
        let total = warmup + n;

        let mut values = Vec::with_capacity(n);
        let mut v = self.regime_mean(regime[0], start_day);
        for k in 0..total {
            let day_of_year = ((gen_start + k as i64).div_euclid(crate::STEPS_PER_DAY as i64))
                .rem_euclid(365) as u32;
            let mu = self.regime_mean(regime[k], day_of_year);
            v += self.reversion * (mu - v) + self.gust_sigma * gusts[k];
            v = v.max(0.0);
            if k >= warmup {
                values.push(self.power_curve(v));
            }
        }
        TimeSeries::with_start(start_day as u64 * 86_400, INTERVAL_15M, values)
    }

    /// Regime mean wind speed given the synoptic driver value and season.
    fn regime_mean(&self, driver: f64, day_of_year: u32) -> f64 {
        let seasonal = self.seasonal_amplitude
            * (2.0 * std::f64::consts::PI * (day_of_year as f64 - 15.0) / 365.0).cos();
        (self.base_speed + self.regime_gain * driver + seasonal).clamp(1.0, 20.0)
    }

    /// Normalized turbine output for a wind speed in m/s.
    pub fn power_curve(&self, speed: f64) -> f64 {
        if speed < self.cut_in || speed >= self.cut_out {
            return 0.0;
        }
        if speed >= self.rated {
            return 1.0;
        }
        let num = speed.powi(3) - self.cut_in.powi(3);
        let den = self.rated.powi(3) - self.cut_in.powi(3);
        (num / den).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_in, WeatherField};
    use vb_stats::Summary;

    #[test]
    fn power_curve_shape() {
        let m = WindModel::default();
        assert_eq!(m.power_curve(0.0), 0.0);
        assert_eq!(m.power_curve(2.9), 0.0, "below cut-in");
        assert_eq!(m.power_curve(13.0), 1.0, "at rated");
        assert_eq!(m.power_curve(20.0), 1.0, "between rated and cut-out");
        assert_eq!(m.power_curve(25.0), 0.0, "storm shutdown");
        let p7 = m.power_curve(7.0);
        assert!(p7 > 0.0 && p7 < 1.0);
        // Monotone in the cubic region.
        assert!(m.power_curve(9.0) > p7);
    }

    #[test]
    fn wind_rarely_reaches_zero_but_varies() {
        // Fig 2a: wind has sharp peaks and valleys, rarely zero.
        let site = Site::wind("w", 52.0, 0.0);
        let t = generate_in(&site, 0, 60, &WeatherField::new(4));
        let zero_frac = t.values.iter().filter(|&&v| v == 0.0).count() as f64 / t.len() as f64;
        assert!(zero_frac < 0.35, "zero fraction {zero_frac}");
        let s = Summary::of(&t.values);
        assert!(s.cov > 0.5, "wind must be volatile, cov {}", s.cov);
    }

    #[test]
    fn wind_median_is_well_below_peak() {
        // Fig 2b: "median values reaching at most 20% the peak capacity
        // for wind".
        let site = Site::wind("w", 52.0, 0.0);
        let t = generate_in(&site, 0, 365, &WeatherField::new(5));
        let s = Summary::of(&t.values);
        assert!(s.p50 <= 0.25, "median {}", s.p50);
        assert!(s.max > 0.9, "should occasionally hit rated power");
    }

    #[test]
    fn winter_is_windier_than_summer() {
        let site = Site::wind("w", 52.0, 0.0);
        let field = WeatherField::new(6);
        let winter = generate_in(&site, 0, 30, &field); // Jan
        let summer = generate_in(&site, 180, 30, &field); // Jul
        assert!(
            Summary::of(&winter.values).mean > Summary::of(&summer.values).mean * 0.9,
            "winter {} vs summer {}",
            Summary::of(&winter.values).mean,
            Summary::of(&summer.values).mean
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let site = Site::wind("w", 52.0, 0.0);
        let f = WeatherField::new(7);
        let a = generate_in(&site, 10, 5, &f);
        let b = generate_in(&site, 10, 5, &f);
        assert_eq!(a, b);
    }
}
