//! Solar generation model.
//!
//! Figure 2a of the paper shows solar power as a diurnal curve whose peak
//! swings from ~3.5 % of capacity on an overcast day to ~77 % on the next
//! sunny day, with "spiky" production on days of variable cloud; §2.2
//! adds that winter peaks are ≈75 % lower than summer and that over a
//! year more than half of all 15-minute samples are zero (night).
//!
//! The model composes two parts:
//!
//! 1. **Clear-sky geometry** — solar declination from day-of-year, solar
//!    elevation from latitude/hour angle, plus a simple air-mass
//!    attenuation. This produces the diurnal bell and the seasonal
//!    amplitude swing deterministically.
//! 2. **Cloud regimes** — each day is classed Clear / Variable / Overcast
//!    by thresholding a slow, spatially correlated weather driver, then a
//!    per-sample transmittance is drawn around the regime level (fast
//!    AR(1) noise on variable days → the spiky trace of Fig 2a).

use crate::site::Site;
use crate::weather::{Ar1Request, Channel};
use crate::INTERVAL_15M;
use vb_stats::TimeSeries;

/// Cloud-cover class of a whole day, as in Fig 2a's annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayRegime {
    /// Mostly clear sky: transmittance near 0.9.
    Clear,
    /// Broken clouds: transmittance oscillates rapidly.
    Variable,
    /// Heavy overcast: a few percent of clear-sky output.
    Overcast,
}

/// Solar model. [`SolarModel::default`] is calibrated to the paper's
/// Figure 2 statistics (see `tests/calibration.rs`); only the day-regime
/// thresholds, which [`SolarModel::classify`] reads, are public.
#[derive(Debug, Clone)]
pub struct SolarModel {
    /// Transmittance on clear days.
    clear_transmittance: f64,
    /// Mean transmittance on overcast days.
    overcast_transmittance: f64,
    /// Centre of the transmittance range on variable days.
    variable_mid: f64,
    /// Half-range of the variable-day oscillation.
    variable_amplitude: f64,
    /// AR(1) persistence of the fast within-day cloud noise (per 15 min).
    fast_rho: f64,
    /// Daily-driver value above which a day is clear.
    pub clear_threshold: f64,
    /// Daily-driver value below which a day is overcast. The asymmetry
    /// (clear days more common than fully overcast ones) matches mid-
    /// latitude European climatology and sets Fig 2b's p75/p99 levels.
    pub overcast_threshold: f64,
    /// Optical-depth coefficient of the air-mass attenuation.
    airmass_tau: f64,
    /// Output below this fraction of capacity is clipped to zero — the
    /// inverter's minimum operating point. Together with night this gives
    /// Fig 2b's ">50 % zero samples over a year".
    min_output: f64,
}

impl Default for SolarModel {
    fn default() -> SolarModel {
        SolarModel {
            clear_transmittance: 0.91,
            overcast_transmittance: 0.07,
            variable_mid: 0.62,
            variable_amplitude: 0.36,
            fast_rho: 0.55,
            clear_threshold: -0.25,
            overcast_threshold: -0.75,
            airmass_tau: 0.10,
            min_output: 0.008,
        }
    }
}

impl SolarModel {
    /// The two cloud drivers of a window: fast within-day noise, then
    /// the slow daily driver that decides each day's regime.
    pub(crate) fn drivers<'a>(
        &self,
        site: &'a Site,
        start_day: u32,
        days: u32,
    ) -> [Ar1Request<'a>; 2] {
        let n = days as usize * crate::STEPS_PER_DAY;
        let t0 = start_day as i64 * crate::STEPS_PER_DAY as i64;
        let cloud = |rho| Ar1Request {
            channel: Channel::Cloud,
            site,
            rho,
            t0,
            n,
        };
        // Daily driver: heavily smoothed cloud channel — one value per day.
        [cloud(self.fast_rho), cloud(0.995)]
    }

    /// The trace of a window from its [`SolarModel::drivers`].
    pub(crate) fn shape(
        &self,
        site: &Site,
        start_day: u32,
        days: u32,
        fast: &[f64],
        daily: &[f64],
    ) -> TimeSeries {
        let n = days as usize * crate::STEPS_PER_DAY;
        let t0 = start_day as i64 * crate::STEPS_PER_DAY as i64;

        // The slow daily driver (sampled once per day) decides the
        // regime; fast noise shapes within-day transmittance.
        let mut values = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // k indexes two driver arrays
        for k in 0..n {
            let abs_sample = t0 + k as i64;
            let steps_per_day = crate::STEPS_PER_DAY as i64;
            let day_of_year = (abs_sample.div_euclid(steps_per_day)).rem_euclid(365) as u32;
            let hour_utc =
                (abs_sample.rem_euclid(steps_per_day)) as f64 * 24.0 / crate::STEPS_PER_DAY as f64;

            let elev = sin_elevation(site.lat, site.lon, day_of_year, hour_utc);
            if elev <= 0.0 {
                values.push(0.0);
                continue;
            }

            // Regime from the daily driver, held constant within the day.
            let day_index = (k / crate::STEPS_PER_DAY) * crate::STEPS_PER_DAY; // first sample of this day
            let regime = self.classify(daily[day_index]);
            let trans = self.transmittance(regime, fast[k], daily[day_index]);

            // Air-mass attenuation rounds off mornings and evenings.
            let airmass = (-self.airmass_tau * (1.0 / elev.max(0.05) - 1.0)).exp();
            let p = (elev * airmass * trans).clamp(0.0, 1.0);
            values.push(if p < self.min_output { 0.0 } else { p });
        }
        TimeSeries::with_start(start_day as u64 * 86_400, INTERVAL_15M, values)
    }

    /// Classify a day given its slow-driver value.
    pub fn classify(&self, driver: f64) -> DayRegime {
        if driver > self.clear_threshold {
            DayRegime::Clear
        } else if driver < self.overcast_threshold {
            DayRegime::Overcast
        } else {
            DayRegime::Variable
        }
    }

    /// Per-sample transmittance for a regime.
    fn transmittance(&self, regime: DayRegime, fast: f64, daily: f64) -> f64 {
        match regime {
            DayRegime::Clear => (self.clear_transmittance + 0.04 * fast).clamp(0.75, 0.98),
            DayRegime::Overcast => {
                (self.overcast_transmittance + 0.03 * fast + 0.02 * daily).clamp(0.01, 0.16)
            }
            DayRegime::Variable => {
                (self.variable_mid + self.variable_amplitude * fast).clamp(0.04, 0.95)
            }
        }
    }
}

/// Sine of the solar elevation angle at a site and instant.
///
/// Standard formula: `sin α = sin φ sin δ + cos φ cos δ cos H` with
/// declination `δ = 23.45° · sin(360°·(284+n)/365)` and hour angle
/// `H = 15°·(t_solar − 12)`. Solar local time shifts with longitude
/// (`+lon/15` hours), which is what makes "day in one location and dusk
/// in another" (§2.3) emerge across the catalog.
pub fn sin_elevation(lat: f64, lon: f64, day_of_year: u32, hour_utc: f64) -> f64 {
    let decl = 23.45_f64.to_radians()
        * (2.0 * std::f64::consts::PI * (284.0 + day_of_year as f64 + 1.0) / 365.0).sin();
    let solar_hour = hour_utc + lon / 15.0;
    let hour_angle = (15.0 * (solar_hour - 12.0)).to_radians();
    let phi = lat.to_radians();
    phi.sin() * decl.sin() + phi.cos() * decl.cos() * hour_angle.cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_in, WeatherField};

    const SUMMER: u32 = 171; // ~Jun 21
    const WINTER: u32 = 354; // ~Dec 21

    #[test]
    fn elevation_is_zero_at_night_and_peaks_at_noon() {
        assert!(sin_elevation(50.0, 0.0, SUMMER, 0.0) < 0.0, "midnight");
        let noon = sin_elevation(50.0, 0.0, SUMMER, 12.0);
        let morning = sin_elevation(50.0, 0.0, SUMMER, 8.0);
        assert!(noon > morning && morning > 0.0);
    }

    #[test]
    fn summer_noon_beats_winter_noon() {
        let s = sin_elevation(50.0, 0.0, SUMMER, 12.0);
        let w = sin_elevation(50.0, 0.0, WINTER, 12.0);
        // Winter peak ≈75% less than summer (paper §2.2).
        assert!(w < 0.45 * s, "summer {s}, winter {w}");
    }

    #[test]
    fn longitude_shifts_the_solar_day() {
        // Lisbon (-9°E) reaches its solar noon ~36 min after Greenwich.
        let greenwich_noon = sin_elevation(50.0, 0.0, SUMMER, 12.0);
        let lisbon_at_greenwich_noon = sin_elevation(50.0, -9.0, SUMMER, 12.0);
        let lisbon_at_its_noon = sin_elevation(50.0, -9.0, SUMMER, 12.6);
        assert!(lisbon_at_its_noon > lisbon_at_greenwich_noon);
        assert!((lisbon_at_its_noon - greenwich_noon).abs() < 1e-3);
    }

    #[test]
    fn night_samples_are_exactly_zero() {
        let site = Site::solar("s", 50.8, 4.4); // Belgium, like ELIA
        let t = generate_in(&site, SUMMER, 2, &WeatherField::new(1));
        // First sample of the day is midnight UTC — dark in June Belgium.
        assert_eq!(t.values[0], 0.0);
        let zeros = t.values.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 40, "nights should be dark, got {zeros} zeros");
    }

    #[test]
    fn a_year_is_more_than_half_zeros() {
        // Fig 2b: "over 50% zero values for solar energy due to night".
        let site = Site::solar("s", 50.8, 4.4);
        let t = generate_in(&site, 0, 365, &WeatherField::new(2));
        let zero_frac = t.values.iter().filter(|&&v| v == 0.0).count() as f64 / t.len() as f64;
        assert!(zero_frac > 0.50, "zero fraction {zero_frac}");
        assert!(zero_frac < 0.70, "still must produce by day: {zero_frac}");
    }

    #[test]
    fn clear_days_peak_much_higher_than_overcast_days() {
        let site = Site::solar("s", 50.8, 4.4);
        let model = SolarModel::default();
        let field = WeatherField::new(3);
        // Generate a summer month and split days by regime.
        let t = generate_in(&site, 150, 30, &field);
        let daily = field.ar1(Channel::Cloud, &site, 0.995, 150 * 96, 30 * 96);
        let mut clear_peaks = Vec::new();
        let mut overcast_peaks = Vec::new();
        for d in 0..30 {
            let peak = t.values[d * 96..(d + 1) * 96]
                .iter()
                .copied()
                .fold(0.0, f64::max);
            match model.classify(daily[d * 96]) {
                DayRegime::Clear => clear_peaks.push(peak),
                DayRegime::Overcast => overcast_peaks.push(peak),
                DayRegime::Variable => {}
            }
        }
        if let (Some(&c), Some(&o)) = (clear_peaks.first(), overcast_peaks.first()) {
            assert!(c > 0.6, "clear peak {c}");
            assert!(o < 0.2, "overcast peak {o}");
        }
        // At least assert overall peak consistent with Fig 2a (~0.77).
        let overall = t.max().unwrap();
        assert!(overall > 0.6 && overall <= 1.0, "peak {overall}");
    }

    #[test]
    fn classify_thresholds() {
        let m = SolarModel::default();
        assert_eq!(m.classify(1.0), DayRegime::Clear);
        assert_eq!(m.classify(-0.3), DayRegime::Variable);
        assert_eq!(m.classify(-1.0), DayRegime::Overcast);
    }
}
