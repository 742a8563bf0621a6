#![warn(missing_docs)]

//! # vb-trace — synthetic renewable generation traces
//!
//! The paper's evaluation is driven by two datasets we cannot ship:
//!
//! * **ELIA** — 15-minute solar/wind generation for 25 Belgian sites,
//!   including official power forecasts (Figures 2, 4, 5), and
//! * **EMHIRES** — normalized hourly generation for >500 European sites
//!   (the §2.3 site-combination study, Figure 3).
//!
//! This crate replaces both with physically-motivated, seeded, fully
//! deterministic synthetic generators:
//!
//! * [`solar`] — clear-sky solar geometry (declination, elevation, day
//!   length from latitude and day-of-year) modulated by a three-state
//!   Markov cloud process (clear / variable / overcast days). This
//!   reproduces the diurnal and seasonal structure of Figure 2a,
//!   including overcast days peaking at a few percent of capacity next to
//!   sunny days peaking near 80 %, and >50 % zero samples over a year
//!   (Figure 2b).
//! * [`wind`] — an Ornstein–Uhlenbeck wind-speed process whose mean
//!   switches between weather regimes (calm / breezy / windy / storm),
//!   pushed through a turbine power curve (cut-in, cubic region, rated,
//!   cut-out). This yields the sharp peaks and valleys of Figure 2a and a
//!   median well under 20 % of peak capacity with a ~2× p99/p75 tail
//!   (Figure 2b).
//! * [`weather`] — spatially correlated stochastic drivers shared between
//!   sites, with correlation decaying over a few hundred kilometres and
//!   weather systems advected eastward. Nearby same-source sites
//!   correlate; distant or different-source sites complement, which is
//!   what makes the §2.3 multi-VB aggregation work.
//! * [`forecast`] — a horizon-parameterised forecast simulator calibrated
//!   to the paper's MAPE bands (8.5–9 % at 3 h, 18–25 % at day,
//!   44 %/75 % at week ahead; Figure 5).
//! * [`catalog`] — a geo-referenced catalog of European sites, including
//!   the NO-solar / UK-wind / PT-wind trio of Figure 3 ([`TRIO`]), all
//!   with the 400 MW peak capacity the paper assumes.
//!   [`Catalog::group_series`] synthesizes a site group's traces and
//!   forecasts from one batch of weather draws, drawing each stream the
//!   sites share once.
//! * [`io`] — dataset CSV serialization.
//!
//! Everything is deterministic given a [`u64`] seed, so experiments and
//! tests are reproducible bit-for-bit.

pub mod catalog;
pub mod forecast;
pub mod io;
pub mod site;
pub mod solar;
mod synth;
pub mod weather;
pub mod wind;

pub use catalog::{Catalog, CoverageError, TRIO};
pub use forecast::{forecast_for, Horizon};
pub use site::{Site, SourceKind};
pub use solar::SolarModel;
pub use synth::SiteSeries;
pub use weather::WeatherField;
pub use wind::WindModel;

use vb_stats::TimeSeries;

/// Default sampling interval: 15 minutes, matching the ELIA dataset.
pub const INTERVAL_15M: u64 = 900;

/// Samples per day at the 15-minute interval (24 h × 4). The canonical
/// horizon constant: every `96` in the workspace must trace back here or
/// to vb-sched's `DAY_AHEAD_STEPS` (enforced by vb-audit's
/// `horizon-literal` lint).
pub const STEPS_PER_DAY: usize = 96;

/// Steps in a week-ahead horizon (7 × [`STEPS_PER_DAY`]).
pub const WEEK_AHEAD_STEPS: usize = 7 * STEPS_PER_DAY;

/// Generate a normalized (0..=1 of peak capacity) generation trace for a
/// site over `days` days starting at `start_day` (day-of-year, 0-based),
/// drawing from `field`, so that sites drawn from one field share
/// correlated weather. The one-site call of group synthesis
/// ([`Catalog::group_series`]), with the default [`solar`] and [`wind`]
/// models.
pub fn generate_in(site: &Site, start_day: u32, days: u32, field: &WeatherField) -> TimeSeries {
    let source = synth::Source::Synthetic(site);
    synth::synthesize(field, vec![source], start_day, days, [])
        .swap_remove(0)
        .actual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_per_seed() {
        let site = Site::solar("test", 50.0, 4.0);
        let a = generate_in(&site, 120, 4, &WeatherField::new(7));
        let b = generate_in(&site, 120, 4, &WeatherField::new(7));
        let c = generate_in(&site, 120, 4, &WeatherField::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_covers_requested_span_at_15min() {
        let site = Site::wind("test", 55.0, -3.0);
        let t = generate_in(&site, 0, 3, &WeatherField::new(1));
        assert_eq!(t.interval_secs, INTERVAL_15M);
        assert_eq!(t.len(), 3 * 96);
    }

    #[test]
    fn generated_power_is_normalized() {
        for site in [Site::solar("s", 45.0, 10.0), Site::wind("w", 52.0, 0.0)] {
            let t = generate_in(&site, 100, 30, &WeatherField::new(42));
            assert!(t.min().unwrap() >= 0.0);
            assert!(t.max().unwrap() <= 1.0);
        }
    }
}
