//! Geo-referenced catalog of European renewable sites.
//!
//! The EMHIRES dataset the paper mines for complementary site groups
//! covers >500 European locations; we ship a representative synthetic
//! catalog instead. It includes the three archetypes of Figure 3 —
//! Norwegian solar, UK wind and Portuguese wind — plus a spread of
//! additional solar and wind farms across the continent, all at the
//! 400 MW capacity §2.3 assumes.

use crate::forecast::Horizon;
use crate::site::Site;
use crate::synth::{synthesize, SiteSeries, Source};
use crate::weather::WeatherField;
use crate::SourceKind;
use vb_stats::TimeSeries;

/// Why a site's measured data cannot serve a requested window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageError {
    /// The series is not sampled every 15 minutes.
    Interval {
        /// Site name.
        site: String,
        /// The series' sampling interval.
        interval_secs: u64,
    },
    /// The series starts between two 15-minute grid points, so no
    /// sample of it falls on the window's.
    OffGrid {
        /// Site name.
        site: String,
        /// The series' first sample time.
        start_secs: u64,
    },
    /// The series starts after the window's first sample.
    StartsAfter {
        /// Site name.
        site: String,
    },
    /// The series ends before the window's last sample.
    EndsBefore {
        /// Site name.
        site: String,
    },
    /// A sample inside the window is NaN or infinite.
    NonFinite {
        /// Site name.
        site: String,
        /// The sample's step after the window's first sample.
        offset: usize,
    },
}

impl std::fmt::Display for CoverageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverageError::Interval {
                site,
                interval_secs,
            } => write!(
                f,
                "measured data for {site} must be 15-minute, not {interval_secs} s"
            ),
            CoverageError::OffGrid { site, start_secs } => write!(
                f,
                "measured data for {site} starts at {start_secs} s, off the 15-minute grid"
            ),
            CoverageError::StartsAfter { site } => write!(
                f,
                "measured data for {site} starts after the requested window"
            ),
            CoverageError::EndsBefore { site } => {
                write!(
                    f,
                    "measured data for {site} ends before the requested window"
                )
            }
            CoverageError::NonFinite { site, offset } => write!(
                f,
                "measured data for {site} holds a non-finite sample {offset} steps into the requested window"
            ),
        }
    }
}

impl std::error::Error for CoverageError {}

/// A collection of sites sharing one weather field.
#[derive(Debug, Clone)]
pub struct Catalog {
    sites: Vec<Site>,
    field: WeatherField,
    /// Measured generation per site, overriding the synthetic
    /// generators (for plugging in real ELIA/EMHIRES-style data). Keyed
    /// parallel to `sites`; the series' `start_secs` anchors them on the
    /// day-of-year axis.
    measured: Vec<Option<TimeSeries>>,
}

/// The Figure 3 trio, the paper's Table 1 multi-VB group: the first
/// three sites of [`Catalog::europe`], in its order.
pub const TRIO: [&str; 3] = ["NO-solar", "UK-wind", "PT-wind"];

impl Catalog {
    /// An empty catalog over a seeded weather field.
    pub fn new(seed: u64) -> Catalog {
        Catalog {
            sites: Vec::new(),
            field: WeatherField::new(seed),
            measured: Vec::new(),
        }
    }

    /// A catalog backed by *measured* generation data instead of the
    /// synthetic generators — the integration point for real
    /// ELIA/EMHIRES-style datasets. Each series must be normalized to
    /// the site's capacity (0..=1) at 15-minute resolution, with
    /// `start_secs = start_day × 86 400` anchoring it on the
    /// day-of-year axis. The weather field (from `seed`) is still used
    /// to synthesise forecast error realizations.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_measured(sites: Vec<Site>, traces: Vec<TimeSeries>, seed: u64) -> Catalog {
        assert_eq!(sites.len(), traces.len(), "one trace per site");
        Catalog {
            measured: traces.into_iter().map(Some).collect(),
            sites,
            field: WeatherField::new(seed),
        }
    }

    /// The catalog used throughout the reproduction: the Figure 3 trio
    /// ([`TRIO`]) plus 22 more sites spread over Europe (25 total,
    /// matching the ELIA site count).
    pub fn europe(seed: u64) -> Catalog {
        let mut c = Catalog::new(seed);
        // The Figure 3 trio.
        c.push(Site::solar("NO-solar", 59.3, 10.5)); // southern Norway
        c.push(Site::wind("UK-wind", 53.5, -1.0)); // northern England
        c.push(Site::wind("PT-wind", 39.6, -8.0)); // central Portugal
                                                   // Iberia & France.
        c.push(Site::solar("ES-solar", 37.4, -5.9));
        c.push(Site::solar("PT-solar", 38.0, -7.9));
        c.push(Site::wind("ES-wind", 42.6, -5.6));
        c.push(Site::solar("FR-solar", 43.6, 1.4));
        c.push(Site::wind("FR-wind", 49.9, 2.3));
        // British Isles & Benelux.
        c.push(Site::wind("IE-wind", 53.3, -8.0));
        c.push(Site::wind("SCO-wind", 57.5, -4.2));
        c.push(Site::solar("BE-solar", 50.8, 4.4));
        c.push(Site::wind("BE-wind", 51.2, 2.9));
        c.push(Site::wind("NL-wind", 52.9, 4.8));
        // Germany & central Europe.
        c.push(Site::solar("DE-solar", 48.4, 11.7));
        c.push(Site::wind("DE-wind", 54.3, 8.9));
        c.push(Site::solar("CZ-solar", 49.8, 15.5));
        c.push(Site::wind("PL-wind", 54.2, 16.2));
        c.push(Site::solar("AT-solar", 47.5, 14.5));
        // Nordics & Baltics.
        c.push(Site::wind("DK-wind", 55.5, 8.3));
        c.push(Site::wind("SE-wind", 57.7, 12.0));
        c.push(Site::wind("NO-wind", 58.9, 5.7));
        // Italy & southeast.
        c.push(Site::solar("IT-solar", 40.9, 16.6));
        c.push(Site::wind("IT-wind", 41.1, 15.1));
        c.push(Site::solar("GR-solar", 38.3, 23.8));
        c.push(Site::wind("GR-wind", 39.5, 22.8));
        c
    }

    /// A synthetic paper-scale fleet: `n_sites` modular sites scattered
    /// over the continent (lat 36–60°N, lon 10°W–20°E), alternating
    /// wind and solar, named `F0000-wind`, `F0001-solar`, … in index
    /// order. This is the 10×/100×/1000× scale-up axis for the
    /// `fleet_perf` bench — the follow-up paper's "hundreds of modular
    /// data centers" regime — with fully deterministic placement: the
    /// same `(seed, n_sites)` always yields the same catalog, and a
    /// larger fleet is a strict prefix-extension of a smaller one.
    pub fn fleet(seed: u64, n_sites: usize) -> Catalog {
        // Same splitmix-style mixer the benches use for deterministic
        // pseudo-random streams — decoupled from the weather-field seed
        // so site geography does not shift with the weather draw.
        fn mix(seed: u64, i: u64, salt: u64) -> f64 {
            let h = (seed ^ salt)
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(31)
                .wrapping_mul(0x94D0_49BB_1331_11EB);
            (h >> 11) as f64 / (1u64 << 53) as f64
        }
        let mut c = Catalog::new(seed);
        for i in 0..n_sites {
            let lat = 36.0 + 24.0 * mix(seed, i as u64, 0x1a7);
            let lon = -10.0 + 30.0 * mix(seed, i as u64, 0x2b9);
            let site = if i % 2 == 0 {
                Site::wind(&format!("F{i:04}-wind"), lat, lon)
            } else {
                Site::solar(&format!("F{i:04}-solar"), lat, lon)
            };
            c.push(site);
        }
        c
    }

    /// Add a site (synthetic generation).
    pub fn push(&mut self, site: Site) {
        self.sites.push(site);
        self.measured.push(None);
    }

    /// Add a site with measured generation (see
    /// [`Catalog::from_measured`] for the series conventions).
    pub fn push_measured(&mut self, site: Site, trace: TimeSeries) {
        self.sites.push(site);
        self.measured.push(Some(trace));
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the catalog holds no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The shared weather field.
    pub fn field(&self) -> &WeatherField {
        &self.field
    }

    /// Look a site up by name.
    pub fn get(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Catalog index of a named site.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.sites.iter().position(|s| s.name == name)
    }

    /// Sites of one source kind.
    pub fn of_kind(&self, kind: SourceKind) -> Vec<&Site> {
        self.sites.iter().filter(|s| s.kind == kind).collect()
    }

    /// The normalized trace for a named site over `[start_day,
    /// start_day + days)`: the measured data when the site carries some
    /// (panicking if the window is not covered), the synthetic generator
    /// otherwise. The one-site call of [`Catalog::group_series`].
    ///
    /// # Panics
    /// Panics if the site is unknown, or if measured data does not cover
    /// the requested window.
    pub fn trace(&self, name: &str, start_day: u32, days: u32) -> TimeSeries {
        let idx = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown site {name}"));
        self.traces_at(&[idx], start_day, days).swap_remove(0)
    }

    /// Traces for all sites over the same window, in catalog order.
    ///
    /// # Panics
    /// Panics if some site's measured data does not cover the window.
    pub fn traces(&self, start_day: u32, days: u32) -> Vec<TimeSeries> {
        let all: Vec<usize> = (0..self.sites.len()).collect();
        self.traces_at(&all, start_day, days)
    }

    fn traces_at(&self, indices: &[usize], start_day: u32, days: u32) -> Vec<TimeSeries> {
        self.group_series(indices, start_day, days, [])
            .unwrap_or_else(|e| panic!("{e}"))
            .into_iter()
            .map(|s| s.actual)
            .collect()
    }

    /// The series of the sites at `indices` (in that order; repeats
    /// allowed) over `[start_day, start_day + days)`: each site's actual
    /// generation, from its measured data where it carries some and its
    /// synthetic generator otherwise, plus a forecast of it at each of
    /// `horizons`.
    ///
    /// This is the catalog's group entry point. The group's weather is
    /// drawn in one batch, so streams the sites share are drawn once,
    /// and every series is bit-identical to the site's one-site call
    /// ([`Catalog::trace`], [`crate::forecast_for`]).
    ///
    /// # Errors
    /// A [`CoverageError`] when a site's measured data does not cover the
    /// window or holds a NaN or infinite sample inside it.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn group_series<const H: usize>(
        &self,
        indices: &[usize],
        start_day: u32,
        days: u32,
        horizons: [Horizon; H],
    ) -> Result<Vec<SiteSeries<H>>, CoverageError> {
        let sources = indices
            .iter()
            .map(|&i| match &self.measured[i] {
                Some(data) => {
                    let window = measured_window(&self.sites[i], data, start_day, days)?;
                    Ok(Source::Measured(&self.sites[i], window))
                }
                None => Ok(Source::Synthetic(&self.sites[i])),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(synthesize(&self.field, sources, start_day, days, horizons))
    }
}

/// `data` cut to `[start_day, start_day + days)`, every sample finite.
fn measured_window(
    site: &Site,
    data: &TimeSeries,
    start_day: u32,
    days: u32,
) -> Result<TimeSeries, CoverageError> {
    let site = || site.name.clone();
    if data.interval_secs != crate::INTERVAL_15M {
        return Err(CoverageError::Interval {
            site: site(),
            interval_secs: data.interval_secs,
        });
    }
    if !data.start_secs.is_multiple_of(data.interval_secs) {
        return Err(CoverageError::OffGrid {
            site: site(),
            start_secs: data.start_secs,
        });
    }
    let want_start = start_day as u64 * 86_400;
    let want_len = days as usize * crate::STEPS_PER_DAY;
    if want_start < data.start_secs {
        return Err(CoverageError::StartsAfter { site: site() });
    }
    let offset = ((want_start - data.start_secs) / data.interval_secs) as usize;
    if offset + want_len > data.len() {
        return Err(CoverageError::EndsBefore { site: site() });
    }
    let window = data.slice(offset, offset + want_len);
    if let Some(offset) = window.values.iter().position(|v| !v.is_finite()) {
        return Err(CoverageError::NonFinite {
            site: site(),
            offset,
        });
    }
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn europe_catalog_has_the_figure3_trio() {
        let c = Catalog::europe(1);
        assert_eq!(c.len(), 25, "25 sites, matching ELIA's site count");
        for name in TRIO {
            assert!(c.get(name).is_some(), "{name} missing");
        }
        assert_eq!(c.get("NO-solar").unwrap().kind, SourceKind::Solar);
        assert_eq!(c.get("UK-wind").unwrap().kind, SourceKind::Wind);
    }

    #[test]
    fn catalog_mixes_solar_and_wind() {
        let c = Catalog::europe(1);
        let solar = c.of_kind(SourceKind::Solar).len();
        let wind = c.of_kind(SourceKind::Wind).len();
        assert!(solar >= 10 && wind >= 10, "solar {solar}, wind {wind}");
        assert_eq!(solar + wind, c.len());
    }

    #[test]
    fn all_sites_default_to_400mw() {
        let c = Catalog::europe(1);
        assert!(c.sites().iter().all(|s| s.capacity_mw == 400.0));
    }

    #[test]
    fn traces_returns_one_per_site() {
        let c = Catalog::europe(3);
        let ts = c.traces(0, 1);
        assert_eq!(ts.len(), c.len());
        assert!(ts.iter().all(|t| t.len() == 96));
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn unknown_site_panics() {
        Catalog::europe(1).trace("nowhere", 0, 1);
    }

    #[test]
    fn fleet_is_deterministic_and_prefix_stable() {
        let a = Catalog::fleet(9, 30);
        let b = Catalog::fleet(9, 30);
        assert_eq!(a.len(), 30);
        for (x, y) in a.sites().iter().zip(b.sites()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.lat.to_bits(), y.lat.to_bits());
            assert_eq!(x.lon.to_bits(), y.lon.to_bits());
        }
        // A bigger fleet extends a smaller one without renumbering.
        let big = Catalog::fleet(9, 300);
        for (x, y) in a.sites().iter().zip(big.sites()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.lat.to_bits(), y.lat.to_bits());
        }
    }

    #[test]
    fn fleet_sites_are_in_bounds_and_mixed() {
        let c = Catalog::fleet(5, 100);
        assert!(c
            .sites()
            .iter()
            .all(|s| (36.0..=60.0).contains(&s.lat) && (-10.0..=20.0).contains(&s.lon)));
        assert_eq!(c.of_kind(SourceKind::Wind).len(), 50);
        assert_eq!(c.of_kind(SourceKind::Solar).len(), 50);
        assert_eq!(c.get("F0000-wind").map(|s| s.kind), Some(SourceKind::Wind));
        assert_eq!(
            c.get("F0099-solar").map(|s| s.kind),
            Some(SourceKind::Solar)
        );
    }
}

#[cfg(test)]
mod measured_tests {
    use super::*;
    use crate::INTERVAL_15M;

    fn measured_catalog() -> Catalog {
        // Two days of flat measured data anchored at day 10.
        let site = Site::wind("meter", 52.0, 0.0);
        let data = TimeSeries::with_start(10 * 86_400, INTERVAL_15M, vec![0.5; 2 * 96]);
        Catalog::from_measured(vec![site], vec![data], 1)
    }

    #[test]
    fn measured_data_overrides_the_generator() {
        let c = measured_catalog();
        let t = c.trace("meter", 10, 1);
        assert_eq!(t.len(), 96);
        assert!(t.values.iter().all(|&v| v == 0.5));
        // Window alignment: second day slice starts a day later.
        let t2 = c.trace("meter", 11, 1);
        assert_eq!(t2.start_secs, 11 * 86_400);
    }

    #[test]
    #[should_panic(expected = "ends before the requested window")]
    fn measured_window_overrun_panics() {
        measured_catalog().trace("meter", 11, 2);
    }

    #[test]
    #[should_panic(expected = "starts after the requested window")]
    fn measured_window_underrun_panics() {
        measured_catalog().trace("meter", 9, 1);
    }

    #[test]
    fn group_series_reports_uncovered_windows() {
        let c = measured_catalog();
        let site = || "meter".to_string();
        assert_eq!(
            c.group_series(&[0], 11, 2, []).err(),
            Some(CoverageError::EndsBefore { site: site() })
        );
        assert_eq!(
            c.group_series(&[0], 9, 1, []).err(),
            Some(CoverageError::StartsAfter { site: site() })
        );
        let hourly = TimeSeries::with_start(10 * 86_400, 3_600, vec![0.5; 48]);
        let coarse = Catalog::from_measured(vec![Site::wind("meter", 52.0, 0.0)], vec![hourly], 1);
        assert_eq!(
            coarse.group_series(&[0], 10, 1, []).err(),
            Some(CoverageError::Interval {
                site: site(),
                interval_secs: 3_600
            })
        );
        // Day 10 + 450 s: flooring the offset would serve a window 450 s early.
        let shifted = TimeSeries::with_start(10 * 86_400 + 450, INTERVAL_15M, vec![0.5; 2 * 96]);
        let off_grid =
            Catalog::from_measured(vec![Site::wind("meter", 52.0, 0.0)], vec![shifted], 1);
        assert_eq!(
            off_grid.group_series(&[0], 11, 1, []).err(),
            Some(CoverageError::OffGrid {
                site: site(),
                start_secs: 864_450
            })
        );
    }

    #[test]
    fn group_series_rejects_non_finite_measured_samples() {
        // Two days from day 10; the window is day 11.
        let site = || "meter".to_string();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values = vec![0.5; 2 * 96];
            values[96 + 7] = bad;
            let data = TimeSeries::with_start(10 * 86_400, INTERVAL_15M, values);
            let c = Catalog::from_measured(vec![Site::wind("meter", 52.0, 0.0)], vec![data], 1);
            assert_eq!(
                c.group_series(&[0], 11, 1, []).err(),
                Some(CoverageError::NonFinite {
                    site: site(),
                    offset: 7
                }),
                "{bad}"
            );
            // Outside the window the sample is never served.
            let day10 = c.group_series(&[0], 10, 1, []).expect("day 10 is finite");
            assert!(day10[0].actual.values.iter().all(|&v| v == 0.5));
        }
    }

    #[test]
    fn group_series_forecasts_measured_and_synthetic_sites() {
        let mut c = measured_catalog();
        c.push(Site::solar("synthetic", 50.0, 5.0));
        let series = c
            .group_series(&[0, 1, 0], 10, 1, Horizon::all())
            .expect("day 10 is covered");
        assert!(series[0].actual.values.iter().all(|&v| v == 0.5));
        assert_eq!(series[1].actual, c.trace("synthetic", 10, 1));
        assert_eq!(series[0], series[2], "a repeated site gets the same series");
        for (s, site) in series.iter().zip([&c.sites()[0], &c.sites()[1]]) {
            for (f, h) in s.forecasts.iter().zip(Horizon::all()) {
                assert_eq!(f, &crate::forecast_for(&s.actual, site, h, c.field()));
            }
        }
    }

    #[test]
    fn mixed_catalog_serves_both_backends() {
        let mut c = measured_catalog();
        c.push(Site::solar("synthetic", 50.0, 5.0));
        let ts = c.traces(10, 1);
        assert_eq!(ts.len(), 2);
        assert!(ts[0].values.iter().all(|&v| v == 0.5), "measured");
        assert!(ts[1].values.iter().any(|&v| v != 0.5), "synthetic");
    }

    #[test]
    fn dataset_csv_feeds_a_catalog_end_to_end() {
        // The real-data integration path: synthesize -> export -> import
        // -> measured catalog must reproduce the original traces.
        let source = Catalog::europe(3);
        let names = ["NO-solar", "UK-wind"];
        let sites: Vec<Site> = names
            .iter()
            .map(|n| source.get(n).unwrap().clone())
            .collect();
        let traces: Vec<TimeSeries> = names.iter().map(|n| source.trace(n, 5, 2)).collect();
        let csv = crate::io::dataset_to_csv(&sites, &traces);
        let (sites2, traces2) = crate::io::dataset_from_csv(&csv).unwrap();
        let measured = Catalog::from_measured(sites2, traces2, 9);
        let round = measured.trace("UK-wind", 5, 2);
        for (a, b) in traces[1].values.iter().zip(&round.values) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
