//! Group synthesis: the traces and forecasts of a set of sites from one
//! batch of weather draws.
//!
//! The sites of a multi-VB group share weather (§2.3): every driver of
//! every site blends the same anchor streams of the [`WeatherField`],
//! and a site's forecast errors read the gust channel's anchors too.
//! [`synthesize`] gathers every AR(1) request of a group — each
//! synthetic site's two trace drivers, then one error stream per
//! requested forecast horizon — and passes them to
//! [`WeatherField::ar1_batch`] in one call, which draws each shared
//! stream once. The one-site entry points ([`crate::generate_in`],
//! [`crate::Catalog::trace`]) call it with a single site, so a site's
//! series never depend on which group it was synthesized in.

use crate::forecast::{degrade, error_request, ForecastParams, Horizon};
use crate::{Site, SolarModel, SourceKind, WeatherField, WindModel};
use vb_stats::TimeSeries;

/// One site's series from a group synthesis
/// ([`crate::Catalog::group_series`]) with forecasts at `H` horizons.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSeries<const H: usize> {
    /// Normalized generation over the window (0..=1 of capacity).
    pub actual: TimeSeries,
    /// Forecasts of `actual`, one per requested horizon, in the order
    /// the horizons were requested.
    pub forecasts: [TimeSeries; H],
}

/// Where one site's actual generation comes from.
pub(crate) enum Source<'a> {
    /// The site's synthetic generator.
    Synthetic(&'a Site),
    /// Measured data, already cut to the window.
    Measured(&'a Site, TimeSeries),
}

impl<'a> Source<'a> {
    fn site(&self) -> &'a Site {
        match *self {
            Source::Synthetic(site) | Source::Measured(site, _) => site,
        }
    }
}

/// The series of every source over `[start_day, start_day + days)`, in
/// source order, with a forecast at each of `horizons`.
pub(crate) fn synthesize<const H: usize>(
    field: &WeatherField,
    sources: Vec<Source<'_>>,
    start_day: u32,
    days: u32,
    horizons: [Horizon; H],
) -> Vec<SiteSeries<H>> {
    let (solar, wind) = (SolarModel::default(), WindModel::default());
    let n = days as usize * crate::STEPS_PER_DAY;
    let mut requests = Vec::new();
    for source in &sources {
        let site = source.site();
        // The forecast error window follows the actual series' own axis.
        let (start_secs, interval_secs, len) = match source {
            Source::Synthetic(_) => {
                match site.kind {
                    SourceKind::Solar => requests.extend(solar.drivers(site, start_day, days)),
                    SourceKind::Wind => requests.extend(wind.drivers(site, start_day, days)),
                }
                (start_day as u64 * 86_400, crate::INTERVAL_15M, n)
            }
            Source::Measured(_, data) => (data.start_secs, data.interval_secs, data.len()),
        };
        for horizon in horizons {
            let params = ForecastParams::for_horizon(horizon, site.kind);
            requests.push(error_request(
                site,
                horizon,
                params,
                start_secs,
                interval_secs,
                len,
            ));
        }
    }

    let mut drivers = field.ar1_batch(&requests).into_iter();
    let mut next = || drivers.next().expect("one driver series per request");
    sources
        .into_iter()
        .map(|source| {
            let site = source.site();
            let actual = match source {
                Source::Synthetic(_) => {
                    let (a, b) = (next(), next());
                    match site.kind {
                        SourceKind::Solar => solar.shape(site, start_day, days, &a, &b),
                        SourceKind::Wind => wind.shape(start_day, days, &a, &b),
                    }
                }
                Source::Measured(_, data) => data,
            };
            // `from_fn` walks the array forward: requests are consumed in
            // the order they were pushed.
            let forecasts = std::array::from_fn(|k| {
                let params = ForecastParams::for_horizon(horizons[k], site.kind);
                degrade(&actual, params, &next())
            });
            SiteSeries { actual, forecasts }
        })
        .collect()
}
