//! Figure 5 — "Energy prediction of solar and wind in near (3 hour, day
//! ahead) and far-away future (week ahead)".
//!
//! The paper reports MAPE of 8.5–9 % (3-hour), 18–25 % (day-ahead) and
//! 44 %/75 % for solar/wind week-ahead, and shows a 4-day sample of
//! actual vs forecast power.

use vb_stats::{mape_above, TimeSeries};
use vb_trace::{forecast_for, Catalog, Horizon};

/// MAPE evaluation floor (2 % of capacity; see `vb_stats::mape_above`).
pub const MAPE_FLOOR: f64 = 0.02;

/// One source's forecast evaluation.
#[derive(Debug, Clone)]
pub struct SourceForecast {
    pub source: &'static str,
    /// 4-day sample: actual plus one forecast series per horizon.
    pub actual_sample: TimeSeries,
    pub forecast_samples: Vec<(Horizon, TimeSeries)>,
    /// Year-long MAPE per horizon, percent.
    pub mape: Vec<(Horizon, f64)>,
}

/// The full Figure 5 report.
#[derive(Debug, Clone)]
pub struct Fig5Report {
    pub sources: Vec<SourceForecast>,
}

/// Evaluate the forecast engine exactly as the figure does.
pub fn run(seed: u64) -> Fig5Report {
    let catalog = Catalog::europe(seed);
    // Each source needs a year-long trace plus three forecast products —
    // independent per source, so evaluate both in parallel.
    const SOURCES: [(&str, &str); 2] = [("solar", "BE-solar"), ("wind", "BE-wind")];
    let sources = vb_par::par_map(SOURCES, |(label, name)| {
        let site = catalog.get(name).expect("catalog site");
        let year = catalog.trace(name, 0, 365);
        let mape = Horizon::all()
            .into_iter()
            .map(|h| {
                let f = forecast_for(&year, site, h, catalog.field());
                (h, mape_above(&year.values, &f.values, MAPE_FLOOR))
            })
            .collect();
        let sample = catalog.trace(name, 122, 4);
        let forecast_samples = Horizon::all()
            .into_iter()
            .map(|h| (h, forecast_for(&sample, site, h, catalog.field())))
            .collect();
        SourceForecast {
            source: label,
            actual_sample: sample,
            forecast_samples,
            mape,
        }
    });
    Fig5Report { sources }
}

/// Print the figure's series and MAPE table.
pub fn print(report: &Fig5Report) {
    for s in &report.sources {
        println!("== Figure 5 ({}) : 4-day sample, 3-hour means ==", s.source);
        print!("hour  actual");
        for (h, _) in &s.forecast_samples {
            print!("  {:>11}", h.label());
        }
        println!();
        let actual = s.actual_sample.downsample(12);
        let forecasts: Vec<TimeSeries> = s
            .forecast_samples
            .iter()
            .map(|(_, f)| f.downsample(12))
            .collect();
        for i in 0..actual.len() {
            print!("{:>4}  {:>6.3}", i * 3, actual.values[i]);
            for f in &forecasts {
                print!("  {:>11.3}", f.values[i]);
            }
            println!();
        }
        println!();
    }

    println!("== MAPE by horizon (paper bands in brackets) ==");
    let bands = [
        ("3Hour-Ahead", "8.5-9%"),
        ("Day-Ahead", "18-25%"),
        ("Week-Ahead", "44% solar / 75% wind"),
    ];
    for s in &report.sources {
        for (h, m) in &s.mape {
            let band = bands
                .iter()
                .find(|(l, _)| *l == h.label())
                .map(|(_, b)| *b)
                .unwrap_or("");
            println!("{:>5} {:>12}: {m:>5.1}%  [{band}]", s.source, h.label());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_lands_in_paper_bands() {
        let r = run(42);
        for s in &r.sources {
            let get = |h: Horizon| {
                s.mape
                    .iter()
                    .find(|(hh, _)| *hh == h)
                    .expect("horizon present")
                    .1
            };
            assert!((6.0..12.0).contains(&get(Horizon::Hours3)), "{}", s.source);
            assert!(
                (15.0..28.0).contains(&get(Horizon::DayAhead)),
                "{}",
                s.source
            );
            assert!(get(Horizon::WeekAhead) > get(Horizon::DayAhead));
        }
        // Week-ahead wind is much worse than week-ahead solar (75 vs 44).
        let week = |i: usize| r.sources[i].mape[2].1;
        assert!(week(1) > week(0), "wind {} vs solar {}", week(1), week(0));
    }

    #[test]
    fn samples_align() {
        let r = run(42);
        for s in &r.sources {
            for (_, f) in &s.forecast_samples {
                assert_eq!(f.len(), s.actual_sample.len());
            }
        }
    }
}
