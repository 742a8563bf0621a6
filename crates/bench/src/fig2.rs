//! Figure 2 — "Quantifying Variability for solar and wind".
//!
//! * **Fig 2a**: a 4-day sample of normalized solar and wind power,
//!   showing solar's diurnal bells (overcast vs sunny vs variable days)
//!   and wind's sharp peaks and valleys.
//! * **Fig 2b**: the CDF of power generation over a year, with the
//!   paper's quoted statistics — >50 % zero solar samples, wind median
//!   ≤20 % of peak, p99/p75 tail ratios of ≈4× (solar) and ≈2× (wind).

use vb_stats::{Cdf, Summary, TimeSeries};
use vb_trace::Catalog;

/// Everything Figure 2 shows, for one (solar, wind) site pair.
#[derive(Debug, Clone)]
pub struct Fig2Report {
    /// 4-day 15-minute sample series (Fig 2a).
    pub solar_sample: TimeSeries,
    pub wind_sample: TimeSeries,
    /// One-year CDFs (Fig 2b).
    pub solar_cdf: Cdf,
    pub wind_cdf: Cdf,
    /// Year statistics.
    pub solar_stats: Summary,
    pub wind_stats: Summary,
    pub solar_zero_fraction: f64,
    pub wind_zero_fraction: f64,
}

/// Generate the Figure 2 data: the ELIA-like Belgian sites, 4 days of
/// May for the sample, a full year for the CDFs.
pub fn run(seed: u64) -> Fig2Report {
    let catalog = Catalog::europe(seed);
    // Day-of-year 122 ≈ May 3, matching Fig 2a's "Day 03..07 (May 2020)".
    // The four traces (two sites × sample/year) are independent; the
    // year-long ones dominate, so generate all four in parallel.
    let specs: [(&str, u32, u32); 4] = [
        ("BE-solar", 122, 4),
        ("BE-wind", 122, 4),
        ("BE-solar", 0, 365),
        ("BE-wind", 0, 365),
    ];
    let mut traces = vb_par::par_map(specs, |(name, start, days)| {
        catalog.trace(name, start, days)
    })
    .into_iter();
    let solar_sample = traces.next().expect("four traces");
    let wind_sample = traces.next().expect("four traces");
    let solar_year = traces.next().expect("four traces");
    let wind_year = traces.next().expect("four traces");

    let zero_frac =
        |t: &TimeSeries| t.values.iter().filter(|&&v| v == 0.0).count() as f64 / t.len() as f64;
    Fig2Report {
        solar_zero_fraction: zero_frac(&solar_year),
        wind_zero_fraction: zero_frac(&wind_year),
        solar_stats: Summary::of(&solar_year.values),
        wind_stats: Summary::of(&wind_year.values),
        solar_cdf: Cdf::of(&solar_year.values),
        wind_cdf: Cdf::of(&wind_year.values),
        solar_sample,
        wind_sample,
    }
}

/// Print the figure's series and statistics.
pub fn print(report: &Fig2Report) {
    println!("== Figure 2a: 4-day power sample (normalized, hourly means) ==");
    println!("hour  solar  wind");
    let solar_h = report.solar_sample.downsample(4);
    let wind_h = report.wind_sample.downsample(4);
    for (i, (s, w)) in solar_h.values.iter().zip(&wind_h.values).enumerate() {
        println!("{i:>4}  {s:.3}  {w:.3}");
    }

    println!("\n== Figure 2b: CDF of power generation over a year ==");
    println!("power  P(solar<=x)  P(wind<=x)");
    for i in 0..=20 {
        let x = i as f64 * 0.05;
        println!(
            "{x:.2}   {:.3}        {:.3}",
            report.solar_cdf.eval(x),
            report.wind_cdf.eval(x)
        );
    }

    println!("\n== §2.2 statistics (paper values in brackets) ==");
    println!(
        "solar zero fraction: {:.2}  [>0.50]",
        report.solar_zero_fraction
    );
    println!(
        "wind median of peak: {:.2}  [<=0.20]",
        report.wind_stats.p50
    );
    println!(
        "solar p99/p75:       {:.1}x [~4x]",
        report.solar_stats.tail_ratio()
    );
    println!(
        "wind  p99/p75:       {:.1}x [~2x]",
        report.wind_stats.tail_ratio()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_matches_paper_shape() {
        let r = run(42);
        assert_eq!(r.solar_sample.len(), 4 * 96);
        assert_eq!(r.wind_sample.len(), 4 * 96);
        assert!(r.solar_zero_fraction > 0.5);
        assert!(r.wind_stats.p50 <= 0.25);
        assert!(r.solar_stats.tail_ratio() > r.wind_stats.tail_ratio());
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(1);
        let b = run(1);
        assert_eq!(a.solar_sample, b.solar_sample);
        assert_eq!(a.wind_stats, b.wind_stats);
    }
}
