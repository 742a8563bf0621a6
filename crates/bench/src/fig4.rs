//! Figure 4 — "Network overhead of migration in a multi-VB setting",
//! plus the §3 and §5 WAN statistics.
//!
//! * **Fig 4a**: one week of per-interval in/out migration traffic for a
//!   ≈700-server site under real (here: synthetic ELIA-like) power,
//!   with the observation that ">80 % of the power changes don't incur
//!   migrations".
//! * **Fig 4b**: the CDF of migration volume over 3 months, for solar
//!   and wind, in and out, non-zero values only; the paper quotes
//!   p99/p50 of 18–30× (in) and 12.5–16× (out).
//! * **§3**: a 10 TB spike needs ≈200 Gbps to drain in 5 minutes —
//!   roughly 40 % of a site's share of a 50 Tbps aggregate WAN.
//! * **§5**: at 200 Gbps per site, the link is busy migrating only
//!   2–4 % of the time.

use vb_cluster::{simulate_paper_site, SimOutput};
use vb_net::WanModel;
use vb_stats::{Cdf, Summary};
use vb_trace::Catalog;

/// One source's three-month simulation results.
#[derive(Debug, Clone)]
pub struct SourceOverhead {
    pub source: &'static str,
    /// Non-zero out-migration volumes, GB per 15 min.
    pub out_cdf: Cdf,
    /// Non-zero in-migration volumes.
    pub in_cdf: Cdf,
    pub out_stats: Summary,
    pub in_stats: Summary,
    /// Fraction of power-change steps without any migration.
    pub quiet_fraction: f64,
    /// Largest single-interval out spike, GB.
    pub peak_out_gb: f64,
    /// Fraction of time a 200 Gbps site link is busy migrating.
    pub busy_fraction: f64,
}

/// The full Figure 4 report.
#[derive(Debug, Clone)]
pub struct Fig4Report {
    /// One-week sample run (wind), for the Fig 4a series.
    pub week: SimOutput,
    /// Three-month statistics for wind and solar (Fig 4b).
    pub sources: Vec<SourceOverhead>,
    /// WAN model used for the §3/§5 statistics.
    pub wan: WanModel,
}

/// Run the Figure 4 simulations: one week for the time series, three
/// months per source for the CDFs.
pub fn run(seed: u64) -> Fig4Report {
    let catalog = Catalog::europe(seed);
    let wan = WanModel::default();

    let week_power = catalog.trace("BE-wind", 122, 7);
    let week = simulate_paper_site(&week_power, seed);

    // The three-month per-source simulations are independent; run them
    // in parallel (the Fig 4a week run above is cheap by comparison).
    const SOURCES: [(&str, &str); 2] = [("wind", "BE-wind"), ("solar", "BE-solar")];
    let runs = vb_par::par_map(SOURCES, |(_, name)| {
        let power = catalog.trace(name, 60, 90); // 3 months from March
        simulate_paper_site(&power, seed)
    });
    let sources = SOURCES
        .iter()
        .zip(runs)
        .map(|(&(label, _), out)| {
            let outs = out.out_gb();
            let ins = out.in_gb();
            let all: Vec<f64> = outs.iter().zip(&ins).map(|(a, b)| a + b).collect();
            // Per-interval WAN busy series: when the link was saturated,
            // not just how often on average (§5's headline number).
            let (busy_secs, _carry) = wan.busy_profile(&all, 900.0);
            for (interval, busy) in busy_secs.iter().enumerate() {
                vb_telemetry::series_sample(
                    "net.wan_interval",
                    label,
                    interval as u64,
                    &[("busy_fraction", busy / 900.0), ("total_gb", all[interval])],
                );
            }
            let out_cdf = Cdf::of_nonzero(&outs);
            let in_cdf = Cdf::of_nonzero(&ins);
            SourceOverhead {
                source: label,
                out_stats: summary_or_zero(out_cdf.sorted_values()),
                in_stats: summary_or_zero(in_cdf.sorted_values()),
                out_cdf,
                in_cdf,
                quiet_fraction: out.quiet_change_fraction(0.002),
                peak_out_gb: outs.iter().copied().fold(0.0, f64::max),
                busy_fraction: wan.busy_fraction(&all, 900.0),
            }
        })
        .collect();

    Fig4Report { week, sources, wan }
}

fn summary_or_zero(values: &[f64]) -> Summary {
    if values.is_empty() {
        Summary::of(&[0.0])
    } else {
        Summary::of(values)
    }
}

/// Print the figure's rows.
pub fn print(report: &Fig4Report) {
    println!("== Figure 4a: one week of migration traffic (wind site, 3-hour bins) ==");
    println!("hour  power  out(GB)  in(GB)");
    let n = report.week.steps.len();
    for chunk_start in (0..n).step_by(12) {
        let chunk = &report.week.steps[chunk_start..(chunk_start + 12).min(n)];
        let power: f64 = chunk.iter().map(|s| s.power_frac).sum::<f64>() / chunk.len() as f64;
        let out: f64 = chunk.iter().map(|s| s.out_gb).sum();
        let inn: f64 = chunk.iter().map(|s| s.in_gb).sum();
        println!("{:>4}  {power:.2}  {out:>8.0}  {inn:>7.0}", chunk_start / 4);
    }
    println!(
        "\nquiet power changes (no migration): {:.0}%  [paper: >80%]",
        100.0 * report.week.quiet_change_fraction(0.002)
    );

    println!("\n== Figure 4b: CDF of migration volume over 3 months (non-zero) ==");
    for s in &report.sources {
        println!(
            "{:>5}: out p50={:>6.0} p99={:>7.0} (p99/p50 {:>4.1}x [12.5-16x]) | in p50={:>6.0} p99={:>7.0} (p99/p50 {:>4.1}x [18-30x])",
            s.source,
            s.out_stats.p50,
            s.out_stats.p99,
            s.out_stats.p99_over_p50(),
            s.in_stats.p50,
            s.in_stats.p99,
            s.in_stats.p99_over_p50(),
        );
        println!(
            "       quiet changes {:.0}%  peak out {:.0} GB  link busy {:.1}% of time [paper: 2-4%]",
            100.0 * s.quiet_fraction,
            s.peak_out_gb,
            100.0 * s.busy_fraction
        );
    }

    println!("\n== §3 WAN headroom for the observed peak ==");
    let peak = report
        .sources
        .iter()
        .map(|s| s.peak_out_gb)
        .fold(0.0, f64::max);
    println!(
        "peak spike {:.0} GB -> {:.0} Gbps to drain in 5 min = {:.0}% of the per-site WAN share [paper: 10 TB -> ~200 Gbps -> ~40%]",
        peak,
        report.wan.required_gbps(peak),
        100.0 * report.wan.share_fraction(peak)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_both_sources_and_sane_stats() {
        let r = run(42);
        assert_eq!(r.sources.len(), 2);
        for s in &r.sources {
            assert!(
                s.quiet_fraction > 0.5,
                "{}: quiet {}",
                s.source,
                s.quiet_fraction
            );
            assert!(s.peak_out_gb > 100.0, "{}: spikes expected", s.source);
            assert!(s.out_stats.p99_over_p50() > 2.0, "{}: heavy tail", s.source);
            assert!(
                s.busy_fraction < 0.2,
                "{}: migration is rare on a 200 Gbps link",
                s.source
            );
        }
    }

    #[test]
    fn week_series_covers_seven_days() {
        let r = run(42);
        assert_eq!(r.week.steps.len(), 7 * 96);
    }

    #[test]
    fn section5_headline_busy_fraction_band() {
        // §5: "migration occurs only 2-4% of the time assuming 200 Gbps
        // WAN link per VB site." The synthetic catalog lands in the same
        // regime (a few percent at most, clearly non-zero); this pins
        // the order of magnitude so WAN accounting changes — like the
        // backlog carry-over — can't silently inflate or zero it.
        let r = run(42);
        for s in &r.sources {
            assert!(
                (0.001..0.05).contains(&s.busy_fraction),
                "{}: busy fraction {} outside the §5 few-percent band",
                s.source,
                s.busy_fraction
            );
        }
    }
}
