//! Migration planner: the §3 single-site experiment as a what-if tool.
//! Run a ≈700-server renewable-powered site against its power trace and
//! size the WAN link that keeps migration bursts drainable.
//!
//! ```sh
//! cargo run --release --example migration_planner [site-name] [days]
//! ```

use vb_cluster::simulate_paper_site;
use vb_net::WanModel;
use vb_stats::{Cdf, Summary};
use vb_trace::Catalog;

fn main() {
    let mut args = std::env::args().skip(1);
    let site = args.next().unwrap_or_else(|| "BE-wind".to_string());
    let days: u32 = args.next().and_then(|d| d.parse().ok()).unwrap_or(30);

    let catalog = Catalog::europe(42);
    if catalog.get(&site).is_none() {
        eprintln!("unknown site {site}");
        std::process::exit(1);
    }
    println!("simulating {days} days at {site} (700 servers, 28 000 cores, 70% admission target)…");
    let power = catalog.trace(&site, 60, days);
    let out = simulate_paper_site(&power, 42);

    let outs = out.out_gb();
    let ins = out.in_gb();
    let all: Vec<f64> = outs.iter().zip(&ins).map(|(a, b)| a + b).collect();
    let total: f64 = all.iter().sum();
    println!(
        "\nmigration traffic: {:.1} TB total ({:.1} TB out, {:.1} TB in)",
        total / 1_000.0,
        outs.iter().sum::<f64>() / 1_000.0,
        ins.iter().sum::<f64>() / 1_000.0
    );
    println!(
        "quiet power changes: {:.0}% caused no migration",
        100.0 * out.quiet_change_fraction(0.002)
    );
    let nonzero = Cdf::of_nonzero(&all);
    if !nonzero.is_empty() {
        let s = Summary::of(nonzero.sorted_values());
        println!(
            "burst sizes (non-zero intervals): p50 {:.0} GB, p99 {:.0} GB, max {:.0} GB",
            s.p50, s.p99, s.max
        );
    }

    // Size the WAN link: find the smallest capacity whose worst transfer
    // delay stays within one 15-minute interval.
    println!("\nWAN link sizing:");
    println!("Gbps   busy%  backlog-max(GB)  worst-delay(intervals)");
    for gbps in [50.0, 100.0, 200.0, 400.0] {
        let (busy, max_backlog, worst_delay) = link_sizing(&all, gbps);
        println!(
            "{gbps:>4.0}   {:>4.1}  {max_backlog:>15.0}  {worst_delay:>6}",
            100.0 * busy
        );
    }
    println!(
        "\n(the paper provisions 200 Gbps per site; §5 expects it busy only 2-4% of the time)"
    );
}

/// One row of the WAN sizing table: the fraction of time a `gbps` link
/// is busy draining the per-interval volumes `gb` (GB per 15 minutes),
/// its largest backlog in GB, and its worst transfer delay in intervals.
pub fn link_sizing(gb: &[f64], gbps: f64) -> (f64, f64, u64) {
    let wan = WanModel {
        site_link_gbps: gbps,
        ..WanModel::default()
    };
    let queue = wan.queue(gb, 900.0);
    let max_backlog = queue.iter().map(|s| s.backlog_gb).fold(0.0, f64::max);
    let worst_delay = queue
        .iter()
        .filter_map(|s| s.delay_intervals)
        .max()
        .unwrap_or(0);
    (wan.busy_fraction(gb, 900.0), max_backlog, worst_delay)
}
