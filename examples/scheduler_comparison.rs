//! Scheduler comparison: the four §3.1 policies head-to-head on one
//! multi-VB group — a compact version of the Table 1 experiment with a
//! WAN-impact readout.
//!
//! ```sh
//! cargo run --release --example scheduler_comparison
//! ```
//!
//! Set `VB_REPORT_DIR=some/dir` to also write one telemetry JSONL run
//! report per policy (see `vb_telemetry::RunReport`).

use vb_net::WanModel;
use vb_sched::{GreedyPolicy, GroupSim, GroupSimConfig, MipConfig, MipPolicy, Policy};
use vb_stats::report::{thousands, Table};
use vb_trace::{Catalog, TRIO};

fn main() {
    let catalog = Catalog::europe(42);
    let cfg = GroupSimConfig::default();

    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(GreedyPolicy::new()),
        Box::new(MipPolicy::new(MipConfig::mip_24h())),
        Box::new(MipPolicy::new(MipConfig::mip())),
        Box::new(MipPolicy::new(MipConfig::mip_peak())),
    ];

    println!(
        "one week across {TRIO:?} ({} cores/site, demand ~70% of mean power)\n",
        cfg.cores_per_site
    );
    let mut table = Table::new(&[
        "Policy",
        "Total (GB)",
        "p99 (GB)",
        "Peak (GB)",
        "Std",
        "Quiet steps",
        "Moves",
        "Unavail (app-steps)",
    ]);
    let wan = WanModel::default();
    let mut wan_rows = Vec::new();
    let report_dir = std::env::var("VB_REPORT_DIR")
        .ok()
        .filter(|d| !d.is_empty());
    for p in policies.iter_mut() {
        vb_telemetry::reset();
        let s = GroupSim::new(&catalog, &TRIO, cfg.clone())
            .expect("comparison sites must exist in the catalog")
            .run(p.as_mut());
        if let Some(dir) = &report_dir {
            let report = vb_telemetry::RunReport::capture(&s.policy);
            let path = format!("{dir}/{}.jsonl", s.policy);
            if std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, report.to_jsonl()))
                .is_ok()
            {
                eprintln!("wrote telemetry report {path}");
            }
        }
        table.row(&[
            s.policy.clone(),
            thousands(s.total_gb),
            thousands(s.p99_gb),
            thousands(s.peak_gb),
            thousands(s.std_gb),
            format!("{:.0}%", 100.0 * s.zero_fraction),
            s.preemptive_moves.to_string(),
            s.unavailable_app_steps.to_string(),
        ]);
        // Drain this policy's transfer series through a 200 Gbps link.
        let worst_delay = wan
            .queue(&s.per_step_gb, 900.0)
            .iter()
            .filter_map(|l| l.delay_intervals)
            .max()
            .unwrap_or(0);
        let busy = wan.busy_fraction(&s.per_step_gb, 900.0);
        wan_rows.push((s.policy.clone(), busy, worst_delay));
    }
    print!("{}", table.render());

    println!("\nWAN impact at {} Gbps per site:", wan.site_link_gbps);
    for (policy, busy, delay) in wan_rows {
        println!(
            "  {policy:<16} link busy {:>4.1}% of the time, worst transfer delay {delay} interval(s)",
            100.0 * busy
        );
    }
}
