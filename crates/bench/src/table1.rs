//! Table 1 + Figure 7 — "Comparison of migration overhead between
//! different scheduling policies".
//!
//! Runs the four §3.1 policies (Greedy, MIP-24h, MIP, MIP-peak) over a
//! 7-day period on one multi-VB group, all against identical arrival
//! sequences and power traces, and reports Total / 99 %ile / Peak / Std
//! of the per-interval migration volume (Table 1) plus the per-policy
//! volume CDFs and zero-fractions (Fig 7).

use vb_core::fleet::FleetPolicy;
use vb_sched::{GroupSim, GroupSimConfig, PolicySummary};
use vb_stats::report::{thousands, Table};
use vb_stats::Cdf;
use vb_trace::{Catalog, TRIO};

/// The full Table 1 / Fig 7 report.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// The multi-VB group the pipeline selected.
    pub group: Vec<String>,
    /// One summary per policy, in Table 1 row order.
    pub rows: Vec<PolicySummary>,
}

impl Table1Report {
    /// Summary for a named policy.
    pub fn row(&self, policy: &str) -> Option<&PolicySummary> {
        self.rows.iter().find(|r| r.policy == policy)
    }
}

/// Run the Table 1 experiment on the Figure 3 trio (the paper's
/// archetypal multi-VB group).
pub fn run(seed: u64) -> Table1Report {
    let cfg = GroupSimConfig {
        seed,
        ..GroupSimConfig::default()
    };
    run_on_group_with(seed, &TRIO, cfg)
}

/// Run the four policies over one group with an explicit sim config
/// (shorter `days` keeps determinism tests and CI fast).
///
/// Each policy run is independent — same catalog, same seeds, its own
/// simulator — so the four rows execute in parallel via `vb_par`. The
/// policy objects are constructed *inside* the task closure (a boxed
/// `dyn Policy` is not `Sync`), and row order is fixed by task index,
/// so the report is identical at any thread count.
pub fn run_on_group_with(seed: u64, names: &[&str], cfg: GroupSimConfig) -> Table1Report {
    let catalog = Catalog::europe(seed);
    let rows = vb_par::par_map(FleetPolicy::ALL, |p| {
        let mut policy = p.build();
        let summary = GroupSim::new(&catalog, names, cfg.clone())
            .expect("Table 1 sites must exist in the catalog")
            .run(policy.as_mut());
        // Per-policy solver accounting into the run report, so solver
        // regressions show up in `scripts/diff_run_reports.py`.
        if let Some(st) = policy.mip_stats() {
            vb_telemetry::event(
                "sched.mip_stats",
                &[
                    ("policy", policy.name().into()),
                    ("epochs_planned", st.epochs_planned.into()),
                    ("fallback_epochs", st.fallback_epochs.into()),
                    ("budget_stops", st.budget_stops.into()),
                ],
            );
        }
        summary
    });
    Table1Report {
        group: names.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

/// Print Table 1 and the Fig 7 CDF points.
pub fn print(report: &Table1Report) {
    println!("multi-VB group: {:?}", report.group);
    println!("\n== Table 1: migration overhead (GB) ==");
    let mut table = Table::new(&["Policy", "Total", "99%ile", "Peak", "Std", "Zero-steps"]);
    for r in &report.rows {
        table.row(&[
            r.policy.clone(),
            thousands(r.total_gb),
            thousands(r.p99_gb),
            thousands(r.peak_gb),
            thousands(r.std_gb),
            format!("{:.0}%", 100.0 * r.zero_fraction),
        ]);
    }
    print!("{}", table.render());

    if let (Some(greedy), Some(mip), Some(peak)) = (
        report.row("Greedy"),
        report.row("MIP"),
        report.row("MIP-peak"),
    ) {
        println!(
            "\nMIP total vs Greedy: {:.0}% lower  [paper: >30% lower]",
            100.0 * (1.0 - mip.total_gb / greedy.total_gb)
        );
        println!(
            "MIP-peak p99 vs Greedy: {:.1}x lower [paper: >4.2x]; std {:.1}x lower [paper: 2.7x]",
            greedy.p99_gb / peak.p99_gb.max(1e-9),
            greedy.std_gb / peak.std_gb.max(1e-9)
        );
    }

    println!("\n== Figure 7: CDF of per-interval migration volume (non-zero) ==");
    for r in &report.rows {
        let cdf = Cdf::of_nonzero(&r.per_step_gb);
        let pts = cdf.points(8);
        let series: Vec<String> = pts
            .iter()
            .map(|(x, p)| format!("({x:.0} GB, {p:.2})"))
            .collect();
        println!(
            "{:>8}: zeros {:.0}%  {}",
            r.policy,
            100.0 * r.zero_fraction,
            series.join(" ")
        );
    }
    println!("[paper zero-fractions: Greedy 81%, MIP 94%, MIP-peak 74%]");
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_sched::{GreedyPolicy, MipConfig, MipPolicy};

    #[test]
    fn table1_shape_holds() {
        // The qualitative Table 1 ordering, on a short 3-day run to keep
        // test time bounded (the bench runs the full 7 days).
        let catalog = Catalog::europe(42);
        let cfg = GroupSimConfig {
            days: 3,
            ..GroupSimConfig::default()
        };
        let mut greedy = GreedyPolicy::new();
        let mut mip = MipPolicy::new(MipConfig::mip());
        let g = GroupSim::new(&catalog, &TRIO, cfg.clone())
            .unwrap()
            .run(&mut greedy);
        let m = GroupSim::new(&catalog, &TRIO, cfg).unwrap().run(&mut mip);
        // Short windows are noisy (the 7-day bench run shows MIP ahead);
        // guard only against gross regressions here.
        assert!(
            m.total_gb < g.total_gb * 1.3,
            "MIP ({}) should not lose badly to Greedy ({})",
            m.total_gb,
            g.total_gb
        );
        assert_eq!(m.per_step_gb.len(), g.per_step_gb.len());
    }

    #[test]
    fn report_row_lookup() {
        let r = Table1Report {
            group: vec![],
            rows: vec![],
        };
        assert!(r.row("Greedy").is_none());
    }
}
