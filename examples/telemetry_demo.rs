//! Telemetry demo: run the same multi-VB group simulation under two
//! policies and compare what the observability layer recorded — solver
//! effort, planning latency, WAN traffic breakdown, and the structured
//! JSONL run report.
//!
//! ```sh
//! cargo run --release --example telemetry_demo
//! ```

use virtual_battery::vb_sched::{GreedyPolicy, GroupSim, GroupSimConfig, MipConfig, MipPolicy};
use virtual_battery::vb_telemetry::{self, RunReport};
use virtual_battery::vb_trace::{Catalog, TRIO};

fn cfg() -> GroupSimConfig {
    GroupSimConfig {
        cores_per_site: 2_000,
        days: 3,
        max_movable: 6,
        seed: 42,
        ..GroupSimConfig::default()
    }
}

/// Run one policy inside a fresh telemetry scope and capture its report.
fn run_policy(catalog: &Catalog, policy: &mut dyn virtual_battery::vb_sched::Policy) -> RunReport {
    vb_telemetry::reset();
    let summary = GroupSim::new(catalog, &TRIO, cfg())
        .expect("demo sites must exist in the catalog")
        .run(policy);
    println!(
        "{:<10} total {:>8.0} GB   peak {:>7.0} GB   preemptive moves {:>3}",
        summary.policy, summary.total_gb, summary.peak_gb, summary.preemptive_moves
    );
    RunReport::capture(&summary.policy)
}

fn metric(report: &RunReport, name: &str) -> String {
    if let Some(v) = report.snapshot.counter(name) {
        return format!("{v}");
    }
    if let Some(v) = report.snapshot.float_counter(name) {
        return format!("{v:.0}");
    }
    "-".into()
}

fn span_ms(report: &RunReport, name: &str) -> String {
    match report.snapshot.span(name) {
        Some(s) => format!("{:.1}ms ×{}", s.total_ns as f64 / 1e6, s.count),
        None => "-".into(),
    }
}

fn main() {
    let catalog = Catalog::europe(42);
    println!(
        "== group simulation: {} over {} days ==",
        TRIO.join(" + "),
        cfg().days
    );

    let greedy = run_policy(&catalog, &mut GreedyPolicy::new());
    let mip = run_policy(&catalog, &mut MipPolicy::new(MipConfig::mip_peak()));

    println!("\n== what the telemetry layer saw ==");
    println!("{:<34} {:>16} {:>16}", "metric", "Greedy", "MIP-peak");
    for name in [
        "sched.transfers",
        "sched.rehost_gb",
        "sched.relaunch_gb",
        "sched.move_gb",
        "sched.moves_planned",
        "sched.moves_executed",
        "sched.drain_moves",
        "solver.lp_solves",
        "solver.pivots",
        "solver.warm_start_hits",
        "solver.mip_nodes_expanded",
        "solver.mip_nodes_pruned",
    ] {
        println!(
            "{name:<34} {:>16} {:>16}",
            metric(&greedy, name),
            metric(&mip, name)
        );
    }
    println!(
        "\n{:<34} {:>16} {:>16}",
        "span (total × count)", "Greedy", "MIP-peak"
    );
    for name in [
        "sched.group_run",
        "sched.sim_step",
        "sched.greedy_plan",
        "sched.mip_plan",
    ] {
        println!(
            "{name:<34} {:>16} {:>16}",
            span_ms(&greedy, name),
            span_ms(&mip, name)
        );
    }

    let jsonl = mip.to_jsonl();
    println!(
        "\nMIP-peak run report: {} JSONL lines ({} events + summary); first line:",
        jsonl.lines().count(),
        mip.events.len()
    );
    println!("{}", jsonl.lines().next().unwrap_or_default());
}
