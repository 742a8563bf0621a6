//! Telemetry demo: run the same multi-VB group simulation under two
//! policies and compare what the observability layer recorded — solver
//! effort, planning latency, WAN traffic breakdown, and the structured
//! JSONL run report.
//!
//! ```sh
//! cargo run --release --example telemetry_demo
//! ```

use virtual_battery::vb_sched::{GreedyPolicy, GroupSim, GroupSimConfig, MipConfig, MipPolicy};
use virtual_battery::vb_telemetry::{self, PhaseStat, RunReport};
use virtual_battery::vb_trace::{Catalog, TRIO};

fn cfg() -> GroupSimConfig {
    GroupSimConfig {
        cores_per_site: 2_000,
        days: 3,
        seed: 42,
        ..GroupSimConfig::default()
    }
}

/// Run one policy inside a fresh telemetry scope; capture its report and
/// the per-phase breakdown of its trace timeline.
fn run_policy(
    catalog: &Catalog,
    policy: &mut dyn virtual_battery::vb_sched::Policy,
) -> (RunReport, Vec<PhaseStat>) {
    vb_telemetry::reset();
    let summary = GroupSim::new(catalog, &TRIO, cfg())
        .expect("demo sites must exist in the catalog")
        .run(policy);
    println!(
        "{:<10} total {:>8.0} GB   peak {:>7.0} GB   preemptive moves {:>3}",
        summary.policy, summary.total_gb, summary.peak_gb, summary.preemptive_moves
    );
    let trace = vb_telemetry::chrome_trace_json(&vb_telemetry::trace_events());
    let spans = vb_telemetry::parse_chrome_trace(&trace).expect("an exported trace parses");
    (
        RunReport::capture(&summary.policy),
        vb_telemetry::phase_breakdown(&spans),
    )
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

fn span_ms(phases: &[PhaseStat], name: &str) -> String {
    match phases.iter().find(|p| p.name == name) {
        Some(p) => format!(
            "{:.1}ms / {:.1}ms ×{}",
            p.total_us / 1e3,
            p.self_us / 1e3,
            p.count
        ),
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

    let (greedy, greedy_phases) = run_policy(&catalog, &mut GreedyPolicy::new());
    let (mip, mip_phases) = run_policy(&catalog, &mut MipPolicy::new(MipConfig::mip_peak()));

    println!("\n== what the telemetry layer saw ==");
    println!("{:<34} {:>16} {:>16}", "metric", "Greedy", "MIP-peak");
    for name in [
        "sched.transfers",
        "sched.rehost_gb",
        "sched.relaunch_gb",
        "sched.move_gb",
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
        "\n{:<34} {:>20} {:>20}",
        "span (total / self × count)", "Greedy", "MIP-peak"
    );
    for name in [
        "sched.group_run",
        "sched.sim_epoch",
        "sched.greedy_plan",
        "sched.mip_plan",
    ] {
        println!(
            "{name:<34} {:>20} {:>20}",
            span_ms(&greedy_phases, name),
            span_ms(&mip_phases, name)
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
