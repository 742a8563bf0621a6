//! Fleet-scale simulation benchmark: the step core on sharded fleets.
//!
//! Runs sharded fleets at paper-scale multiples of the Table 1 group —
//! 10× (30 sites) and 100× (300 sites) by default, 1000× opt-in via
//! `VB_FLEET_SCALES=10x,100x,1000x` — under Greedy, and writes each
//! scale's row to `BENCH_fleet.json` (`VB_BENCH_OUT` overrides the
//! path; empty string disables the file, `check_bench.py` gates the
//! committed baseline).
//!
//! Each row times the fleet driver's two calls separately: shard
//! construction (`vb_core::fleet::build_fleet`, trace and forecast
//! synthesis, `build_secs`) and the step loop (`run_fleet`,
//! `event_secs`). Next to them it reports the work behind the step
//! loop: the `sched.event_wakeups`, `sched.transfers`,
//! `sched.power_scan_visits` and `sched.resume_scan_visits` counters
//! as deltas over the timed run (the first counts the over-budget
//! sites the power phase visits, the last two the residents the
//! hibernate/evict and resume scans visit), and the summed VM
//! decisions, migration volume and dropped apps (the `FleetRun`
//! totals). It also prints the anchor
//! innovations shard construction drew and copied (`trace.anchor_draws`,
//! `trace.anchor_copied`), which depend on the thread count, since each
//! synthesizing thread keeps its own anchor-draw memo, so they are not
//! row keys. Throughput is reported as
//! site-steps/sec (`sites × steps / secs`) and VM-decisions/sec; memory
//! as the `VmHWM` peak-RSS proxy from `/proc/self/status` (0 where
//! unavailable), reset before each row so every row reports its own
//! peak.

use std::time::Instant;
use vb_bench::report::counter_now;
use vb_bench::DEFAULT_SEED;
use vb_core::fleet::{build_fleet, run_fleet, FleetPolicy, FleetRun, SHARD_SIZE};
use vb_sched::{AppGenConfig, GroupSimConfig};
use vb_telemetry::Json;
use vb_trace::Catalog;

/// Twelve weeks: over this horizon, any per-step work that walks every
/// app ever admitted would grow with the square of the run length.
const DAYS: u32 = 84;

/// Peak resident-set size in MB from `/proc/self/status` (`VmHWM`), or
/// 0.0 where the proc interface is unavailable (non-Linux).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Reset the `VmHWM` high-water mark to the current resident set, so the
/// next [`peak_rss_mb`] reads the peak since this call. Writing `5` to
/// `/proc/self/clear_refs` does this on Linux; where the write fails the
/// mark keeps the process-wide peak, which only overstates a row.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The anchor-draw memo's counters, printed as deltas over shard
/// construction.
const BUILD_COUNTERS: [&str; 2] = ["trace.anchor_draws", "trace.anchor_copied"];

/// The telemetry counters a row reports, as deltas over its step loop.
const COUNTERS: [&str; 4] = [
    "sched.event_wakeups",
    "sched.transfers",
    "sched.power_scan_visits",
    "sched.resume_scan_visits",
];

fn main() {
    let run = vb_bench::report::BenchRun::start("fleet_perf");
    let scales_env = std::env::var("VB_FLEET_SCALES").unwrap_or_else(|_| "10x,100x".to_string());
    // Validate the whole list before benchmarking anything: a typo in the
    // last entry must not surface after minutes of work on the earlier ones.
    let scales: Vec<(String, usize)> =
        match vb_bench::scales::parse_scales(&scales_env, "VB_FLEET_SCALES") {
            Ok(scales) => scales
                .into_iter()
                .map(|(label, mult)| (label, mult as usize * SHARD_SIZE))
                .collect(),
            Err(err) => {
                eprintln!("fleet_perf: {err}");
                std::process::exit(2);
            }
        };

    let cfg = GroupSimConfig {
        days: DAYS,
        seed: DEFAULT_SEED,
        epoch_steps: vb_sched::STEPS_PER_DAY,
        app_cfg: Some(AppGenConfig::fleet()),
        ..GroupSimConfig::default()
    };
    let steps = DAYS as u64 * vb_trace::STEPS_PER_DAY as u64;
    let mut rows: Vec<Json> = Vec::new();
    for (scale, n_sites) in &scales {
        reset_peak_rss();
        let catalog = Catalog::fleet(DEFAULT_SEED, *n_sites);
        let policy = FleetPolicy::Greedy;

        let built_before = BUILD_COUNTERS.map(counter_now);
        let t0 = Instant::now();
        let fleet = build_fleet(&catalog, &cfg).expect("fleet catalog names resolve");
        let build_secs = t0.elapsed().as_secs_f64();
        let [anchor_draws, anchor_copied] =
            std::array::from_fn(|k| counter_now(BUILD_COUNTERS[k]) - built_before[k]);
        let before = COUNTERS.map(counter_now);
        let t1 = Instant::now();
        let FleetRun {
            shards,
            total_gb,
            vm_decisions,
            dropped_apps,
            ..
        } = run_fleet(fleet, policy);
        let event_secs = t1.elapsed().as_secs_f64();
        let [event_wakeups, transfers, power_scan_visits, resume_scan_visits] =
            std::array::from_fn(|k| counter_now(COUNTERS[k]) - before[k]);

        let shards = shards.len();
        let site_steps = (*n_sites as u64 * steps) as f64;
        println!(
            "{scale}: {n_sites} sites x {steps} steps, {shards} shards [{}]",
            policy.name()
        );
        println!(
            "  build {build_secs:.3}s | run {event_secs:.3}s ({:.0} site-steps/s)",
            site_steps / event_secs
        );
        println!(
            "  {anchor_draws} anchor innovations drawn, {anchor_copied} copied from held windows"
        );
        println!("  {event_wakeups} wake-ups, {transfers} transfers");
        println!(
            "  {power_scan_visits} power-scan visits, {resume_scan_visits} resume-scan visits"
        );
        println!(
            "  {vm_decisions} VM decisions ({:.0}/s), {total_gb:.1} GB moved, {dropped_apps} dropped",
            vm_decisions as f64 / event_secs
        );
        rows.push(Json::Obj(vec![
            ("scale".into(), scale.as_str().into()),
            ("sites".into(), (*n_sites).into()),
            ("shards".into(), shards.into()),
            ("days".into(), DAYS.into()),
            ("steps".into(), steps.into()),
            ("policy".into(), policy.name().into()),
            ("build_secs".into(), build_secs.into()),
            ("event_secs".into(), event_secs.into()),
            (
                "event_steps_per_sec".into(),
                (site_steps / event_secs).into(),
            ),
            ("vm_decisions".into(), vm_decisions.into()),
            (
                "vm_decisions_per_sec".into(),
                (vm_decisions as f64 / event_secs).into(),
            ),
            ("event_wakeups".into(), event_wakeups.into()),
            ("transfers".into(), transfers.into()),
            ("power_scan_visits".into(), power_scan_visits.into()),
            ("resume_scan_visits".into(), resume_scan_visits.into()),
            ("total_gb".into(), total_gb.into()),
            ("dropped_apps".into(), dropped_apps.into()),
            ("peak_rss_mb".into(), peak_rss_mb().into()),
        ]));
    }

    vb_bench::report::write_bench_json(
        "BENCH_fleet.json",
        &[
            ("bench", "fleet_sim".into()),
            ("shard_size", SHARD_SIZE.into()),
            ("rows", Json::Arr(rows)),
        ],
    );
    run.finish();
}
