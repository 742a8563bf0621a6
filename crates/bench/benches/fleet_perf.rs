//! Fleet-scale simulation benchmark: the event-driven step core on
//! sharded fleets.
//!
//! Runs sharded fleets at paper-scale multiples of the Table 1 group —
//! 10× (30 sites) and 100× (300 sites) by default, 1000× opt-in via
//! `VB_FLEET_SCALES=10x,100x,1000x` — under Greedy, and writes each
//! scale's row to `BENCH_fleet.json` (`VB_BENCH_OUT` overrides the
//! path; empty string disables the file, `check_bench.py` gates the
//! committed baseline).
//!
//! Each row times shard construction (trace and forecast synthesis,
//! `build_secs`) and the step loop (`event_secs`) separately, and
//! reports next to them the work behind the step loop: the
//! `sched.event_wakeups`, `sched.stale_events` and `sched.transfers`
//! counters as deltas over the timed run, and the summed VM decisions,
//! migration volume and dropped apps. Throughput is reported as
//! site-steps/sec (`sites × steps / secs`) and VM-decisions/sec; memory
//! as the `VmHWM` peak-RSS proxy from `/proc/self/status` (0 where
//! unavailable), reset before each row so every row reports its own
//! peak.

use std::sync::Mutex;
use std::time::Instant;
use vb_bench::report::counter_now;
use vb_core::fleet::{shard_names, FleetPolicy};
use vb_sched::{AppGenConfig, GroupSim, GroupSimConfig, PolicySummary};
use vb_telemetry::Json;
use vb_trace::Catalog;

/// Sites per shard: the Table 1 multi-VB group size.
const SHARD_SIZE: usize = 3;
const DAYS: u32 = 84;
const SEED: u64 = 42;

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

fn fleet_cfg() -> GroupSimConfig {
    GroupSimConfig {
        days: DAYS,
        seed: SEED,
        // Fixed per-shard arrival rate (rather than auto-sizing per
        // shard's weather draw): every shard sees a comparable workload
        // and the fleet's total VM count scales linearly with the site
        // count — the follow-up paper's ~10⁵–10⁶ VM regime. Many tiny
        // apps (1–2 VMs × 2 cores), almost all degradable (the
        // renewable-DC premise: batch work that hibernates through dips
        // rather than migrating), at calm ~15 % occupancy: 4/step ×
        // ~198-step mean lifetime × ~3 cores ≈ 2.4 k cores against
        // ≈ 17–20 k admissible. Quiescent steps are the fleet norm the
        // event core exploits, and over the twelve-week horizon any
        // per-step work that walks every app ever admitted would grow
        // with the square of the run length.
        epoch_steps: vb_sched::STEPS_PER_DAY,
        app_cfg: Some(AppGenConfig {
            arrivals_per_step: 4.0,
            vms_min: 1,
            vms_max: 2,
            cores_per_vm: 2,
            degradable_fraction: 0.95,
            ..AppGenConfig::default()
        }),
        ..GroupSimConfig::default()
    }
}

/// The telemetry counters a row reports, as deltas over its step loop.
const COUNTERS: [&str; 3] = [
    "sched.event_wakeups",
    "sched.stale_events",
    "sched.transfers",
];

/// One scale's shards: summaries in shard order, the wall-clock of
/// shard construction and of the step loop, and the [`COUNTERS`]
/// deltas over the step loop.
struct ShardRuns {
    summaries: Vec<PolicySummary>,
    build_secs: f64,
    event_secs: f64,
    counts: [u64; 3],
}

/// Build every shard's sim, then run them all, timing each stage.
fn run_shards(catalog: &Catalog, shards: &[Vec<String>], policy: FleetPolicy) -> ShardRuns {
    let t0 = Instant::now();
    let sims: Vec<Mutex<Option<GroupSim>>> = vb_par::par_map(shards.len(), |i| {
        let names: Vec<&str> = shards[i].iter().map(String::as_str).collect();
        let cfg = GroupSimConfig {
            // Same per-shard seed derivation as `vb_core::fleet::run_fleet`.
            seed: SEED.wrapping_add(1 + i as u64),
            ..fleet_cfg()
        };
        GroupSim::new(catalog, &names, cfg).expect("fleet catalog names resolve")
    })
    .into_iter()
    .map(|sim| Mutex::new(Some(sim)))
    .collect();
    let build_secs = t0.elapsed().as_secs_f64();

    let before = COUNTERS.map(counter_now);
    let t1 = Instant::now();
    let summaries = vb_par::par_map(shards.len(), |i| {
        let sim = sims[i]
            .lock()
            .expect("no panics while holding the sim slot")
            .take()
            .expect("each shard slot is taken exactly once");
        let mut policy = policy.build();
        sim.run(policy.as_mut())
    });
    let event_secs = t1.elapsed().as_secs_f64();
    ShardRuns {
        summaries,
        build_secs,
        event_secs,
        counts: std::array::from_fn(|k| counter_now(COUNTERS[k]) - before[k]),
    }
}

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

    let steps = DAYS as u64 * vb_trace::STEPS_PER_DAY as u64;
    let mut rows: Vec<Json> = Vec::new();
    for (scale, n_sites) in &scales {
        reset_peak_rss();
        let catalog = Catalog::fleet(SEED, *n_sites);
        let shards = shard_names(&catalog, SHARD_SIZE);
        let policy = FleetPolicy::Greedy;

        let ShardRuns {
            summaries,
            build_secs,
            event_secs,
            counts: [event_wakeups, stale_events, transfers],
        } = run_shards(&catalog, &shards, policy);

        let vm_decisions: u64 = summaries.iter().map(|s| s.vm_decisions).sum();
        let total_gb: f64 = summaries.iter().map(|s| s.total_gb).sum();
        let dropped_apps: usize = summaries.iter().map(|s| s.dropped_apps).sum();
        let site_steps = (*n_sites as u64 * steps) as f64;
        println!(
            "{scale}: {n_sites} sites x {steps} steps, {} shards [{}]",
            shards.len(),
            policy.name()
        );
        println!(
            "  build {build_secs:.3}s | run {event_secs:.3}s ({:.0} site-steps/s)",
            site_steps / event_secs
        );
        println!("  {event_wakeups} wake-ups, {stale_events} stale events, {transfers} transfers");
        println!(
            "  {vm_decisions} VM decisions ({:.0}/s), {total_gb:.1} GB moved, {dropped_apps} dropped",
            vm_decisions as f64 / event_secs
        );
        rows.push(Json::Obj(vec![
            ("scale".into(), scale.as_str().into()),
            ("sites".into(), (*n_sites).into()),
            ("shards".into(), shards.len().into()),
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
            ("stale_events".into(), stale_events.into()),
            ("transfers".into(), transfers.into()),
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
