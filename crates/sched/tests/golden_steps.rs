//! Golden step digests of the event-driven simulation core.
//!
//! Each constant below is an FNV-1a hash over every `GroupStepStats`
//! field of every step of one run (floats by bit pattern), followed by
//! the `PolicySummary` words `golden_mip.rs` hashes. A mismatch means
//! the runtime did something else at some step: a lost or spurious
//! wake-up, a phase run out of order, a different re-host target.
//!
//! The digests were recorded while `GroupSim` still had a second,
//! full-scan step driver that visited every site and every app at every
//! step. Each config ran under both drivers, in debug and in release,
//! and a digest was pinned only where the two drivers' runs agreed bit
//! for bit. So these values are the full-scan semantics, and the event
//! core must keep reproducing them.
//!
//! Each test also asserts, from its run, the activity it exists for
//! (drain moves, queued or hibernated apps), so a config that stops
//! exercising its path fails instead of pinning an idle run.
//!
//! Re-pinning: the Greedy-planned digests (Greedy, the draining Greedy,
//! the stressed sites and the fleet shard) never reach the solver; a
//! change to one needs a recorded cause in `CHANGES.md`. The
//! MIP-planned digests (MIP-24h, MIP-peak and the subgraph run) also
//! move when a plan moves. Re-pin those only together with
//! `golden_mip.rs`, and for the same recorded cause.
//!
//! Recorded re-pins:
//! * MIP-peak `0xe843_c481_b826_ffd1` → `0x4272_385a_f849_d3ab`, when
//!   the planner's preemptive moves were deleted and the drain became
//!   the only preemptive migration. The old digest offered up to eight
//!   movable apps to the MIP each epoch; the new one is the same run
//!   with none offered, computed on the commit before the deletion.
//!   The subgraph run offered them too and keeps
//!   `0xdfb7_ee02_6ef0_dde4`: without the offer it is bit-identical.
//!   The MIP-with-moves run (3 days, plain MIP) was deleted with the
//!   moves: without them it made none, and plain MIP's per-step volumes
//!   stay pinned by `golden_mip.rs`.

mod common;

use common::{fnv1a, summary_words};
use vb_sched::policy::SiteSnapshot;
use vb_sched::{
    AppGenConfig, Assignment, DetailedRun, GreedyPolicy, GroupSim, GroupSimConfig, GroupStepStats,
    MipConfig, MipPolicy, PlanContext, Policy, STEPS_PER_DAY,
};
use vb_trace::{Catalog, TRIO};

fn step_words(s: &GroupStepStats) -> [u64; 11] {
    [
        s.step,
        s.transfer_gb.to_bits(),
        s.rehost_gb.to_bits(),
        s.relaunch_gb.to_bits(),
        s.move_gb.to_bits(),
        s.transfers as u64,
        s.stranded_gb.to_bits(),
        s.queued_apps as u64,
        s.hibernated_apps as u64,
        s.allocated_cores,
        s.budget_cores,
    ]
}

fn run_digest(run: &DetailedRun) -> u64 {
    fnv1a(
        run.steps
            .iter()
            .flat_map(step_words)
            .chain(summary_words(&run.summary)),
    )
}

fn run(
    catalog: &Catalog,
    names: &[&str],
    cfg: GroupSimConfig,
    policy: &mut dyn Policy,
) -> DetailedRun {
    GroupSim::new(catalog, names, cfg)
        .expect("catalog sites exist")
        .run_detailed(policy)
}

fn assert_digest(label: &str, run: &DetailedRun, pinned: u64) {
    let digest = run_digest(run);
    assert!(
        digest == pinned,
        "{label}: step digest {digest:#018x}, pinned {pinned:#018x}"
    );
}

/// Does some step of `run` satisfy `pred`?
fn any_step(run: &DetailedRun, pred: impl Fn(&GroupStepStats) -> bool) -> bool {
    run.steps.iter().any(pred)
}

/// Table-1-sized group (three sites), two simulated days.
fn table1_cfg() -> GroupSimConfig {
    GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    }
}

fn table1_run(cfg: GroupSimConfig, policy: &mut dyn Policy) -> DetailedRun {
    run(&Catalog::europe(common::SEED), &TRIO, cfg, policy)
}

/// Greedy with the preemptive drain switched on: drives the drain
/// queue and its in-phase worklist without the solver, so its digest
/// holds when a solver change re-pins the MIP-planned ones.
struct DrainingGreedy(GreedyPolicy);

impl Policy for DrainingGreedy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment> {
        self.0.plan(ctx)
    }

    fn preemptive_drain(&self) -> bool {
        true
    }

    fn choose_rehost(&mut self, sites: &[SiteSnapshot], cores: u32) -> Option<usize> {
        self.0.choose_rehost(sites, cores)
    }
}

#[test]
fn greedy_steps_match_golden_digest() {
    let run = table1_run(table1_cfg(), &mut GreedyPolicy::new());
    assert!(any_step(&run, |s| s.rehost_gb > 0.0), "evictions re-host");
    assert!(any_step(&run, |s| s.hibernated_apps > 0), "apps hibernate");
    assert_digest("Greedy", &run, 0xd5f9_63d6_a820_83ce);
}

#[test]
fn mip_24h_steps_match_golden_digest() {
    let run = table1_run(table1_cfg(), &mut MipPolicy::new(MipConfig::mip_24h()));
    assert!(any_step(&run, |s| s.rehost_gb > 0.0), "evictions re-host");
    assert_digest("MIP-24h", &run, 0x6431_e054_627b_0afc);
}

/// MIP-peak: the preemptive drain, its event queue, its in-phase
/// worklist and the ascending-order rule.
#[test]
fn mip_peak_steps_match_golden_digest() {
    let run = table1_run(table1_cfg(), &mut MipPolicy::new(MipConfig::mip_peak()));
    assert!(run.summary.preemptive_moves > 0, "MIP-peak drains apps");
    assert_digest("MIP-peak", &run, 0x4272_385a_f849_d3ab);
}

/// Subgraph-restricted re-hosting (Fig 6 step 2) under the drain-heavy
/// policy: the movable-target restriction interacts with every phase.
#[test]
fn subgraph_steps_match_golden_digest() {
    let cfg = GroupSimConfig {
        cores_per_site: 400,
        days: 2,
        seed: 7,
        subgraphs: Some(vec![vec![0, 1], vec![2, 3]]),
        ..GroupSimConfig::default()
    };
    let names = [TRIO[0], TRIO[1], TRIO[2], "ES-wind"];
    let run = run(
        &Catalog::europe(common::SEED),
        &names,
        cfg,
        &mut MipPolicy::new(MipConfig::mip_peak()),
    );
    assert!(any_step(&run, |s| s.queued_apps > 0), "apps queue");
    assert!(run.summary.preemptive_moves > 0, "a drain move runs");
    assert_digest("subgraph MIP-peak", &run, 0xdfb7_ee02_6ef0_dde4);
}

/// Small sites under-provisioned for the workload: constant power
/// stress maximises hibernation, eviction and queue churn.
#[test]
fn stressed_small_sites_steps_match_golden_digest() {
    let cfg = GroupSimConfig {
        cores_per_site: 300,
        days: 2,
        seed: 11,
        ..GroupSimConfig::default()
    };
    let run = run(
        &Catalog::europe(common::SEED),
        &["NO-solar", "UK-wind"],
        cfg,
        &mut GreedyPolicy::new(),
    );
    assert!(any_step(&run, |s| s.queued_apps > 0), "apps queue");
    assert!(any_step(&run, |s| s.hibernated_apps > 0), "apps hibernate");
    assert!(run.summary.dropped_apps > 0, "a queued app expires");
    assert_digest("stressed Greedy", &run, 0xca45_5dc0_fb31_a392);
}

#[test]
fn draining_greedy_steps_match_golden_digest() {
    let run = table1_run(table1_cfg(), &mut DrainingGreedy(GreedyPolicy::new()));
    assert!(run.summary.preemptive_moves > 0, "the drain moves apps");
    assert_digest("draining Greedy", &run, 0xeb05_21e3_235a_4201);
}

/// The first shard of the `fleet_perf` bench's fleet (its seed and app
/// mix, daily epochs) for four weeks: the long-horizon regime, where
/// per-step work over every app ever admitted would grow quadratically.
#[test]
fn fleet_shard_steps_match_golden_digest() {
    let catalog = Catalog::fleet(common::SEED, 3);
    let names: Vec<&str> = catalog.sites().iter().map(|s| s.name.as_str()).collect();
    let cfg = GroupSimConfig {
        days: 28,
        seed: common::SEED + 1,
        epoch_steps: STEPS_PER_DAY,
        app_cfg: Some(AppGenConfig::fleet()),
        ..GroupSimConfig::default()
    };
    let run = run(&catalog, &names, cfg, &mut GreedyPolicy::new());
    assert!(any_step(&run, |s| s.hibernated_apps > 0), "apps hibernate");
    assert!(any_step(&run, |s| s.rehost_gb > 0.0), "evictions re-host");
    assert_digest("fleet shard Greedy", &run, 0x5e40_8128_320a_15bd);
}
