//! Pinned determinism contracts: every experiment artifact must be
//! *identical* — not statistically close — at any thread count, and the
//! cross-epoch solver warm start must be a pure performance lever (same
//! schedules, fewer pivots). `vb_par::with_threads` scopes are
//! serialised process-wide, so these tests cannot interleave their
//! overrides — the epoch test reads the process-global telemetry
//! registry and therefore does *all* its work inside one scope.

use vb_bench::table1;
use vb_sched::policy::{AppId, MovableApp, NewApp, PlanContext, SitePlanInfo};
use vb_sched::{
    identify_subgraphs, AppSpec, GroupSimConfig, MipConfig, MipPolicy, PipelineConfig, Policy,
};
use vb_trace::Catalog;

/// Short Table 1 run (the full bench uses 7 days; 2 keeps CI fast).
fn short_cfg() -> GroupSimConfig {
    GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    }
}

#[test]
fn table1_rows_bit_match_sequential() {
    let names = ["NO-solar", "UK-wind", "PT-wind"];
    let sequential = vb_par::with_threads(1, || table1::run_on_group_with(7, &names, short_cfg()));
    for threads in [2, 8] {
        let parallel = vb_par::with_threads(threads, || {
            table1::run_on_group_with(7, &names, short_cfg())
        });
        assert_eq!(parallel.group, sequential.group);
        assert_eq!(
            parallel.rows, sequential.rows,
            "Table 1 rows diverged at {threads} threads"
        );
    }
}

#[test]
fn clique_ranking_bit_matches_sequential() {
    let catalog = Catalog::europe(42);
    let cfg = PipelineConfig::default();
    let sequential = vb_par::with_threads(1, || identify_subgraphs(&catalog, &cfg));
    for threads in [2, 8] {
        let parallel = vb_par::with_threads(threads, || identify_subgraphs(&catalog, &cfg));
        assert_eq!(
            parallel, sequential,
            "clique ranking diverged at {threads} threads"
        );
    }
}

/// One Table-1-shaped planning epoch: three sites × six forecast
/// buckets, eight resident movable apps, one arriving app. Epoch `e`
/// drifts the committed load and the capacity forecasts (RHS-only
/// changes: the app mix — hence the constraint matrix — is fixed).
///
/// The instance is built so the integer optimum is *unique* every
/// epoch: all sites run a strict deficit in buckets 2–5, so moving any
/// resident strictly loses (it saves no displacement and pays the move
/// cost), while buckets 0–1 carry per-site slack
/// `σ = 20 + 25·((s+e)%3) + 2b` — strictly ordered sums, so the
/// arriving app has exactly one
/// cheapest home, rotating with `e`. Warm- and cold-root solves must
/// therefore land on bit-identical schedules.
fn epoch_ctx(e: usize) -> PlanContext {
    let movable_cores: [(u32, usize); 8] = [
        (80, 0),
        (60, 1),
        (40, 2),
        (120, 0),
        (100, 1),
        (60, 2),
        (80, 0),
        (40, 1),
    ];
    let resident: [f64; 3] = movable_cores.iter().fold([0.0; 3], |mut acc, &(c, s)| {
        acc[s] += c as f64;
        acc
    });
    let sites = (0..3)
        .map(|s| {
            let committed: Vec<f64> = (0..6)
                .map(|b| 40.0 + 5.0 * e as f64 + 7.0 * s as f64 + 3.0 * b as f64)
                .collect();
            let capacity: Vec<f64> = committed
                .iter()
                .enumerate()
                .map(|(b, &c)| {
                    let load = c + resident[s];
                    if b < 2 {
                        // Slack for the arriving app, strictly ordered
                        // across sites and rotating with the epoch.
                        load + 20.0 + 25.0 * ((s + e) % 3) as f64 + 2.0 * b as f64
                    } else {
                        // Strict deficit: residents stay put.
                        load - (10.0 + 2.0 * s as f64 + e as f64 + b as f64)
                    }
                })
                .collect();
            SitePlanInfo {
                name: format!("site{s}"),
                total_cores: 1_000,
                current_budget_cores: capacity[0] as u32,
                allocated_cores: committed[0] as u32,
                capacity_forecast_cores: capacity,
                committed_cores: committed,
            }
        })
        .collect();
    PlanContext {
        now: 12 * e as u64,
        bucket_steps: 12,
        sites,
        new_apps: vec![NewApp {
            id: AppId(100),
            spec: AppSpec {
                n_vms: 25, // 100 cores, alive in buckets 0–1 only
                cores_per_vm: 4,
                mem_per_vm_gb: 16.0,
                kind: vb_cluster::VmKind::Stable,
                lifetime_steps: 24,
            },
        }],
        movable: movable_cores
            .iter()
            .enumerate()
            .map(|(i, &(cores, site))| MovableApp {
                id: AppId(i),
                current_site: site,
                cores,
                mem_gb: cores as f64 * 4.0,
                remaining_steps: 72,
            })
            .collect(),
    }
}

/// Pinned acceptance check for cross-epoch solver-state reuse: on
/// back-to-back Table-1-shaped epochs the warm path must produce
/// bit-identical schedules with a large (≥ 40 %) cut in total simplex
/// pivots versus cold per-epoch solves.
#[test]
fn epoch_warm_starts_cut_pivots_with_identical_schedules() {
    const EPOCHS: usize = 12;
    // `balance_weight = 0`: the balance rows' coefficients depend on the
    // capacity forecast, which moves every epoch — with them in the
    // model the skeleton would (correctly) never match. The Table-1
    // displacement/move model is what the reuse path accelerates.
    let cfg = MipConfig {
        balance_weight: 0.0,
        ..MipConfig::mip()
    };

    let run = |reuse: bool| {
        let mut policy = MipPolicy::new(MipConfig {
            reuse_across_epochs: reuse,
            ..cfg.clone()
        });
        vb_telemetry::reset();
        let plans: Vec<_> = (0..EPOCHS).map(|e| policy.plan(&epoch_ctx(e))).collect();
        let pivots = vb_telemetry::snapshot()
            .counter("solver.pivots")
            .unwrap_or(0);
        let stats = policy.mip_stats().expect("MIP policy reports stats");
        (plans, pivots, stats)
    };

    // Single scope: the telemetry registry is process-global and the
    // other tests in this binary also emit into it.
    vb_par::with_threads(1, || {
        let (cold_plans, cold_pivots, cold_stats) = run(false);
        let (warm_plans, warm_pivots, warm_stats) = run(true);

        assert_eq!(warm_plans, cold_plans, "schedules must be bit-identical");
        // The instance is built so the arriving app's cheapest site
        // rotates with the epoch — the plans are non-trivial.
        for (e, plan) in warm_plans.iter().enumerate() {
            assert_eq!(plan.len(), 1, "epoch {e}: exactly the arriving app");
            assert_eq!(plan[0].app, AppId(100));
            assert_eq!(plan[0].site, (14 - e) % 3, "epoch {e}: unique optimum");
        }

        assert_eq!(cold_stats.fallback_epochs, 0);
        assert_eq!(warm_stats.fallback_epochs, 0);
        assert_eq!(warm_stats.epochs_planned, EPOCHS);
        assert_eq!(
            warm_stats.epoch_warm_hits,
            EPOCHS - 1,
            "every epoch after the first must repair the cached root"
        );
        assert_eq!(
            cold_stats.epoch_warm_hits + cold_stats.epoch_warm_misses(),
            0
        );

        if cold_pivots == 0 {
            // Telemetry compiled out (--no-default-features): the pivot
            // counters stay zero and the ratio below is meaningless.
            return;
        }
        eprintln!(
            "epoch reuse: {warm_pivots} pivots vs {cold_pivots} cold ({:.0}% saved)",
            100.0 * (1.0 - warm_pivots as f64 / cold_pivots as f64)
        );
        assert!(
            (warm_pivots as f64) <= 0.6 * cold_pivots as f64,
            "cross-epoch reuse saved too little: {warm_pivots} warm vs {cold_pivots} cold pivots"
        );
    });
}

/// Cross-thread span nesting: the causal span *tree* recorded for a
/// `vb-par` fan-out must be identical at any thread count once thread
/// ids, timestamps and the executor's own `par.busy` wrapper spans are
/// normalized away. This is what makes trace timelines trustworthy — a
/// 4-thread trace shows the same causality as the sequential reference.
#[cfg(feature = "telemetry")]
#[test]
fn span_forests_bit_match_across_thread_counts() {
    use std::collections::HashMap;
    use vb_telemetry::{TraceEvent, TracePhase};

    fn workload() -> Vec<TraceEvent> {
        vb_telemetry::reset();
        {
            let _root = vb_telemetry::span!("treetest.root");
            let _results = vb_par::par_map(6, |i| {
                let _task = vb_telemetry::span!("treetest.task");
                if i % 2 == 0 {
                    let _inner = vb_telemetry::span!("treetest.inner");
                }
                i
            });
        }
        let events = vb_telemetry::trace_events();
        assert_eq!(vb_telemetry::trace_drops(), 0, "no ring-buffer drops");
        events
    }

    /// Canonical forest form: children sorted recursively, `par.busy`
    /// nodes collapsed (their children splice into the parent — the
    /// worker count is thread-count-dependent by design).
    fn forest(events: &[TraceEvent]) -> String {
        let mut kids: HashMap<u64, Vec<(u64, &'static str)>> = HashMap::new();
        let mut roots: Vec<(u64, &'static str)> = Vec::new();
        for e in events.iter().filter(|e| e.phase == TracePhase::Begin) {
            if e.parent == 0 {
                roots.push((e.id, e.name));
            } else {
                kids.entry(e.parent).or_default().push((e.id, e.name));
            }
        }
        fn form(id: u64, name: &str, kids: &HashMap<u64, Vec<(u64, &'static str)>>) -> Vec<String> {
            let mut child_forms: Vec<String> = Vec::new();
            for &(cid, cname) in kids.get(&id).map(Vec::as_slice).unwrap_or_default() {
                child_forms.extend(form(cid, cname, kids));
            }
            child_forms.sort();
            if name == "par.busy" {
                child_forms
            } else {
                vec![format!("{name}({})", child_forms.join(","))]
            }
        }
        let mut out: Vec<String> = Vec::new();
        for &(id, name) in &roots {
            out.extend(form(id, name, &kids));
        }
        out.sort();
        out.join(";")
    }

    let single = vb_par::with_threads(1, workload);
    let multi = vb_par::with_threads(4, workload);

    let tids: std::collections::HashSet<u64> = multi.iter().map(|e| e.tid).collect();
    assert!(
        tids.len() > 1,
        "4-thread run must actually record from multiple threads"
    );
    let expected = "treetest.root(treetest.task(),treetest.task(),treetest.task(),\
                    treetest.task(treetest.inner()),treetest.task(treetest.inner()),\
                    treetest.task(treetest.inner()))";
    assert_eq!(forest(&single), expected, "sequential reference tree");
    assert_eq!(
        forest(&multi),
        forest(&single),
        "span forest diverged between 1 and 4 threads"
    );
}

/// Fleet runs — many independent shards fanned over `vb-par` with
/// index-ordered assembly — must be bit-identical at any thread count:
/// each shard's workload stream is a pure function of (base seed, shard
/// index), and assembly is by shard index, never completion order. This
/// is the scaling contract of the event-driven fleet core: adding
/// threads may only change wall-clock, never a single reported byte.
#[test]
fn fleet_runs_bit_match_sequential() {
    use vb_core::fleet::{run_fleet, FleetConfig, FleetPolicy};
    use vb_sched::{AppGenConfig, SimCore};

    let catalog = Catalog::fleet(42, 9);
    let cfg = |core| FleetConfig {
        shard_size: 3,
        sim: GroupSimConfig {
            days: 2,
            seed: 42,
            core,
            // Pin an explicit arrival rate so shards are busy enough
            // that a scheduling divergence could actually surface.
            app_cfg: Some(AppGenConfig {
                arrivals_per_step: 1.0,
                ..AppGenConfig::default()
            }),
            ..GroupSimConfig::default()
        },
    };
    for core in [SimCore::EventDriven, SimCore::Legacy] {
        let sequential = vb_par::with_threads(1, || {
            run_fleet(&catalog, FleetPolicy::Greedy, &cfg(core)).expect("fleet runs")
        });
        let parallel = vb_par::with_threads(8, || {
            run_fleet(&catalog, FleetPolicy::Greedy, &cfg(core)).expect("fleet runs")
        });
        assert_eq!(
            parallel, sequential,
            "{core:?} fleet run diverged between 1 and 8 threads"
        );
    }
}

/// Deterministic parallel branch & bound: the production kernel expands
/// node batches through `vb_par::par_map`, and the contract is that the
/// incumbent sequence — hence the returned schedule — is *bit*-identical
/// at any `VB_THREADS`. Branching-heavy placement epochs (tight
/// capacities, near-tied costs) are driven through the epoch path at 1
/// and 8 threads and every value is compared by bit pattern.
#[test]
fn parallel_branch_and_bound_bit_matches_sequential() {
    use vb_solver::{solve_mip_epoch, EpochCache, Model, Sense, Solution, VarId};

    /// SplitMix64 → uniform in [0, 1); keeps the instances arbitrary but
    /// reproducible without pulling in a PRNG crate.
    fn mix(seed: u64) -> f64 {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }

    /// 12 apps × 3 sites, one-site-per-app rows, tight per-site capacity
    /// with a priced deficit — near-tied fractional costs so the root
    /// relaxation is fractional and the search genuinely branches.
    fn epoch_mip(e: usize) -> Model {
        const APPS: usize = 12;
        const SITES: usize = 3;
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<Vec<VarId>> = (0..APPS)
            .map(|a| {
                (0..SITES)
                    .map(|s| m.bin_var(&format!("a{a}s{s}")))
                    .collect()
            })
            .collect();
        let cores: Vec<f64> = (0..APPS)
            .map(|a| (2.0 + (mix((a as u64) << 3) * 4.0).floor()) * 10.0)
            .collect();
        for row in &x {
            let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
            let expr = m.expr(&terms);
            m.add_eq(expr, 1.0);
        }
        let total: f64 = cores.iter().sum();
        let mut objective = Vec::new();
        for s in 0..SITES {
            let d = m.var(&format!("d{s}"), 0.0, f64::INFINITY);
            // Tight, epoch-drifting capacity: roughly an even split less
            // a deficit that rotates with the epoch.
            let capacity = (total / SITES as f64) * (0.82 + 0.04 * ((s + e) % 3) as f64);
            let mut lhs = vec![(d, 1.0)];
            for (a, row) in x.iter().enumerate() {
                lhs.push((row[s], -cores[a]));
            }
            let expr = m.expr(&lhs);
            m.add_ge(expr, -capacity.round());
            objective.push((d, 6.0));
        }
        for (a, row) in x.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                let c = 1.0
                    + (mix(((a * SITES + s) as u64) << 7) * 8.0).round()
                    + 0.25 * ((a + s + e) % 2) as f64;
                objective.push((v, c));
            }
        }
        let expr = m.expr(&objective);
        m.set_objective(expr);
        m
    }

    fn run() -> Vec<Solution> {
        let mut cache: Option<EpochCache> = None;
        (0..6)
            .map(|e| {
                let (sol, next, _hit) = solve_mip_epoch(&epoch_mip(e), 200_000, cache.as_ref())
                    .expect("epoch MIP solves");
                cache = Some(next);
                sol
            })
            .collect()
    }

    let batches_before = vb_telemetry::snapshot()
        .counter("solver.bb_parallel_batches")
        .unwrap_or(0);
    let sequential = vb_par::with_threads(1, run);
    let parallel = vb_par::with_threads(8, run);
    let batches_after = vb_telemetry::snapshot()
        .counter("solver.bb_parallel_batches")
        .unwrap_or(0);
    // Counters are process-global and monotonic, so a before/after delta
    // can only over-count (other tests emit too) — never under-count.
    // Zero means the instance never built a multi-node batch and the test
    // would be vacuous; skip the check when telemetry is compiled out.
    if vb_telemetry::snapshot()
        .counter("solver.mip_solves")
        .unwrap_or(0)
        > 0
    {
        assert!(
            batches_after > batches_before,
            "instance too easy: no parallel node batch was ever expanded"
        );
    }
    assert_eq!(sequential.len(), parallel.len());
    for (e, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "epoch {e}: objective diverged between 1 and 8 threads"
        );
        assert_eq!(a.values().len(), b.values().len());
        for (j, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "epoch {e} var {j}: value diverged between 1 and 8 threads"
            );
        }
    }
}

#[test]
fn pair_sweep_bit_matches_sequential() {
    let catalog = Catalog::europe(42);
    let sequential =
        vb_par::with_threads(1, || vb_core::combos::search_pairs(&catalog, 120, 3, 50.0));
    for threads in [2, 8] {
        let parallel = vb_par::with_threads(threads, || {
            vb_core::combos::search_pairs(&catalog, 120, 3, 50.0)
        });
        assert_eq!(
            parallel, sequential,
            "pair sweep diverged at {threads} threads"
        );
    }
}
