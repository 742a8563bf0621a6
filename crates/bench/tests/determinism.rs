//! Pinned determinism contracts: every experiment artifact must be
//! *identical* — not statistically close — at any thread count.
//! `vb_par::with_threads` scopes are serialised process-wide, so these
//! tests cannot interleave their overrides.

use vb_bench::table1;
use vb_sched::{identify_subgraphs, GroupSimConfig, PipelineConfig};
use vb_trace::{Catalog, TRIO};

/// Short Table 1 run (the full bench uses 7 days; 2 keeps CI fast).
fn short_cfg() -> GroupSimConfig {
    GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    }
}

#[test]
fn table1_rows_bit_match_sequential() {
    let sequential = vb_par::with_threads(1, || table1::run_on_group_with(7, &TRIO, short_cfg()));
    for threads in [2, 8] {
        let parallel =
            vb_par::with_threads(threads, || table1::run_on_group_with(7, &TRIO, short_cfg()));
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

/// Cross-thread span nesting: the causal span *tree* recorded for a
/// `vb-par` fan-out must be identical at any thread count once thread
/// ids, timestamps and the executor's own `par.busy` wrapper spans are
/// normalized away. This is what makes trace timelines trustworthy — a
/// 4-thread trace shows the same causality as the sequential reference.
#[test]
fn span_forests_bit_match_across_thread_counts() {
    use std::collections::HashMap;
    use vb_telemetry::{TraceEvent, TracePhase};

    fn workload() -> Vec<TraceEvent> {
        vb_telemetry::reset();
        {
            let _root = vb_telemetry::span!("treetest.root");
            let _results = vb_par::par_map(0..6, |i| {
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
/// is the scaling contract of the fleet driver `fleet_perf` times:
/// adding threads may only change wall-clock, never a single reported
/// byte, the per-step series of the run report included.
#[test]
fn fleet_runs_bit_match_sequential() {
    use vb_core::fleet::{build_fleet, run_fleet, FleetPolicy};
    use vb_sched::AppGenConfig;

    let catalog = Catalog::fleet(42, 9);
    let cfg = GroupSimConfig {
        days: 2,
        seed: 42,
        // Pin an explicit arrival rate so shards are busy enough that a
        // scheduling divergence could actually surface.
        app_cfg: Some(AppGenConfig {
            arrivals_per_step: 1.0,
            ..AppGenConfig::default()
        }),
        ..GroupSimConfig::default()
    };
    // The reset and the series readout stay inside one serialised
    // `with_threads` scope, so no other test's run lands between them.
    let run = |threads| {
        vb_par::with_threads(threads, || {
            vb_telemetry::reset();
            let fleet_run = run_fleet(
                build_fleet(&catalog, &cfg).expect("fleet builds"),
                FleetPolicy::Greedy,
            );
            let series: Vec<_> = vb_telemetry::series_snapshot()
                .into_iter()
                .filter(|s| s.name == "sched.step_series")
                .collect();
            (fleet_run, series)
        })
    };
    let (sequential, sequential_series) = run(1);
    let (parallel, parallel_series) = run(8);
    assert_eq!(
        parallel, sequential,
        "fleet run diverged between 1 and 8 threads"
    );
    assert_eq!(
        parallel_series, sequential_series,
        "step series diverged between 1 and 8 threads"
    );
    // Each shard records its own series instance, one row per step.
    assert_eq!(sequential_series.len(), sequential.shards.len());
    let steps: Vec<u64> = (0..2 * 96).collect();
    for s in &sequential_series {
        assert_eq!(s.epochs, steps, "{}", s.instance);
    }
}

/// Deterministic parallel branch & bound: the search expands node
/// batches through `vb_par::par_map`, and the contract is that the
/// incumbent sequence — hence the returned schedule — is *bit*-identical
/// at any `VB_THREADS`. Branching-heavy placement epochs (tight
/// capacities, near-tied costs) are solved cold by `solve_mip_kernel`
/// at 1, 2, 3 and 8 threads and every value is compared by bit pattern.
/// At two workers the first claim on a full 16-node batch takes a run
/// of two nodes; at three and eight every claim takes one.
#[test]
fn parallel_branch_and_bound_bit_matches_sequential() {
    use vb_solver::{solve_mip_kernel, Model, Sense, Solution, VarId};

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
        (0..6)
            .map(|e| solve_mip_kernel(&epoch_mip(e), 200_000).expect("epoch MIP solves"))
            .collect()
    }

    let batches_before = vb_telemetry::snapshot()
        .counter("solver.bb_parallel_batches")
        .unwrap_or(0);
    let sequential = vb_par::with_threads(1, run);
    let parallel: Vec<(usize, Vec<Solution>)> = [2, 3, 8]
        .into_iter()
        .map(|threads| (threads, vb_par::with_threads(threads, run)))
        .collect();
    let batches_after = vb_telemetry::snapshot()
        .counter("solver.bb_parallel_batches")
        .unwrap_or(0);
    // Counters are process-global and monotonic, so a before/after delta
    // can only over-count (other tests emit too) — never under-count.
    // Zero means the instance never built a multi-node batch and the test
    // would be vacuous.
    assert!(
        batches_after > batches_before,
        "instance too easy: no parallel node batch was ever expanded"
    );
    for (threads, parallel) in &parallel {
        assert_eq!(sequential.len(), parallel.len());
        for (e, (a, b)) in sequential.iter().zip(parallel).enumerate() {
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "epoch {e}: objective diverged between 1 and {threads} threads"
            );
            assert_eq!(a.values().len(), b.values().len());
            for (j, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "epoch {e} var {j}: value diverged between 1 and {threads} threads"
                );
            }
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
