//! Differential check of branch and bound's sibling re-solves.
//!
//! On the factorized engine, branch and bound re-solves both children of
//! a node through one `Siblings` run: the children share the parent's
//! reduced costs and, when both leave on the same row, the first dual
//! pricing row, and each applies only its branched bound.
//! `vb_solver::branch::check_sibling_resolves` walks a MIP's tree and
//! solves every node's children both that way and as independent warm
//! starts with full override lists, and requires the outcomes,
//! objectives, values, bases, basic values and pivot, eta-update and
//! refactorization counts to agree bit for bit.
//!
//! The walk runs on placement-shaped MIPs, at the production
//! refactorization interval and at one short enough that a first child
//! refactorizes before its sibling solves, and on the largest planning
//! epochs of `golden_mip.rs`'s two scenarios under MIP: the fleet shard
//! and the Table 1 trio. Kept in its own test
//! binary: it also checks that `solver.shared_pricing_rows` counted the
//! shared rows, and the registry is process-global.

mod common;

use vb_sched::policy::SiteSnapshot;
use vb_sched::{Assignment, MipConfig, MipPolicy, MipStats, PlanContext, Policy, PolicySummary};
use vb_solver::branch::{check_sibling_resolves, SiblingCheck};
use vb_solver::presolve::presolve_mip;
use vb_solver::revised::Params;
use vb_solver::{Model, Sense, VarId};

/// A `golden_mip.rs` scenario run under a policy.
type Scenario = fn(&mut dyn Policy) -> PolicySummary;

/// Nodes walked per MIP: the planner's node budget.
const NODES: usize = 400;

/// SplitMix64 in [0, 1).
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
}

/// The planner's shape on binaries: each app on one site, and per
/// (site, bucket) a displacement column `d ≥ Σ cores·x − capacity`
/// priced per core, over capacities that leave some buckets short.
/// With `hard_cap`, each site also holds at most 1.15× its share of
/// the cores, so some branches run out of room.
fn placement_mip(apps: usize, sites: usize, buckets: usize, hard_cap: bool, seed: u64) -> Model {
    let mut rng = seed;
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<VarId>> = (0..apps)
        .map(|a| {
            (0..sites)
                .map(|s| m.bin_var(&format!("a{a}s{s}")))
                .collect()
        })
        .collect();
    for row in &x {
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.add_eq(e, 1.0);
    }
    let cores: Vec<f64> = (0..apps)
        .map(|_| (1.0 + (uniform(&mut rng) * 4.0).floor()) * 20.0)
        .collect();
    let total: f64 = cores.iter().sum();
    let mut objective = Vec::new();
    for s in 0..sites {
        for b in 0..buckets {
            let d = m.var(&format!("d{s}b{b}"), 0.0, f64::INFINITY);
            let frac = if uniform(&mut rng) < 0.3 { 0.2 } else { 0.9 };
            let mut lhs = vec![(d, 1.0)];
            for (a, row) in x.iter().enumerate() {
                lhs.push((row[s], -cores[a]));
            }
            let e = m.expr(&lhs);
            m.add_ge(e, -total / sites as f64 * frac);
            objective.push((d, 4.0));
        }
        if hard_cap {
            let terms: Vec<(VarId, f64)> = x.iter().zip(&cores).map(|(r, &c)| (r[s], c)).collect();
            let e = m.expr(&terms);
            m.add_le(e, total / sites as f64 * 1.15);
        }
    }
    for row in &x {
        for &v in row {
            objective.push((v, (uniform(&mut rng) * 6.0).floor()));
        }
    }
    let e = m.expr(&objective);
    m.set_objective(e);
    m
}

/// Delegates to a `MipPolicy` and records each solver-planned epoch.
struct Recorder {
    inner: MipPolicy,
    epochs: Vec<PlanContext>,
}

impl Policy for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment> {
        let before = self.inner.stats().epochs_planned;
        let plan = self.inner.plan(ctx);
        if self.inner.stats().epochs_planned > before {
            self.epochs.push(ctx.clone());
        }
        plan
    }

    fn preemptive_drain(&self) -> bool {
        self.inner.preemptive_drain()
    }

    fn choose_rehost(&mut self, sites: &[SiteSnapshot], cores: u32) -> Option<usize> {
        self.inner.choose_rehost(sites, cores)
    }

    fn mip_stats(&self) -> Option<MipStats> {
        self.inner.mip_stats()
    }
}

fn add(total: &mut SiblingCheck, c: SiblingCheck) {
    total.nodes += c.nodes;
    total.children += c.children;
    total.infeasible += c.infeasible;
    total.refactorized_first += c.refactorized_first;
    total.shared_rows += c.shared_rows;
}

fn check(what: &str, model: &Model, params: Params) -> SiblingCheck {
    check_sibling_resolves(model, NODES, params).unwrap_or_else(|e| panic!("{what}: {e}"))
}

#[test]
fn sibling_resolves_match_independent_warm_starts() {
    let shared_before = vb_telemetry::snapshot()
        .counter("solver.shared_pricing_rows")
        .unwrap_or(0);

    let short = Params {
        refactor_after: 2,
        ..Params::default()
    };
    for (params, label) in [(Params::default(), "default"), (short, "refactor_after 2")] {
        let mut total = SiblingCheck::default();
        for seed in 0..6u64 {
            let hard_cap = seed % 2 == 1;
            let m = placement_mip(8, 3, 4, hard_cap, seed * 13 + 1);
            add(
                &mut total,
                check(&format!("{label}, seed {seed}"), &m, params),
            );
        }
        println!("placement MIPs, {label}: {total:?}");
        assert!(total.nodes > 100, "{label}: the trees branch");
        assert!(total.infeasible > 0, "{label}: some child is infeasible");
        assert!(
            total.shared_rows > 0,
            "{label}: some child shares its pricing row"
        );
        if params.refactor_after == 2 {
            assert!(
                total.refactorized_first > 0,
                "{label}: some first child refactorizes before its sibling solves"
            );
        }
    }

    // The largest epoch of each golden_mip scenario under MIP, presolved
    // as `solve_mip_kernel` presolves it.
    let scenarios: [(&str, Scenario); 2] = [
        ("fleet shard", common::run_fleet_shard),
        ("Table 1", common::run_table1),
    ];
    for (scenario, run) in scenarios {
        let mut rec = Recorder {
            inner: MipPolicy::new(MipConfig::mip()),
            epochs: Vec::new(),
        };
        run(&mut rec);
        let reduced: Vec<Model> = rec
            .epochs
            .iter()
            .map(|ctx| {
                presolve_mip(&rec.inner.epoch_model(ctx))
                    .expect("epoch models presolve")
                    .reduced()
                    .clone()
            })
            .collect();
        let largest = (0..reduced.len())
            .max_by_key(|&e| (reduced[e].num_vars(), std::cmp::Reverse(e)))
            .expect("the scenario plans with the solver");
        let epoch = &reduced[largest];
        let got = check(
            &format!("{scenario} epoch {largest}"),
            epoch,
            Params::default(),
        );
        println!(
            "{scenario} epoch {largest} of {} ({} vars x {} rows): {got:?}",
            reduced.len(),
            epoch.num_vars(),
            epoch.num_constraints()
        );
        assert!(got.nodes > 0, "{scenario}: the epoch branches");
        assert!(
            got.shared_rows > 0,
            "{scenario}: children share pricing rows"
        );
    }

    // The production counter saw the shares.
    let shared_after = vb_telemetry::snapshot()
        .counter("solver.shared_pricing_rows")
        .unwrap_or(0);
    assert!(
        shared_after > shared_before,
        "solver.shared_pricing_rows counted no shared row"
    );
}
