//! Differential check of the class-count placement model.
//!
//! `MipPolicy` plans over classes of interchangeable apps: one integer
//! count per (class, site) instead of one binary per (app, site). This
//! test records every planning epoch's `PlanContext` through a
//! delegating policy and rebuilds the per-app binary model of the same
//! epoch — the formulation the class model replaced — as the reference.
//! For each epoch it
//!
//! * checks that every new app is assigned exactly once, to a site in
//!   range, that the plan names no other app, and that the epoch did
//!   not fall back to greedy placement;
//! * scores the plan under the reference (binaries pinned to the plan,
//!   LP solved over the continuous displacement and peak variables);
//! * solves the reference with the same node budget;
//! * asserts the plan is no worse than the reference when the class
//!   search finished, and no better when the reference search finished
//!   (both within `1e-6·max(1, |obj|)`).
//!
//! Where both searches stopped at the node budget neither bound holds,
//! so the better/equal/worse counts are printed (`--nocapture`) but not
//! asserted. The scenarios are the Table 1 trio and the fleet shard of
//! `golden_mip.rs`, under MIP-24h, MIP and MIP-peak.

mod common;

use vb_sched::mip::{BALANCE_WEIGHT, GB_PER_CORE, MAX_NODES};
use vb_sched::policy::SiteSnapshot;
use vb_sched::{Assignment, MipConfig, MipPolicy, MipStats, PlanContext, Policy, PolicySummary};
use vb_solver::{solve_mip_kernel, LinExpr, Model, Sense, VarId};

/// One epoch that reached the solver.
struct Epoch {
    ctx: PlanContext,
    plan: Vec<Assignment>,
    /// The class search stopped at its node budget.
    stopped: bool,
    /// The epoch fell back to greedy placement.
    fell_back: bool,
}

/// Delegates to a `MipPolicy` and records each solver-planned epoch.
struct Recorder {
    inner: MipPolicy,
    epochs: Vec<Epoch>,
}

impl Policy for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment> {
        let before = self.inner.stats();
        let plan = self.inner.plan(ctx);
        let after = self.inner.stats();
        if after.epochs_planned > before.epochs_planned {
            self.epochs.push(Epoch {
                ctx: ctx.clone(),
                plan: plan.clone(),
                stopped: after.budget_stops > before.budget_stops,
                fell_back: after.fallback_epochs > before.fallback_epochs,
            });
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

/// Is an app with `remaining` steps alive in bucket `b`?
fn alive(remaining: u32, bucket_steps: u32, b: usize) -> bool {
    remaining as u64 > b as u64 * bucket_steps as u64
}

/// The per-app binary placement model of one epoch, with its binaries.
struct Reference {
    model: Model,
    x_new: Vec<Vec<VarId>>,
}

/// Build the per-app model: the same displacement, peak and balance
/// terms as the policy's, over one binary per (new app, site).
fn reference(ctx: &PlanContext, cfg: &MipConfig) -> Reference {
    let n_sites = ctx.sites.len();
    let buckets = ctx
        .horizon_buckets()
        .min(cfg.horizon_steps.div_ceil(ctx.bucket_steps.max(1)) as usize)
        .max(1);
    let gbpc = GB_PER_CORE;
    let mut m = Model::new(Sense::Minimize);
    let x_new: Vec<Vec<VarId>> = ctx
        .new_apps
        .iter()
        .map(|a| {
            (0..n_sites)
                .map(|s| m.bin_var(&format!("new{}s{s}", a.id.0)))
                .collect()
        })
        .collect();
    for row in &x_new {
        let e = LinExpr {
            terms: row.iter().map(|&v| (v, 1.0)).collect(),
            constant: 0.0,
        };
        m.add_eq(e, 1.0);
    }
    let mut objective = LinExpr::zero();
    // (cores, remaining steps, binaries) of every app.
    let apps: Vec<(f64, u32, &Vec<VarId>)> = ctx
        .new_apps
        .iter()
        .zip(&x_new)
        .map(|(a, x)| (a.spec.cores() as f64, a.spec.lifetime_steps, x))
        .collect();
    let inf = f64::INFINITY;
    let peak_z = (cfg.peak_weight > 0.0).then(|| m.var("peak", 0.0, inf));
    for (s, site) in ctx.sites.iter().enumerate() {
        for b in 0..buckets {
            let d = m.var(&format!("d_s{s}b{b}"), 0.0, inf);
            let mut lhs = LinExpr::term(d, 1.0);
            for &(cores, remaining, x) in &apps {
                if alive(remaining, ctx.bucket_steps, b) {
                    lhs = lhs.add_term(x[s], -cores);
                }
            }
            let committed = site.committed_cores.get(b).copied().unwrap_or(0.0);
            let capacity = site.capacity_forecast_cores.get(b).copied().unwrap_or(0.0);
            m.add_ge(lhs, committed - capacity);
            objective = objective.add_term(d, gbpc);
            if let Some(z) = peak_z {
                m.add_le(LinExpr::term(d, gbpc).add_term(z, -1.0), 0.0);
            }
        }
    }
    if let Some(z) = peak_z {
        objective = objective.add_term(z, cfg.peak_weight);
    }
    let z_util = m.var("util", 0.0, inf);
    for (s, site) in ctx.sites.iter().enumerate() {
        let mut running_min = f64::INFINITY;
        for b in 0..buckets.min(8) {
            running_min =
                running_min.min(site.capacity_forecast_cores.get(b).copied().unwrap_or(0.0));
            let cap = running_min;
            if cap < 0.05 * site.total_cores as f64 {
                continue;
            }
            let mut row = LinExpr::term(z_util, -1.0);
            for &(cores, remaining, x) in &apps {
                if alive(remaining, ctx.bucket_steps, b) {
                    row = row.add_term(x[s], cores / cap);
                }
            }
            let committed = site.committed_cores.get(b).copied().unwrap_or(0.0);
            m.add_le(row, -(committed / cap));
        }
    }
    let site_scale = ctx
        .sites
        .iter()
        .map(|s| s.total_cores as f64)
        .fold(0.0, f64::max);
    objective = objective.add_term(z_util, BALANCE_WEIGHT * gbpc * site_scale * 0.25);

    m.set_objective(objective);
    Reference { model: m, x_new }
}

/// Each new app's site under `plan`: every new app must be assigned
/// exactly once, to a site in range, and no other app may appear.
fn plan_sites(ctx: &PlanContext, plan: &[Assignment]) -> Vec<usize> {
    let n_sites = ctx.sites.len();
    let mut new_site = vec![usize::MAX; ctx.new_apps.len()];
    for a in plan {
        assert!(a.site < n_sites, "{a:?}: site out of range");
        let i = ctx
            .new_apps
            .iter()
            .position(|n| n.id == a.app)
            .unwrap_or_else(|| panic!("{a:?}: not a new app"));
        assert_eq!(new_site[i], usize::MAX, "{a:?}: new app assigned twice");
        new_site[i] = a.site;
    }
    assert!(
        new_site.iter().all(|&s| s != usize::MAX),
        "a new app was left unassigned"
    );
    new_site
}

/// Run one simulation under `mip` and check every epoch against its
/// per-app reference.
fn check(label: &str, run: fn(&mut dyn Policy) -> PolicySummary, mip: MipConfig) {
    let mut rec = Recorder {
        inner: MipPolicy::new(mip.clone()),
        epochs: Vec::new(),
    };
    run(&mut rec);
    assert!(
        !rec.epochs.is_empty(),
        "{label}: no epoch reached the solver"
    );

    let (mut both_stopped, mut better, mut equal, mut worse) = (0, 0, 0, 0);
    let (mut plan_sum, mut ref_sum) = (0.0, 0.0);
    for (k, e) in rec.epochs.iter().enumerate() {
        let new_site = plan_sites(&e.ctx, &e.plan);
        assert!(!e.fell_back, "{label} epoch {k}: fell back to greedy");
        let r = reference(&e.ctx, &mip);
        let mut pins: Vec<(VarId, f64, f64)> = Vec::new();
        for (x, &site) in r.x_new.iter().zip(&new_site) {
            for (s, &v) in x.iter().enumerate() {
                let on = if s == site { 1.0 } else { 0.0 };
                pins.push((v, on, on));
            }
        }
        let plan_obj = r
            .model
            .solve_relaxation(&pins)
            .unwrap_or_else(|err| panic!("{label} epoch {k}: plan infeasible: {err}"))
            .objective;
        let ref_sol = solve_mip_kernel(&r.model, MAX_NODES)
            .unwrap_or_else(|err| panic!("{label} epoch {k}: reference failed: {err}"));
        let ref_obj = ref_sol.objective;
        let tol = 1e-6 * ref_obj.abs().max(1.0);
        if !e.stopped {
            assert!(
                plan_obj <= ref_obj + tol,
                "{label} epoch {k}: finished class search {plan_obj} worse than reference {ref_obj}"
            );
        }
        if ref_sol.budget_gap().is_none() {
            assert!(
                plan_obj >= ref_obj - tol,
                "{label} epoch {k}: plan {plan_obj} beats the proven reference optimum {ref_obj}"
            );
        }
        if e.stopped && ref_sol.budget_gap().is_some() {
            both_stopped += 1;
            if plan_obj < ref_obj - tol {
                better += 1;
            } else if plan_obj > ref_obj + tol {
                worse += 1;
            } else {
                equal += 1;
            }
        }
        plan_sum += plan_obj;
        ref_sum += ref_obj;
    }
    println!(
        "{label}: {} epochs, {} class budget stops; both stopped {both_stopped}: \
         {better} better / {equal} equal / {worse} worse; summed objective {plan_sum:.1} vs reference {ref_sum:.1}",
        rec.epochs.len(),
        rec.epochs.iter().filter(|e| e.stopped).count(),
    );
}

#[test]
fn table1_mip_24h_plans_match_the_per_app_model() {
    check("table1 MIP-24h", common::run_table1, MipConfig::mip_24h());
}

#[test]
fn table1_mip_plans_match_the_per_app_model() {
    check("table1 MIP", common::run_table1, MipConfig::mip());
}

#[test]
fn table1_mip_peak_plans_match_the_per_app_model() {
    check("table1 MIP-peak", common::run_table1, MipConfig::mip_peak());
}

#[test]
fn fleet_shard_mip_24h_plans_match_the_per_app_model() {
    check(
        "fleet MIP-24h",
        common::run_fleet_shard,
        MipConfig::mip_24h(),
    );
}

#[test]
fn fleet_shard_mip_plans_match_the_per_app_model() {
    check("fleet MIP", common::run_fleet_shard, MipConfig::mip());
}

#[test]
fn fleet_shard_mip_peak_plans_match_the_per_app_model() {
    check(
        "fleet MIP-peak",
        common::run_fleet_shard,
        MipConfig::mip_peak(),
    );
}
