//! The MIP site-selection policies of §3.1.
//!
//! At each planning epoch the policy builds a mixed-integer program over
//! the look-ahead horizon:
//!
//! * **Decision variables** — one integer count `n[c][s] ∈ [0, |c|]` per
//!   (app class, site), with `Σ_s n[c][s] = |c|`. A class groups
//!   interchangeable apps: newly arrived apps with the same cores and
//!   the same number of alive buckets in the horizon. Their per-app
//!   binaries `x[a][s]` would be identical columns, so the counts have
//!   the same LP relaxation while branch & bound no longer searches
//!   permutations of equal apps. The readout hands each class's counts
//!   to its members in context order, filling sites in index order.
//! * **Displacement model** — per site `s` and look-ahead bucket `b`,
//!   `d[s][b] ≥ load[s][b] − capacity[s][b]` with `d ≥ 0` captures how
//!   many committed cores the forecast power cannot host. Because every
//!   objective term is non-decreasing in `d`, the optimum pins
//!   `d = max(0, load − capacity)` exactly.
//! * **O1 (total)** — `min Σ d · GB_PER_CORE`: displaced capacity,
//!   converted to bytes via the memory density. Displaced cores are
//!   what *force* migrations at run time, so this is a convex surrogate
//!   of the paper's "total migration bytes": the byte-exact objective
//!   (positive increments of the displacement process) is not
//!   LP-representable without per-bucket binaries — a planner could
//!   "pre-pay" displacement to game any LP relaxation of it — and the
//!   simulation, not the planner, is what measures real bytes for
//!   Table 1.
//! * **O2 (peak)** — an auxiliary `z ≥ d[s][b] · GB_PER_CORE` over all
//!   sites and buckets; adding `λ·z` to the objective implements the
//!   paper's second-order peak goal ("MIP-peak"): avoid concentrating
//!   displacement in any single site-interval, spreading forced
//!   migrations across sites and time.
//!
//! The model places new apps only. Running apps are part of each site's
//! committed load, and [`PlanContext::movable`] is not read: MIP-peak's
//! preemptive migration is the runtime's rate-limited drain
//! ([`Policy::preemptive_drain`]), not a planned move.
//!
//! The three Table 1 variants are configurations of this one model:
//!
//! | Variant  | Horizon        | Peak term |
//! |----------|----------------|-----------|
//! | MIP      | entire period  | no        |
//! | MIP-24h  | next 24 hours  | no        |
//! | MIP-peak | entire period  | yes       |
//!
//! The solve is anytime: branch & bound over the `vb-solver` simplex
//! with a node budget ([`MAX_NODES`]). A search that runs out
//! of nodes while an open bound still beats the plan is a *budget stop*,
//! counted in [`MipStats::budget_stops`] with its gap on the
//! `sched.mip_epoch` series. If the solver fails (iteration safety
//! valve), returns non-finite values, or returns class counts that do
//! not partition a class, the epoch falls back to greedy placement, so
//! a simulation always completes. Every epoch builds a fresh model and
//! solves it cold with [`vb_solver::solve_mip_kernel`] (presolve, then
//! branch and bound over the revised simplex). [`MipStats`] counts
//! planned epochs, budget stops and greedy fallbacks per policy.

use crate::greedy::GreedyPolicy;
use crate::policy::{Assignment, PlanContext, Policy, SiteSnapshot};
use crate::sim::STEPS_PER_DAY;
use std::collections::BTreeMap;
use vb_solver::{LinExpr, Model, Sense, SolveError, VarId};

/// GB of migration traffic the planner charges per displaced core
/// (≈ VM memory per core of the default workload). The displacement
/// (O1), peak (O2) and balance terms all scale with it. The fleet app
/// mix carries 8 GB per core, and is planned with this value too.
/// [`ReplicationModel`](crate::ReplicationModel) replicates this much
/// memory per committed core.
pub const GB_PER_CORE: f64 = 4.0;

/// Weight of the load-balance term: the §3.1 objective "balancing load
/// between subgraphs/sites", implemented as a penalty on the worst
/// forecast utilization across sites over the near-term buckets. It
/// balances placements that the displacement objective leaves tied,
/// keeping headroom against forecast error everywhere.
pub const BALANCE_WEIGHT: f64 = 4.0;

/// Branch & bound node budget per epoch (anytime solve).
pub const MAX_NODES: usize = 400;

/// MIP policy configuration.
#[derive(Debug, Clone)]
pub struct MipConfig {
    /// Look-ahead horizon in 15-minute steps (e.g. 672 = 7 days for
    /// "MIP", 96 = 24 h for "MIP-24h"). The effective horizon is capped
    /// by the forecast vectors the context carries.
    pub horizon_steps: u32,
    /// Weight λ of the O2 peak objective ("MIP-peak") relative to total
    /// bytes. The paper treats O2 as second-order; a moderate weight
    /// implements that priority ordering. A positive weight also turns
    /// on preemptive draining ([`Policy::preemptive_drain`]); at 0 the
    /// model has no peak variable and the policy never drains.
    pub peak_weight: f64,
    /// Display name (Table 1 row label).
    pub name: String,
}

impl MipConfig {
    /// The "MIP" variant: O1 only, whole-period look-ahead.
    pub fn mip() -> MipConfig {
        MipConfig {
            horizon_steps: 7 * STEPS_PER_DAY,
            peak_weight: 0.0,
            name: "MIP".into(),
        }
    }

    /// The "MIP-24h" variant: O1 only, next-day look-ahead.
    pub fn mip_24h() -> MipConfig {
        MipConfig {
            horizon_steps: STEPS_PER_DAY,
            peak_weight: 0.0,
            name: "MIP-24h".into(),
        }
    }

    /// The "MIP-peak" variant: O1 + O2, whole-period look-ahead.
    pub fn mip_peak() -> MipConfig {
        MipConfig {
            horizon_steps: 7 * STEPS_PER_DAY,
            peak_weight: 24.0,
            name: "MIP-peak".into(),
        }
    }
}

/// Per-run solver statistics of a MIP policy: how many epochs were
/// planned through the exact solver, how many stopped at the node
/// budget, and how often the epoch degraded to greedy. Surfaced in run
/// reports so regressions show up in `scripts/diff_run_reports.py`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MipStats {
    /// Epochs that reached the MIP solve (excludes empty and
    /// single-site epochs, which never build a model).
    pub epochs_planned: usize,
    /// Epochs where the exact solve failed and greedy stepped in.
    pub fallback_epochs: usize,
    /// Epochs whose branch & bound ran out of nodes while an open node's
    /// bound still beat the plan's objective (see
    /// [`vb_solver::Solution::budget_gap`]).
    pub budget_stops: usize,
}

/// The MIP policy (all three paper variants).
#[derive(Debug, Clone)]
pub struct MipPolicy {
    cfg: MipConfig,
    fallback: GreedyPolicy,
    stats: MipStats,
}

impl MipPolicy {
    /// Create a policy from a variant configuration.
    pub fn new(cfg: MipConfig) -> MipPolicy {
        MipPolicy {
            cfg,
            fallback: GreedyPolicy::new(),
            stats: MipStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MipConfig {
        &self.cfg
    }

    /// Solver statistics accumulated so far in this run.
    pub fn stats(&self) -> MipStats {
        self.stats
    }

    /// The class-count model `plan` solves for the epoch `ctx`, as
    /// `solve_mip_kernel` receives it (before presolve): lets tests drive
    /// the solver on real planning epochs.
    #[doc(hidden)]
    pub fn epoch_model(&self, ctx: &PlanContext) -> Model {
        self.build_model(ctx).0
    }

    /// Build and solve the epoch's class-count model. Returns the plan
    /// and, when branch & bound stopped at its node budget, the gap.
    fn solve(&mut self, ctx: &PlanContext) -> Result<(Vec<Assignment>, Option<f64>), SolveError> {
        self.stats.epochs_planned += 1;
        let (m, classes, n) = self.build_model(ctx);
        // Anytime solve: epochs arrive every 3 simulated hours; a node
        // budget keeps planning latency bounded while the root dive
        // guarantees a good incumbent.
        let sol = vb_solver::solve_mip_kernel(&m, MAX_NODES)?;
        if sol.budget_gap().is_some() {
            self.stats.budget_stops += 1;
        }
        // A solver-tolerance pathology could in principle leave NaN/∞ in
        // the solution; route it into the greedy fallback rather than
        // letting a NaN-poisoned readout abort the whole simulation.
        if !sol.objective.is_finite() || sol.values().iter().any(|v| !v.is_finite()) {
            return Err(SolveError::BadModel("non-finite MIP solution".into()));
        }

        // Hand each class's counts out to its members in context order.
        let mut new_site = vec![0; ctx.new_apps.len()];
        for (row, class) in n.iter().zip(&classes) {
            let counts: Vec<f64> = row.iter().map(|&v| sol.value(v)).collect();
            let sites = spread(&counts, class.members.len()).ok_or_else(|| {
                SolveError::BadModel("class counts do not partition the class".into())
            })?;
            for (&member, site) in class.members.iter().zip(sites) {
                new_site[member] = site;
            }
        }
        let out = ctx
            .new_apps
            .iter()
            .zip(new_site)
            .map(|(app, site)| Assignment { app: app.id, site })
            .collect();
        Ok((out, sol.budget_gap()))
    }

    /// The epoch's class-count model, its classes, and each class's
    /// count variable per site.
    fn build_model(&self, ctx: &PlanContext) -> (Model, Vec<AppClass>, Vec<Vec<VarId>>) {
        let n_sites = ctx.sites.len();
        // Ceiling division: a partial final bucket still belongs to the
        // look-ahead (a 100-step horizon with 12-step buckets must plan
        // 9 buckets, not truncate to 8 and go blind for the tail).
        let buckets = ctx
            .horizon_buckets()
            .min(self.cfg.horizon_steps.div_ceil(ctx.bucket_steps.max(1)) as usize)
            .max(1);
        let gbpc = GB_PER_CORE;

        let mut m = Model::new(Sense::Minimize);

        // One integer count per (class, site); the counts of a class
        // place all of its members.
        let classes = classify(ctx, buckets);
        let n: Vec<Vec<VarId>> = classes
            .iter()
            .enumerate()
            .map(|(c, class)| {
                let size = class.members.len() as f64;
                (0..n_sites)
                    .map(|s| m.int_var(&format!("c{c}s{s}"), 0.0, size))
                    .collect()
            })
            .collect();
        for (row, class) in n.iter().zip(&classes) {
            let e = LinExpr {
                terms: row.iter().map(|&v| (v, 1.0)).collect(),
                constant: 0.0,
            };
            m.add_eq(e, class.members.len() as f64);
        }

        let mut objective = LinExpr::zero();

        // Displacement variables per (site, bucket). Every objective
        // term is non-decreasing in d, so the optimum pins
        // d = max(0, load − capacity) exactly.
        let inf = f64::INFINITY;
        let peak_z = (self.cfg.peak_weight > 0.0).then(|| m.var("peak", 0.0, inf));
        for (s, site) in ctx.sites.iter().enumerate() {
            for b in 0..buckets {
                let d = m.var(&format!("d_s{s}b{b}"), 0.0, inf);

                // d ≥ load − capacity. load = committed + Σ cores·n.
                // Rearranged: d − Σ cores·n ≥ committed − capacity.
                let mut lhs = LinExpr::term(d, 1.0);
                for (row, class) in n.iter().zip(&classes) {
                    if b < class.alive_buckets {
                        lhs = lhs.add_term(row[s], -class.cores);
                    }
                }
                let committed = site.committed_cores.get(b).copied().unwrap_or(0.0);
                let capacity = site.capacity_forecast_cores.get(b).copied().unwrap_or(0.0);
                m.add_ge(lhs, committed - capacity);

                objective = objective.add_term(d, gbpc);
                if let Some(z) = peak_z {
                    // z ≥ d·gbpc  →  d·gbpc − z ≤ 0.
                    let row = LinExpr::term(d, gbpc).add_term(z, -1.0);
                    m.add_le(row, 0.0);
                }
            }
        }
        if let Some(z) = peak_z {
            objective = objective.add_term(z, self.cfg.peak_weight);
        }

        // Load balancing (§3.1 goal 2): penalise the worst forecast
        // utilization across sites over the near-term buckets.
        // BALANCE_WEIGHT is expressed in "GB per site's worth of
        // utilization": a weight of 1 means running one site at 100 %
        // while others idle costs as much as displacing ~1/4 of a
        // site-bucket.
        let z_util = m.var("util", 0.0, inf);
        let near_buckets = buckets.min(8);
        for (s, site) in ctx.sites.iter().enumerate() {
            // Balance against the *running minimum* capacity: a site
            // whose power is about to collapse offers no balancing
            // room now, however sunny or windy it currently is.
            let mut running_min = f64::INFINITY;
            for b in 0..near_buckets {
                running_min =
                    running_min.min(site.capacity_forecast_cores.get(b).copied().unwrap_or(0.0));
                let cap = running_min;
                if cap < 0.05 * site.total_cores as f64 {
                    continue; // dead-site buckets: displacement term rules
                }
                // z ≥ load / cap  →  (committed + Σ cores·n)/cap − z ≤ 0.
                let mut row = LinExpr::term(z_util, -1.0);
                for (counts, class) in n.iter().zip(&classes) {
                    if b < class.alive_buckets {
                        row = row.add_term(counts[s], class.cores / cap);
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
        (m, classes, n)
    }
}

/// A class of interchangeable new apps: the same cores and the same
/// number of alive buckets within the model horizon. Members of a class
/// have identical columns in the per-app model, so one integer count per
/// site replaces their binaries without changing the LP relaxation.
struct AppClass {
    cores: f64,
    /// Buckets `0..alive_buckets` are the ones the members are alive in.
    alive_buckets: usize,
    /// Indices into `ctx.new_apps`, in context order.
    members: Vec<usize>,
}

/// Group the epoch's new apps into classes, in order of first
/// appearance.
fn classify(ctx: &PlanContext, buckets: usize) -> Vec<AppClass> {
    let mut classes: Vec<AppClass> = Vec::new();
    let mut index: BTreeMap<(u32, usize), usize> = BTreeMap::new();
    for (i, app) in ctx.new_apps.iter().enumerate() {
        let cores = app.spec.cores();
        let alive = (0..buckets)
            .take_while(|&b| alive(app.spec.lifetime_steps, ctx.bucket_steps, b))
            .count();
        let c = *index.entry((cores, alive)).or_insert_with(|| {
            classes.push(AppClass {
                cores: cores as f64,
                alive_buckets: alive,
                members: Vec::new(),
            });
            classes.len() - 1
        });
        classes[c].members.push(i);
    }
    classes
}

/// The site of each of a class's `size` members, in member order, from
/// the class's per-site counts: members fill the sites in index order.
/// `None` unless the rounded counts are non-negative and sum to `size`.
fn spread(counts: &[f64], size: usize) -> Option<Vec<usize>> {
    let rounded: Vec<f64> = counts.iter().map(|c| c.round()).collect();
    if rounded.iter().any(|&c| c < 0.0) || rounded.iter().sum::<f64>() != size as f64 {
        return None;
    }
    let mut sites = Vec::with_capacity(size);
    for (s, &count) in rounded.iter().enumerate() {
        sites.extend(std::iter::repeat_n(s, count as usize));
    }
    Some(sites)
}

/// Is an app with `remaining` steps of lifetime still alive in bucket
/// `b` (buckets of `bucket_steps`)? Uses the bucket's start instant.
fn alive(remaining: u32, bucket_steps: u32, b: usize) -> bool {
    remaining as u64 > b as u64 * bucket_steps as u64
}

impl Policy for MipPolicy {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn preemptive_drain(&self) -> bool {
        self.cfg.peak_weight > 0.0
    }

    /// Forecast-aware re-hosting: among sites that can admit the app
    /// now, prefer the one whose *worst* day-ahead admissible capacity
    /// leaves the most room — avoiding homes that are about to dip.
    fn choose_rehost(&mut self, sites: &[SiteSnapshot], cores: u32) -> Option<usize> {
        sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.headroom() >= cores)
            .max_by(|(_, a), (_, b)| {
                let score = |s: &SiteSnapshot| s.forecast_min_24h_cores - s.allocated_cores as f64;
                score(a).total_cmp(&score(b))
            })
            .map(|(i, _)| i)
    }

    fn mip_stats(&self) -> Option<MipStats> {
        Some(self.stats)
    }

    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment> {
        let _span = vb_telemetry::span!("sched.mip_plan");
        if ctx.new_apps.is_empty() {
            return Vec::new();
        }
        if ctx.sites.len() < 2 {
            // Single site: nothing to decide.
            return ctx
                .new_apps
                .iter()
                .map(|a| Assignment { app: a.id, site: 0 })
                .collect();
        }
        let (plan, gap, fell_back) = match self.solve(ctx) {
            Ok((plan, gap)) => (plan, gap, 0.0),
            Err(_) => {
                self.stats.fallback_epochs += 1;
                vb_telemetry::counter!("sched.mip_fallbacks").inc();
                vb_telemetry::event(
                    "sched.mip_fallback",
                    &[
                        ("policy", self.cfg.name.as_str().into()),
                        ("epoch_step", ctx.now.into()),
                    ],
                );
                (self.fallback.plan(ctx), None, 1.0)
            }
        };
        vb_telemetry::series_sample(
            "sched.mip_epoch",
            &crate::sim::series_instance(&self.cfg.name, ctx.sites.iter().map(|s| s.name.as_str())),
            ctx.now,
            &[
                ("apps_placed", plan.len() as f64),
                ("fallback", fell_back),
                ("budget_stop", if gap.is_some() { 1.0 } else { 0.0 }),
                ("gap", gap.unwrap_or(0.0)),
            ],
        );
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppSpec;
    use crate::policy::{AppId, NewApp, SitePlanInfo};
    use vb_cluster::VmKind;

    fn site(name: &str, capacity: Vec<f64>, committed: Vec<f64>) -> SitePlanInfo {
        SitePlanInfo {
            name: name.into(),
            total_cores: 1_000,
            current_budget_cores: capacity[0] as u32,
            allocated_cores: committed[0] as u32,
            capacity_forecast_cores: capacity,
            committed_cores: committed,
        }
    }

    fn new_app(id: usize, n_vms: u32, lifetime: u32) -> NewApp {
        NewApp {
            id: AppId(id),
            spec: AppSpec {
                n_vms,
                cores_per_vm: 4,
                mem_per_vm_gb: 16.0,
                kind: VmKind::Stable,
                lifetime_steps: lifetime,
            },
        }
    }

    #[test]
    fn avoids_the_site_whose_power_will_collapse() {
        // Site 0 has more power *now* but collapses in bucket 2; site 1
        // is steady. Greedy would pick site 0; the MIP must not.
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                site("collapsing", vec![800.0, 800.0, 0.0, 0.0], vec![0.0; 4]),
                site("steady", vec![500.0, 500.0, 500.0, 500.0], vec![0.0; 4]),
            ],
            new_apps: vec![new_app(0, 25, 48)], // 100 cores, alive all 4 buckets
            movable: vec![],
        };
        let plan = MipPolicy::new(MipConfig::mip()).plan(&ctx);
        assert_eq!(
            plan,
            vec![Assignment {
                app: AppId(0),
                site: 1
            }]
        );
        // And greedy indeed falls for it.
        let gplan = GreedyPolicy::new().plan(&ctx);
        assert_eq!(gplan[0].site, 0);
    }

    #[test]
    fn short_app_can_use_the_collapsing_site() {
        // The same collapse, but the app finishes before it: the MIP can
        // place it anywhere cost-free; both placements have zero
        // predicted overhead, so just assert feasibility and zero cost.
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                site("collapsing", vec![800.0, 800.0, 0.0, 0.0], vec![0.0; 4]),
                site("steady", vec![500.0; 4], vec![0.0; 4]),
            ],
            new_apps: vec![new_app(0, 25, 12)], // one bucket of life
            movable: vec![],
        };
        let plan = MipPolicy::new(MipConfig::mip()).plan(&ctx);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn balances_apps_across_sites_when_capacity_binds() {
        // Two steady sites of 300 cores each; two 200-core apps. Placing
        // both on one site displaces 100 cores; splitting avoids it.
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                site("a", vec![300.0; 4], vec![0.0; 4]),
                site("b", vec![300.0; 4], vec![0.0; 4]),
            ],
            new_apps: vec![new_app(0, 50, 48), new_app(1, 50, 48)],
            movable: vec![],
        };
        let plan = MipPolicy::new(MipConfig::mip()).plan(&ctx);
        assert_ne!(plan[0].site, plan[1].site, "apps must split");
    }

    #[test]
    fn peak_variant_prefers_shallow_displacement() {
        // One 120-core app. Site "deep" hosts it fine for 3 buckets then
        // displaces all of it at once; site "shallow" displaces 30 cores
        // in every bucket. Total displacement ties at 120 core-buckets,
        // so O1 alone is indifferent — the O2 peak term must pick the
        // shallow profile (30 ≪ 120 peak).
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                site("deep", vec![300.0, 300.0, 300.0, 0.0], vec![0.0; 4]),
                site("shallow", vec![90.0, 90.0, 90.0, 90.0], vec![0.0; 4]),
            ],
            new_apps: vec![new_app(0, 30, 48)], // 120 cores
            movable: vec![],
        };
        let peak_plan = MipPolicy::new(MipConfig::mip_peak()).plan(&ctx);
        assert_eq!(peak_plan[0].site, 1, "O2 prefers the shallow profile");
    }

    #[test]
    fn every_new_app_is_assigned_exactly_once() {
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                site("a", vec![400.0; 8], vec![100.0; 8]),
                site("b", vec![300.0; 8], vec![50.0; 8]),
                site("c", vec![200.0; 8], vec![0.0; 8]),
            ],
            new_apps: (0..5).map(|i| new_app(i, 10 + i as u32 * 5, 96)).collect(),
            movable: vec![],
        };
        for cfg in [
            MipConfig::mip(),
            MipConfig::mip_24h(),
            MipConfig::mip_peak(),
        ] {
            let plan = MipPolicy::new(cfg).plan(&ctx);
            let mut ids: Vec<usize> = plan.iter().map(|a| a.app.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3, 4]);
            assert!(plan.iter().all(|a| a.site < 3));
        }
    }

    #[test]
    fn empty_epoch_is_a_no_op() {
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![site("a", vec![100.0; 2], vec![0.0; 2])],
            new_apps: vec![],
            movable: vec![],
        };
        assert!(MipPolicy::new(MipConfig::mip()).plan(&ctx).is_empty());
    }

    #[test]
    fn variant_names_match_table_1() {
        assert_eq!(MipPolicy::new(MipConfig::mip()).name(), "MIP");
        assert_eq!(MipPolicy::new(MipConfig::mip_24h()).name(), "MIP-24h");
        assert_eq!(MipPolicy::new(MipConfig::mip_peak()).name(), "MIP-peak");
    }

    #[test]
    fn horizon_covers_partial_final_bucket() {
        // horizon_steps = 100 with 12-step buckets is 8⅓ buckets. The
        // old truncating division planned only 8 and went blind for the
        // tail: a site collapsing in bucket 8 looked perfect. Ceiling
        // division keeps the partial bucket in view.
        let cfg = MipConfig {
            horizon_steps: 100,
            ..MipConfig::mip()
        };
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                // Roomier than "steady" for 8 buckets, dead in the 9th.
                site(
                    "trap",
                    vec![800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 0.0],
                    vec![0.0; 9],
                ),
                site("steady", vec![500.0; 9], vec![0.0; 9]),
            ],
            new_apps: vec![new_app(0, 25, 100)], // 100 cores, alive in bucket 8
            movable: vec![],
        };
        let plan = MipPolicy::new(cfg).plan(&ctx);
        assert_eq!(plan[0].site, 1, "the partial final bucket must be planned");
    }

    #[test]
    fn rehost_survives_nan_forecast_scores() {
        // A NaN forecast must not panic the readout; total_cmp keeps the
        // comparison total and NaN sorts above every finite score, so
        // the finite site still wins via max_by order stability checks.
        let snap = |forecast: f64| SiteSnapshot {
            budget_cores: 100,
            allocated_cores: 0,
            total_cores: 100,
            admission_cap: 100,
            forecast_min_24h_cores: forecast,
        };
        let sites = [snap(f64::NAN), snap(50.0)];
        let mut pol = MipPolicy::new(MipConfig::mip());
        let chosen = pol.choose_rehost(&sites, 10);
        assert!(chosen.is_some(), "must pick a site, not panic");
    }

    #[test]
    fn planned_epochs_are_counted() {
        let mut policy = MipPolicy::new(MipConfig::mip());
        for apps in [
            vec![new_app(0, 30, 48)],
            vec![new_app(0, 30, 48), new_app(1, 20, 48)],
        ] {
            let ctx = PlanContext {
                now: 0,
                bucket_steps: 12,
                sites: vec![
                    site("a", vec![250.0; 4], vec![40.0; 4]),
                    site("b", vec![140.0; 4], vec![40.0; 4]),
                ],
                new_apps: apps,
                movable: vec![],
            };
            policy.plan(&ctx);
        }
        let st = policy.mip_stats().expect("MIP policy reports stats");
        assert_eq!(st.epochs_planned, 2);
        assert_eq!(st.fallback_epochs, 0);
    }

    #[test]
    fn spread_fills_sites_in_index_order() {
        assert_eq!(spread(&[1.0, 2.0, 1.0], 4), Some(vec![0, 1, 1, 2]));
        // Counts within rounding of integers are accepted; counts that
        // do not partition the class are not.
        assert_eq!(spread(&[0.999_999_9, 1.000_000_1], 2), Some(vec![0, 1]));
        assert_eq!(spread(&[1.0, 2.0], 4), None);
        assert_eq!(spread(&[-1.0, 3.0], 2), None);
    }

    #[test]
    fn interchangeable_apps_each_come_back_once() {
        // Six identical new apps form one class, and each comes back
        // in the plan exactly once.
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![
                site("doomed", vec![500.0, 100.0, 100.0, 100.0], vec![0.0; 4]),
                site("ok", vec![500.0; 4], vec![0.0; 4]),
            ],
            new_apps: (0..6).map(|i| new_app(i, 2, 48)).collect(),
            movable: vec![],
        };
        let classes = classify(&ctx, 4);
        let sizes: Vec<usize> = classes.iter().map(|c| c.members.len()).collect();
        assert_eq!(sizes, vec![6]);
        let mut pol = MipPolicy::new(MipConfig::mip_peak());
        let plan = pol.plan(&ctx);
        assert_eq!(pol.stats().fallback_epochs, 0);
        let ids: Vec<usize> = plan.iter().map(|a| a.app.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "each new app exactly once");
        assert!(plan.iter().all(|a| a.site < 2));
    }

    #[test]
    fn alive_uses_bucket_start() {
        assert!(alive(1, 12, 0));
        assert!(!alive(12, 12, 1));
        assert!(alive(13, 12, 1));
    }
}
