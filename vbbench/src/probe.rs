//! Running one study and measuring it from outside the program: timers
//! and `bench.*` spans around calls into the layers' public functions, a
//! delegating [`Policy`] that times and validates every planning decision,
//! and checks on the outputs that the program does not make itself.

use std::time::Instant;
use vb_cluster::simulate_paper_site;
use vb_net::WanModel;
use vb_sched::policy::{AppId, SiteSnapshot};
use vb_sched::{Assignment, GroupSim, MipStats, PlanContext, Policy, PolicySummary};
use vb_trace::{forecast_for, generate_in, Catalog, Horizon};

use crate::workload::{Study, StudyKind};

/// Seconds per simulation step (15 minutes), the WAN accounting interval.
pub const INTERVAL_S: f64 = 900.0;

/// Run `f`, inside a `bench.*` span when the study is traced.
pub fn layer<T>(traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = traced.then(|| vb_telemetry::span!(name));
    f()
}

/// FNV-1a (64-bit) over the bit patterns of a study's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Check a plan against the [`Policy::plan`] contract: every new app is
/// assigned exactly once, no app twice, only new or movable apps, and
/// only to a site of the context. Sorted id lists keep the check cheap
/// next to the planning call it follows inside the timed study.
pub fn validate_plan(ctx: &PlanContext, plan: &[Assignment]) -> Result<(), String> {
    let mut offered: Vec<AppId> = ctx
        .new_apps
        .iter()
        .map(|a| a.id)
        .chain(ctx.movable.iter().map(|m| m.id))
        .collect();
    offered.sort_unstable();
    for a in plan {
        if a.site >= ctx.sites.len() {
            return Err(format!(
                "app {} assigned to site {} of {}",
                a.app.0,
                a.site,
                ctx.sites.len()
            ));
        }
        if offered.binary_search(&a.app).is_err() {
            return Err(format!("app {} is neither new nor movable", a.app.0));
        }
    }
    let mut assigned: Vec<AppId> = plan.iter().map(|a| a.app).collect();
    assigned.sort_unstable();
    if let Some(w) = assigned.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("app {} assigned twice", w[0].0));
    }
    match ctx
        .new_apps
        .iter()
        .find(|a| assigned.binary_search(&a.id).is_err())
    {
        Some(a) => Err(format!("new app {} left unassigned", a.id.0)),
        None => Ok(()),
    }
}

/// Delegates to the real policy, timing each `plan` call and recording
/// the first decision that breaks the policy contract. Re-host choices are
/// too many and too short for a span each (tens of thousands per study):
/// a traced study sums their time instead.
pub struct CheckedPolicy {
    inner: Box<dyn Policy>,
    traced: bool,
    pub plan_ms: Vec<f64>,
    pub rehost_calls: u64,
    pub rehost_s: f64,
    pub violation: Option<String>,
}

impl CheckedPolicy {
    pub fn new(inner: Box<dyn Policy>, traced: bool) -> CheckedPolicy {
        CheckedPolicy {
            inner,
            traced,
            plan_ms: Vec::new(),
            rehost_calls: 0,
            rehost_s: 0.0,
            violation: None,
        }
    }

    fn flag(&mut self, what: String) {
        self.violation.get_or_insert(what);
    }
}

impl Policy for CheckedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment> {
        let t = Instant::now();
        let plan = layer(self.traced, "bench.plan", || self.inner.plan(ctx));
        self.plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = validate_plan(ctx, &plan) {
            self.flag(format!("plan at step {}: {e}", ctx.now));
        }
        plan
    }

    fn preemptive_drain(&self) -> bool {
        self.inner.preemptive_drain()
    }

    fn choose_rehost(&mut self, sites: &[SiteSnapshot], cores: u32) -> Option<usize> {
        self.rehost_calls += 1;
        let choice = if self.traced {
            let t = Instant::now();
            let choice = self.inner.choose_rehost(sites, cores);
            self.rehost_s += t.elapsed().as_secs_f64();
            choice
        } else {
            self.inner.choose_rehost(sites, cores)
        };
        if let Some(i) = choice.filter(|&i| i >= sites.len()) {
            self.flag(format!("rehost to site {i} of {}", sites.len()));
        }
        choice
    }

    fn mip_stats(&self) -> Option<MipStats> {
        self.inner.mip_stats()
    }
}

/// A per-step migration series must cover every step with a finite,
/// non-negative volume.
pub fn check_series(per_step_gb: &[f64], steps: usize) -> Result<(), String> {
    if per_step_gb.len() != steps {
        return Err(format!(
            "{} per-step values for {steps} steps",
            per_step_gb.len()
        ));
    }
    match per_step_gb.iter().position(|v| !v.is_finite() || *v < 0.0) {
        Some(i) => Err(format!("step {i} moved {} GB", per_step_gb[i])),
        None => Ok(()),
    }
}

/// A summary must agree with its own per-step series.
pub fn check_summary(s: &PolicySummary, steps: usize) -> Result<(), String> {
    check_series(&s.per_step_gb, steps)?;
    let sum: f64 = s.per_step_gb.iter().sum();
    if (s.total_gb - sum).abs() > 1e-9 * sum.abs().max(1.0) {
        return Err(format!("total {} GB but steps sum to {sum} GB", s.total_gb));
    }
    let max = s.per_step_gb.iter().copied().fold(0.0, f64::max);
    if s.peak_gb.to_bits() != max.to_bits() {
        return Err(format!("peak {} GB but largest step {max} GB", s.peak_gb));
    }
    if s.p99_gb > s.peak_gb {
        return Err(format!("p99 {} GB above peak {} GB", s.p99_gb, s.peak_gb));
    }
    Ok(())
}

/// WAN accounting must conserve drain time: Σ busy + backlog = Σ drain.
pub fn check_wan(wan: &WanModel, gb: &[f64], busy: &[f64], backlog: f64) -> Result<(), String> {
    if busy.len() != gb.len() {
        return Err(format!(
            "{} busy intervals for {} steps",
            busy.len(),
            gb.len()
        ));
    }
    if let Some(b) = busy.iter().find(|b| !(0.0..=INTERVAL_S).contains(*b)) {
        return Err(format!("link busy {b} s in a {INTERVAL_S} s interval"));
    }
    let drain: f64 = gb.iter().map(|&g| wan.drain_secs(g)).sum();
    let accounted = busy.iter().sum::<f64>() + backlog;
    if (accounted - drain).abs() > 1e-9 * drain.max(1.0) {
        return Err(format!("busy + backlog {accounted} s but drain {drain} s"));
    }
    Ok(())
}

/// What one study produced and cost.
#[derive(Debug, Clone, Default)]
pub struct StudyRecord {
    /// Seconds from the study's first layer call to its last.
    pub wall_s: f64,
    pub site_steps: u64,
    pub plan_ms: Vec<f64>,
    pub rehost_calls: u64,
    pub rehost_s: f64,
    /// Migration volume per step (group total, or site in + out), GB.
    pub per_step_gb: Vec<f64>,
    pub wan_busy_s: f64,
    pub dropped_apps: u64,
    pub vm_decisions: u64,
    pub digest: u64,
}

/// Run one study. `Err` is a failed study: a construction error or an
/// output that breaks a check. Panics propagate to the caller.
pub fn run_study(catalog: &Catalog, study: &Study, traced: bool) -> Result<StudyRecord, String> {
    let wan = WanModel::default();
    let mut digest = Fnv::default();
    let t0 = Instant::now();
    let study_span = traced.then(|| vb_telemetry::span!("bench.study"));
    let mut rec = match &study.kind {
        StudyKind::Group { sites, cfg, policy } => {
            let names: Vec<&str> = sites.iter().map(String::as_str).collect();
            let sim = layer(traced, "bench.group_new", || {
                GroupSim::new(catalog, &names, cfg.clone())
            })
            .map_err(|e| e.to_string())?;
            let steps = sim.n_steps() as usize;
            let mut policy = CheckedPolicy::new(policy.build(), traced);
            let summary = layer(traced, "bench.run", || sim.run(&mut policy));
            let (busy, backlog) = layer(traced, "bench.wan", || {
                wan.busy_profile(&summary.per_step_gb, INTERVAL_S)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            if let Some(v) = policy.violation {
                return Err(v);
            }
            check_summary(&summary, steps)?;
            check_wan(&wan, &summary.per_step_gb, &busy, backlog)?;
            digest.str(&summary.policy);
            for v in [
                summary.total_gb,
                summary.p99_gb,
                summary.peak_gb,
                summary.std_gb,
                summary.zero_fraction,
            ] {
                digest.f64(v);
            }
            summary.per_step_gb.iter().for_each(|&v| digest.f64(v));
            for v in [
                summary.unavailable_app_steps,
                summary.preemptive_moves as u64,
                summary.dropped_apps as u64,
                summary.vm_decisions,
            ] {
                digest.u64(v);
            }
            StudyRecord {
                wall_s,
                plan_ms: policy.plan_ms,
                rehost_calls: policy.rehost_calls,
                rehost_s: policy.rehost_s,
                wan_busy_s: busy.iter().sum(),
                dropped_apps: summary.dropped_apps as u64,
                vm_decisions: summary.vm_decisions,
                per_step_gb: summary.per_step_gb,
                ..StudyRecord::default()
            }
        }
        StudyKind::Site {
            site,
            start_day,
            days,
            seed,
        } => {
            if catalog.get(site).is_none() {
                return Err(format!("unknown site {site:?}"));
            }
            let power = layer(traced, "bench.catalog_trace", || {
                catalog.trace(site, *start_day, *days)
            });
            let out = layer(traced, "bench.cluster_simulate", || {
                simulate_paper_site(&power, *seed)
            });
            let per_step_gb: Vec<f64> = out.steps.iter().map(|s| s.out_gb + s.in_gb).collect();
            let (busy, backlog) = layer(traced, "bench.wan", || {
                wan.busy_profile(&per_step_gb, INTERVAL_S)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            check_series(&per_step_gb, power.len())?;
            check_wan(&wan, &per_step_gb, &busy, backlog)?;
            digest.str(site);
            for s in &out.steps {
                digest.f64(s.out_gb);
                digest.f64(s.in_gb);
                digest.u64(s.migrations_out as u64);
                digest.u64(s.migrations_in as u64);
            }
            StudyRecord {
                wall_s,
                wan_busy_s: busy.iter().sum(),
                per_step_gb,
                ..StudyRecord::default()
            }
        }
    };
    drop(study_span);
    rec.site_steps = study.site_steps();
    digest.f64(rec.wan_busy_s);
    rec.digest = digest.finish();
    if traced {
        if let StudyKind::Group { sites, cfg, .. } = &study.kind {
            split_trace_setup(catalog, sites, cfg.start_day, cfg.days);
        }
    }
    Ok(rec)
}

/// Re-run the two halves of `GroupSim::new`'s per-site setup (trace
/// generation, then the three forecast horizons) on the same sites and
/// days, so a traced study can split construction time between them.
fn split_trace_setup(catalog: &Catalog, sites: &[String], start_day: u32, days: u32) {
    for name in sites {
        let Some(site) = catalog.get(name) else {
            continue;
        };
        let actual = layer(true, "bench.generate", || {
            generate_in(site, start_day, days, catalog.field())
        });
        layer(true, "bench.forecast", || {
            for h in [Horizon::Hours3, Horizon::DayAhead, Horizon::WeekAhead] {
                std::hint::black_box(forecast_for(&actual, site, h, catalog.field()));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_sched::policy::NewApp;
    use vb_sched::{AppSpec, SitePlanInfo};

    fn ctx(new_apps: usize, sites: usize) -> PlanContext {
        let site = SitePlanInfo {
            name: "s".into(),
            total_cores: 100,
            current_budget_cores: 80,
            allocated_cores: 0,
            capacity_forecast_cores: vec![80.0; 2],
            committed_cores: vec![0.0; 2],
        };
        PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![site; sites],
            new_apps: (0..new_apps)
                .map(|i| NewApp {
                    id: AppId(i),
                    spec: AppSpec {
                        n_vms: 1,
                        cores_per_vm: 2,
                        mem_per_vm_gb: 8.0,
                        kind: vb_cluster::VmKind::Stable,
                        lifetime_steps: 10,
                    },
                })
                .collect(),
            movable: vec![],
        }
    }

    fn assign(app: usize, site: usize) -> Assignment {
        Assignment {
            app: AppId(app),
            site,
        }
    }

    /// Returns a fixed plan whatever the context.
    struct Fixed(Vec<Assignment>);

    impl Policy for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn plan(&mut self, _ctx: &PlanContext) -> Vec<Assignment> {
            self.0.clone()
        }
    }

    #[test]
    fn validator_accepts_a_complete_plan() {
        assert_eq!(
            validate_plan(&ctx(2, 3), &[assign(0, 2), assign(1, 0)]),
            Ok(())
        );
    }

    #[test]
    fn validator_rejects_bad_assignments() {
        let c = ctx(2, 3);
        let cases = [
            (vec![assign(0, 0)], "left unassigned"),
            (
                vec![assign(0, 0), assign(0, 1), assign(1, 1)],
                "assigned twice",
            ),
            (vec![assign(0, 3), assign(1, 1)], "site 3 of 3"),
            (
                vec![assign(0, 0), assign(1, 1), assign(7, 1)],
                "neither new nor movable",
            ),
        ];
        for (plan, want) in cases {
            let err = validate_plan(&c, &plan).expect_err(want);
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        }
    }

    #[test]
    fn wrapper_records_the_first_violation_and_passes_the_plan_through() {
        let bad = vec![assign(0, 5)];
        let mut p = CheckedPolicy::new(Box::new(Fixed(bad.clone())), false);
        assert_eq!(p.plan(&ctx(1, 2)), bad);
        assert_eq!(p.plan_ms.len(), 1);
        let first = p.violation.clone().expect("out-of-range site is flagged");
        p.plan(&ctx(2, 2));
        assert_eq!(p.violation, Some(first), "the first violation is kept");
    }

    #[test]
    fn fnv1a_matches_reference_values() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn study_digest_is_stable_across_runs_and_tracing() {
        let catalog = Catalog::europe(3);
        let study = Study {
            catalog: 0,
            kind: StudyKind::Group {
                sites: crate::workload::TRIO
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                cfg: vb_sched::GroupSimConfig {
                    days: 1,
                    seed: 3,
                    ..vb_sched::GroupSimConfig::default()
                },
                policy: vb_core::fleet::FleetPolicy::Mip,
            },
        };
        let a = run_study(&catalog, &study, false).expect("study runs");
        let b = run_study(&catalog, &study, true).expect("traced study runs");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.per_step_gb.len(), 96);
        assert_eq!(a.plan_ms.len(), b.plan_ms.len());
    }

    #[test]
    fn summary_checks_catch_inconsistent_outputs() {
        let good = PolicySummary {
            policy: "p".into(),
            total_gb: 3.0,
            p99_gb: 2.0,
            peak_gb: 2.0,
            std_gb: 1.0,
            zero_fraction: 0.5,
            per_step_gb: vec![0.0, 1.0, 2.0, 0.0],
            unavailable_app_steps: 0,
            preemptive_moves: 0,
            dropped_apps: 0,
            vm_decisions: 1,
        };
        assert_eq!(check_summary(&good, 4), Ok(()));
        assert!(check_summary(&good, 5).is_err(), "length");
        let bad_total = PolicySummary {
            total_gb: 3.1,
            ..good.clone()
        };
        assert!(check_summary(&bad_total, 4).is_err(), "total");
        let bad_p99 = PolicySummary {
            p99_gb: 2.5,
            ..good.clone()
        };
        assert!(check_summary(&bad_p99, 4).is_err(), "p99 above peak");
        let negative = PolicySummary {
            per_step_gb: vec![0.0, 4.0, -1.0, 0.0],
            ..good
        };
        assert!(check_summary(&negative, 4).is_err(), "negative step");
    }
}
