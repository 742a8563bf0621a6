//! Multi-site group simulation (the Table 1 / Fig 7 experiment).
//!
//! Runs a multi-VB group — the sites of one selected clique — over a
//! power-trace period at 15-minute resolution. Applications arrive and
//! are placed by a [`Policy`] at fixed planning epochs; between epochs
//! the *runtime* reacts to actual power:
//!
//! * A site whose power drops below its committed cores first hibernates
//!   degradable applications in place (no WAN traffic), then evicts
//!   stable applications.
//! * Evicted stable applications are re-placed on sibling sites with
//!   available power — each such move is WAN traffic equal to the app's
//!   memory (§3's migration-overhead accounting). With no room anywhere
//!   the app waits in a group-wide queue (an availability violation,
//!   which multi-VB is designed to make rare).
//! * When power returns, hibernated apps resume free of charge and
//!   queued apps relaunch — the relaunch transfer counts as migration
//!   traffic, mirroring the paper's "consider these as VMs migrated
//!   into the site".
//!
//! All four Table 1 policies run against identical arrival sequences and
//! power traces (same seeds), so differences are purely placement
//! quality.
//!
//! ## The event-driven step core
//!
//! A step visits only what can change at it. Time-bucketed event queues
//! hold app expirations, site power threats and preemptive-drain
//! deadlines, and incremental group counters replace per-step totals,
//! so a quiescent site costs nothing per step. Power budgets and
//! day-ahead forecast minima are precomputed per site once at
//! construction, and "when does this site next violate X?" is answered
//! by a bucketed threshold scan instead of a per-step re-check.
//!
//! The core's invariant is lazy arming: an armed wake-up step is never
//! later than the earliest real violation, and a wake-up gone moot is
//! a no-op. A step therefore does exactly what a visit to every site
//! and every app would have done. `tests/golden_steps.rs` pins every
//! per-step stat of seven runs bit for bit, at the values such a full
//! scan produces.

use crate::app::{AppGen, AppGenConfig, AppSpec};
use crate::policy::{AppId, NewApp, PlanContext, Policy, SitePlanInfo, SiteSnapshot};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use vb_cluster::VmKind;
use vb_stats::{Cdf, Summary, TimeSeries};
use vb_trace::{Catalog, CoverageError, Horizon, Site, SiteSeries, WEEK_AHEAD_STEPS};

/// Errors constructing a group simulation from a catalog + config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A requested site name is not in the catalog.
    UnknownSite(String),
    /// The group needs at least one site.
    NoSites,
    /// A site's measured data does not cover the simulated days.
    Coverage(CoverageError),
    /// A [`GroupSimConfig`] field holds a value no simulation can run on.
    Config {
        /// The field's name.
        field: &'static str,
        /// What is wrong with its value.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownSite(name) => {
                write!(f, "unknown site {name:?}: not present in the catalog")
            }
            SimError::NoSites => write!(f, "a group simulation needs at least one site"),
            SimError::Coverage(e) => write!(f, "{e}"),
            SimError::Config { field, reason } => {
                write!(f, "invalid GroupSimConfig::{field}: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Simulation steps per day at the paper's 15-minute resolution
/// (re-exported from the canonical [`vb_trace::STEPS_PER_DAY`] at the
/// width the scheduler uses).
pub const STEPS_PER_DAY: u32 = vb_trace::STEPS_PER_DAY as u32;

/// Day-ahead look-ahead window in steps: how far the
/// `forecast_min_24h_cores` snapshot scans the day-ahead forecast (the
/// drain's deficit test and forecast-aware re-hosting read it), and the
/// lead time up to which a plan's forecast buckets read the day-ahead
/// product.
pub const DAY_AHEAD_STEPS: usize = STEPS_PER_DAY as usize;

/// Width (in steps) of the coarse buckets the event core's threshold
/// scans use: per-bucket minima let "when does the budget next drop
/// below X?" skip half a day at a time instead of testing every step.
const EVENT_BUCKET_STEPS: usize = (STEPS_PER_DAY / 2) as usize;

/// Sentinel for "no wake-up armed" in the event queues.
const NOT_ARMED: u64 = u64::MAX;

/// Drain moves execute at most this many per step, so a predicted dip
/// drains as a stream over the hours before it instead of one burst
/// (the paper's MIP-peak "spreading out migrations over time").
const MOVES_PER_STEP: usize = 2;

/// Configuration of a group simulation.
#[derive(Debug, Clone)]
pub struct GroupSimConfig {
    /// Cores per site (paper: ≈700 servers × 40 cores).
    pub cores_per_site: u32,
    /// Admission headroom: a site accepts apps up to this fraction of
    /// its powered cores (paper: 0.7).
    pub target_util: f64,
    /// Planning cadence in steps (default 12 = 3 h).
    pub epoch_steps: u32,
    /// Forecast bucket width in steps for the policy's look-ahead
    /// (at least one step).
    pub bucket_steps: u32,
    /// First day-of-year of the simulated period.
    pub start_day: u32,
    /// Length of the simulated period in days (paper: 7).
    pub days: u32,
    /// Application workload; when `None`, sized to fill ~70 % of the
    /// group's mean available power.
    pub app_cfg: Option<AppGenConfig>,
    /// Optional subgraph structure (Fig 6 step 2): site-index groups an
    /// application must stay inside once placed. Initial placement picks
    /// the subgraph implicitly (by picking a site); re-hosting, queued
    /// relaunch and preemptive drains are then restricted to that
    /// subgraph — the paper's latency constraint on splitting/moving
    /// apps. `None` treats all sites as one group.
    pub subgraphs: Option<Vec<Vec<usize>>>,
    /// Seed for workload generation.
    pub seed: u64,
}

impl GroupSimConfig {
    /// Reject values no simulation can run on: an empty period, a zero
    /// planning cadence or forecast bucket width (a zero-step bucket
    /// would count every app alive in every bucket of the plan), an
    /// admission headroom outside (0, 1] (a NaN
    /// target would size an infinite workload, one above 1 admits more
    /// cores than a site has powered), and an explicit `app_cfg` whose
    /// arrival rate is negative or not finite (the Poisson sampler
    /// would silently draw no arrivals from it), whose VM-count range is
    /// empty, or whose lifetime distribution is degenerate: a zero cap,
    /// a median that is not finite and positive, or a σ that is not
    /// finite (a NaN gives every app the shortest lifetime).
    ///
    /// # Errors
    /// [`SimError::Config`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |field, reason: String| Err(SimError::Config { field, reason });
        if self.days == 0 {
            return bad(
                "days",
                "the simulated period must be at least one day".into(),
            );
        }
        if self.epoch_steps == 0 {
            return bad(
                "epoch_steps",
                "the planning cadence must be at least one step".into(),
            );
        }
        if self.bucket_steps == 0 {
            return bad(
                "bucket_steps",
                "a forecast bucket must be at least one step wide".into(),
            );
        }
        if !(self.target_util > 0.0 && self.target_util <= 1.0) {
            return bad(
                "target_util",
                format!("must be a fraction in (0, 1], not {}", self.target_util),
            );
        }
        if let Some(app) = &self.app_cfg {
            let rate = app.arrivals_per_step;
            if !(rate.is_finite() && rate >= 0.0) {
                return bad(
                    "app_cfg.arrivals_per_step",
                    format!("must be a finite, non-negative rate, not {rate}"),
                );
            }
            if app.vms_min > app.vms_max {
                return bad(
                    "app_cfg.vms_min",
                    format!(
                        "must not exceed vms_max ({}), not {}",
                        app.vms_max, app.vms_min
                    ),
                );
            }
            let median = app.median_lifetime_steps;
            if !(median.is_finite() && median > 0.0) {
                return bad(
                    "app_cfg.median_lifetime_steps",
                    format!("must be a finite, positive step count, not {median}"),
                );
            }
            if !app.lifetime_sigma.is_finite() {
                return bad(
                    "app_cfg.lifetime_sigma",
                    format!("must be finite, not {}", app.lifetime_sigma),
                );
            }
            if app.max_lifetime_steps == 0 {
                return bad(
                    "app_cfg.max_lifetime_steps",
                    "the lifetime cap must be at least one step".into(),
                );
            }
        }
        Ok(())
    }
}

impl Default for GroupSimConfig {
    fn default() -> GroupSimConfig {
        GroupSimConfig {
            cores_per_site: 700 * 40,
            target_util: 0.7,
            epoch_steps: 12,
            bucket_steps: 12,
            start_day: 120,
            days: 7,
            app_cfg: None,
            subgraphs: None,
            seed: 42,
        }
    }
}

/// Per-step group telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupStepStats {
    /// Step index (15-minute intervals since simulation start).
    pub step: u64,
    /// WAN transfer volume this step (evictions re-placed + relaunches +
    /// preemptive drain moves), GB.
    pub transfer_gb: f64,
    /// Portion of `transfer_gb` from forced eviction re-hosting.
    pub rehost_gb: f64,
    /// Portion of `transfer_gb` from queued-app relaunches.
    pub relaunch_gb: f64,
    /// Portion of `transfer_gb` from preemptive drain moves (the only
    /// preemptive moves: the runtime drains sites in forecast deficit
    /// for policies whose [`Policy::preemptive_drain`] is on).
    pub move_gb: f64,
    /// Number of application transfers this step.
    pub transfers: usize,
    /// Memory evicted with nowhere to go (queued), GB.
    pub stranded_gb: f64,
    /// Stable apps waiting in the group queue after this step.
    pub queued_apps: usize,
    /// Degradable apps hibernated across the group after this step.
    pub hibernated_apps: usize,
    /// Group-wide committed cores after this step.
    pub allocated_cores: u64,
    /// Group-wide powered cores this step.
    pub budget_cores: u64,
    /// Σ over sites of committed cores above the site's powered cores
    /// after this step (surplus at one site cannot power another).
    pub power_deficit_cores: u64,
}

/// Aggregate result of one policy run — one Table 1 row plus the Fig 7
/// CDF series.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySummary {
    /// Policy name (Table 1 row label).
    pub policy: String,
    /// Total migration volume over the run, GB.
    pub total_gb: f64,
    /// 99th percentile of per-step migration volume (all steps), GB.
    pub p99_gb: f64,
    /// Largest per-step migration volume, GB.
    pub peak_gb: f64,
    /// Standard deviation of per-step volume, GB.
    pub std_gb: f64,
    /// Fraction of steps with zero migration (Fig 7's "zero values").
    pub zero_fraction: f64,
    /// Per-step volumes (for CDFs and plots).
    pub per_step_gb: Vec<f64>,
    /// Step-summed app-waiting time: Σ over steps of queued stable apps.
    pub unavailable_app_steps: u64,
    /// Preemptive drain moves the run made (0 unless the policy's
    /// [`Policy::preemptive_drain`] is on).
    pub preemptive_moves: usize,
    /// Apps that expired while queued (never re-hosted).
    pub dropped_apps: usize,
    /// VM placement decisions made over the run: every attach (initial
    /// placement, re-host, relaunch, drain move) counts its VMs.
    /// The fleet bench's "VM-decisions/sec" denominator.
    pub vm_decisions: u64,
}

impl PolicySummary {
    fn from_steps(
        policy: &str,
        steps: &[GroupStepStats],
        moves: usize,
        dropped: usize,
        vm_decisions: u64,
    ) -> PolicySummary {
        let per_step: Vec<f64> = steps.iter().map(|s| s.transfer_gb).collect();
        let summary = Summary::of(&per_step);
        let zero_fraction = Cdf::of_nonzero(&per_step).zero_fraction();
        PolicySummary {
            policy: policy.to_string(),
            total_gb: summary.total,
            p99_gb: summary.p99,
            peak_gb: summary.max,
            std_gb: summary.std,
            zero_fraction,
            per_step_gb: per_step,
            unavailable_app_steps: steps.iter().map(|s| s.queued_apps as u64).sum(),
            preemptive_moves: moves,
            dropped_apps: dropped,
            vm_decisions,
        }
    }
}

#[derive(Debug, Clone)]
struct AppState {
    spec: AppSpec,
    /// Current site, or `None` while queued.
    site: Option<usize>,
    /// Last site the app ran at (anchors its subgraph while queued).
    last_site: usize,
    hibernated: bool,
    /// True while the app sits in the group-wide relaunch queue.
    in_queue: bool,
    departs_at: u64,
    /// Index of this app's entry in its current site's resident list
    /// (meaningless while detached). Lets `detach` overwrite its slot
    /// with [`TOMBSTONE`] in O(1) instead of an O(residents) `retain`.
    slot: usize,
}

/// Dead entry in a site's resident list. Departures tombstone their
/// slot rather than shifting the tail; compaction (in [`GroupSim::detach`])
/// squeezes the list once tombstones outnumber live entries, preserving
/// relative order so "oldest resident first" decisions are unchanged.
const TOMBSTONE: AppId = AppId(usize::MAX);

#[derive(Debug, Clone)]
struct SiteState {
    site: Site,
    /// Actual normalized power over the run.
    actual: TimeSeries,
    /// Forecast products, degraded per horizon (3 h / day / week).
    f3: TimeSeries,
    fd: TimeSeries,
    fw: TimeSeries,
    /// Apps resident here (running or hibernated), in arrival order,
    /// interspersed with [`TOMBSTONE`] entries left by departures.
    apps: Vec<AppId>,
    /// Tombstone count in `apps` (compaction trigger).
    dead: usize,
    /// Index below which `apps` holds no running degradable app, only
    /// tombstones, stable apps and hibernated apps: the hibernation
    /// scan in [`GroupSim::apply_power_site`] starts here and leaves
    /// it where it stopped. A resume lowers it to the resumed app's
    /// slot; compaction resets it to 0.
    hib_cursor: usize,
    /// Index below which `apps` holds no hibernated app: the resume
    /// scan in [`GroupSim::resume_site`] starts here and leaves it at
    /// the first hibernated resident it did not resume, or where it
    /// stopped. A hibernation lowers it to the app's slot; compaction
    /// resets it to 0.
    resume_cursor: usize,
    /// Running committed cores (stable + degradable, not hibernated).
    allocated_cores: u32,
}

/// Precomputed per-site power readouts.
///
/// `budgets[t]` is step `t`'s powered-core budget,
/// `floor(clamp(actual[t], 0, 1) × cores_per_site)`, and `fd_min24[t]`
/// is the day-ahead forecast's minimum over
/// `[t, min(t + DAY_AHEAD_STEPS, len))`, `+∞` for an empty window. Every
/// reader sees this window shorten over the last day: steps past the
/// horizon are never played, so risk there cannot affect the run. The
/// `*_bucket_min` arrays hold per-[`EVENT_BUCKET_STEPS`] minima so
/// threshold scans skip whole buckets that cannot contain a violation.
#[derive(Debug, Clone)]
struct SitePower {
    budgets: Vec<u32>,
    budget_bucket_min: Vec<u32>,
    fd_min24: Vec<f64>,
    fd24_bucket_min: Vec<f64>,
}

impl SitePower {
    fn build(actual: &TimeSeries, fd: &TimeSeries, cores_per_site: u32, n_steps: usize) -> Self {
        // Missing trace steps (defensive: traces normally cover the run
        // exactly) count as zero power; the gap is surfaced via the
        // `sched.budget_gap_steps` counter instead of a panic.
        let gap = n_steps.saturating_sub(actual.len());
        if gap > 0 {
            vb_telemetry::counter!("sched.budget_gap_steps").add(gap as u64);
        }
        let budgets: Vec<u32> = (0..n_steps)
            .map(|t| {
                let frac = actual.values.get(t).copied().unwrap_or(0.0).clamp(0.0, 1.0);
                // The saturating cast truncates: `floor` then `as u32`
                // for every f64, without a libm call.
                (frac * cores_per_site as f64) as u32
            })
            .collect();
        let fd_min24 = sliding_window_min(&fd.values, DAY_AHEAD_STEPS, n_steps);
        let buckets = n_steps.div_ceil(EVENT_BUCKET_STEPS.max(1));
        let budget_bucket_min = (0..buckets)
            .map(|b| {
                let lo = b * EVENT_BUCKET_STEPS;
                let hi = (lo + EVENT_BUCKET_STEPS).min(n_steps);
                budgets[lo..hi].iter().copied().min().unwrap_or(u32::MAX)
            })
            .collect();
        let fd24_bucket_min = (0..buckets)
            .map(|b| {
                let lo = b * EVENT_BUCKET_STEPS;
                let hi = (lo + EVENT_BUCKET_STEPS).min(n_steps);
                fd_min24[lo..hi]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        SitePower {
            budgets,
            budget_bucket_min,
            fd_min24,
            fd24_bucket_min,
        }
    }

    /// Earliest step `t >= from` with `budgets[t] < threshold`.
    fn next_budget_below(&self, from: usize, threshold: u32) -> Option<usize> {
        if threshold == 0 {
            return None; // budgets are unsigned: never below zero
        }
        let n = self.budgets.len();
        let w = EVENT_BUCKET_STEPS.max(1);
        let mut t = from;
        while t < n {
            let b = t / w;
            let hi = ((b + 1) * w).min(n);
            let bucket_min = self.budget_bucket_min.get(b).copied().unwrap_or(u32::MAX);
            if bucket_min < threshold {
                while t < hi {
                    if self.budgets[t] < threshold {
                        return Some(t);
                    }
                    t += 1;
                }
            } else {
                t = hi;
            }
        }
        None
    }

    /// Earliest step `t >= from` where the day-ahead admissible floor
    /// drops below `stable` cores: `fd_min24[t] × cores × util <
    /// stable`, exactly `drain_site`'s trigger `stable −
    /// forecast_min_24h_cores > 0`. Skipping a bucket is sound because
    /// multiplying by a non-negative constant is weakly monotone under
    /// IEEE rounding: `bucket_min × c ≥ stable` implies every step in
    /// the bucket clears the bar too.
    fn next_fd24_below(&self, from: usize, stable: f64, cores_f: f64, util: f64) -> Option<usize> {
        let n = self.fd_min24.len();
        let w = EVENT_BUCKET_STEPS.max(1);
        let mut t = from;
        while t < n {
            let b = t / w;
            let hi = ((b + 1) * w).min(n);
            let bucket_min = self
                .fd24_bucket_min
                .get(b)
                .copied()
                .unwrap_or(f64::INFINITY);
            if bucket_min * cores_f * util < stable {
                while t < hi {
                    if self.fd_min24[t] * cores_f * util < stable {
                        return Some(t);
                    }
                    t += 1;
                }
            } else {
                t = hi;
            }
        }
        None
    }
}

/// Minimum of `values[t..min(t + window, len)]` for every `t` in
/// `0..out_len` — `+∞` where the window is empty. A right-to-left
/// monotonic deque makes this O(n) while returning exactly the value a
/// per-step `fold(∞, min)` over the same (possibly tail-shortened)
/// window would: the min over a set does not depend on scan order.
fn sliding_window_min(values: &[f64], window: usize, out_len: usize) -> Vec<f64> {
    let n = values.len();
    let mut out = vec![f64::INFINITY; out_len];
    // Indices ascending front→back; values strictly *decreasing*
    // front→back, so the back holds the window minimum. Walking `t`
    // right-to-left, the new index enters at the front (it outlives
    // every resident, so residents with values ≥ its own are dominated
    // and popped), and expired indices (`≥ t + window`) leave the back.
    let mut dq: VecDeque<usize> = VecDeque::new();
    for t in (0..out_len).rev() {
        if t < n {
            while let Some(&f) = dq.front() {
                if values[f] >= values[t] {
                    dq.pop_front();
                } else {
                    break;
                }
            }
            dq.push_front(t);
        }
        while let Some(&b) = dq.back() {
            if b >= t + window {
                dq.pop_back();
            } else {
                break;
            }
        }
        if let Some(&b) = dq.back() {
            out[t] = values[b];
        }
    }
    out
}

/// Per-step telemetry plus the run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedRun {
    /// Per-step group telemetry.
    pub steps: Vec<GroupStepStats>,
    /// The run's Table-1-style summary.
    pub summary: PolicySummary,
}

/// Event-core state: time-bucketed wake-up queues plus incrementally
/// maintained group counters, each O(1) per mutation.
#[derive(Debug, Default)]
struct EventState {
    /// The policy drains preemptively: drain wake-ups are armed.
    drain_enabled: bool,
    /// `expiry[t]`: apps whose `departs_at == t` (only `t < n_steps`).
    expiry: Vec<Vec<AppId>>,
    /// `threat[t]`: sites armed to re-check `alloc > budget` at `t`.
    threat: Vec<Vec<usize>>,
    /// Per site: the step its pending power-threat check fires at.
    armed_threat: Vec<u64>,
    /// `drain[t]`: sites armed to re-check the drain deficit at `t`.
    drain: Vec<Vec<usize>>,
    armed_drain: Vec<u64>,
    /// Ascending worklist for the drain phase; sites tipped into
    /// deficit *during* the phase (by a drain move landing on them)
    /// join it live, so the phase drains every site in deficit in
    /// ascending site order, as a scan over all sites would.
    drain_worklist: BinaryHeap<Reverse<usize>>,
    in_drain_phase: bool,
    /// True once this step's drain phase has run (or was skipped):
    /// later arms must target the next step.
    drain_phase_done: bool,
    /// Site currently being drained (for the ascending-order rule).
    drain_pos: usize,
    /// Resident hibernated apps per site — the O(1) "anything to
    /// resume here?" test of the recovery phase.
    hibernated_per_site: Vec<u32>,
    /// Lower bound on the smallest hibernated app's cores per site
    /// (`u32::MAX` when none). Only tightened on hibernate and reset
    /// when the site's last hibernated app leaves, so it may run stale
    /// low after a resume — stale-low keeps the skip test in
    /// [`GroupSim::resume_site`] sound.
    min_hib_cores: Vec<u32>,
    /// Group totals, updated by every attach, detach, hibernate and
    /// resume: Σ per-site allocations and the resident hibernated apps.
    group_allocated: u64,
    hibernated_apps: usize,
    /// Running stable cores per site. Stable apps never hibernate, so
    /// this equals the sum `drain_site` takes over the site's residents.
    stable_cores: Vec<u64>,
    /// Sites whose allocation changed this step (stamp = step + 1).
    touched_stamp: Vec<u64>,
    touched: Vec<usize>,
    /// Residents visited this run by the hibernate/evict scans and by
    /// the resume scans, flushed to `sched.power_scan_visits` and
    /// `sched.resume_scan_visits` once after the step loop.
    power_scan_visits: u64,
    resume_scan_visits: u64,
}

/// The telemetry series instance of one run: the policy name and the
/// group's sites, `"Greedy@NO-solar+UK-wind+PT-wind"`. Fleet shards run
/// one policy concurrently, so a key of the policy name alone would
/// append every shard's rows to one series, in completion order.
pub(crate) fn series_instance<'a>(
    policy: &str,
    sites: impl IntoIterator<Item = &'a str>,
) -> String {
    let mut key = policy.to_string();
    for (i, site) in sites.into_iter().enumerate() {
        key.push(if i == 0 { '@' } else { '+' });
        key.push_str(site);
    }
    key
}

/// Write a run's per-step telemetry from its step records, in step
/// order: its rows of the `sched.step_series` (keyed by `instance`),
/// the `sched.step_transfer_gb` observations and the run-total transfer
/// counters. Called once after the step loop: the series store is one
/// process-global mutex and the counters are process-global atomics,
/// and per-step updates from every fleet-shard thread at once would
/// serialize the fan-out on them. The final values are the same either
/// way.
fn record_steps(instance: &str, steps: &[GroupStepStats]) {
    let column = |value: fn(&GroupStepStats) -> f64| steps.iter().map(value).collect::<Vec<f64>>();
    let epochs: Vec<u64> = steps.iter().map(|s| s.step).collect();
    vb_telemetry::series_extend(
        "sched.step_series",
        instance,
        &epochs,
        &[
            ("transfer_gb", &column(|s| s.transfer_gb)),
            ("move_gb", &column(|s| s.move_gb)),
            ("queued_apps", &column(|s| s.queued_apps as f64)),
            ("hibernated_apps", &column(|s| s.hibernated_apps as f64)),
            (
                "power_deficit_cores",
                &column(|s| s.power_deficit_cores as f64),
            ),
            ("allocated_cores", &column(|s| s.allocated_cores as f64)),
            ("budget_cores", &column(|s| s.budget_cores as f64)),
        ],
    );
    let transfer_gb = vb_telemetry::histogram!("sched.step_transfer_gb");
    for s in steps {
        transfer_gb.observe(s.transfer_gb);
    }
    vb_telemetry::counter!("sched.transfers").add(steps.iter().map(|s| s.transfers as u64).sum());
    vb_telemetry::float_counter!("sched.rehost_gb").add(steps.iter().map(|s| s.rehost_gb).sum());
    vb_telemetry::float_counter!("sched.relaunch_gb")
        .add(steps.iter().map(|s| s.relaunch_gb).sum());
    vb_telemetry::float_counter!("sched.move_gb").add(steps.iter().map(|s| s.move_gb).sum());
    vb_telemetry::float_counter!("sched.stranded_gb")
        .add(steps.iter().map(|s| s.stranded_gb).sum());
}

/// The multi-VB group simulator.
pub struct GroupSim {
    cfg: GroupSimConfig,
    sites: Vec<SiteState>,
    /// Precomputed per-site budgets/forecast minima, parallel to `sites`.
    power: Vec<SitePower>,
    /// Group-wide powered cores per step (Σ budgets).
    budget_total: Vec<u64>,
    apps: Vec<AppState>,
    /// Evicted stable apps waiting for capacity anywhere.
    queue: Vec<AppId>,
    /// The queue [`GroupSim::relaunch_queue`] walks while failures
    /// re-queue into `queue`; kept empty between calls to reuse its
    /// capacity.
    relaunching: Vec<AppId>,
    /// The site snapshots of the last re-host decision
    /// ([`GroupSim::fill_snapshots`]); one buffer for the whole run.
    snapshots: Vec<SiteSnapshot>,
    gen: AppGen,
    now: u64,
    n_steps: u64,
    preemptive_moves: usize,
    dropped_apps: usize,
    vm_decisions: u64,
    /// Last drain-move step per app, for the anti-thrash cooldown.
    moved_at: std::collections::BTreeMap<AppId, u64>,
    /// Per-site `(allocation, budget)` as of the last resume attempt;
    /// an unchanged pair proves the attempt would be a no-op (see
    /// [`GroupSim::resume_site`]). Sentinel `u32::MAX` = never tried.
    resume_checked: Vec<(u32, u32)>,
    ev: EventState,
}

impl GroupSim {
    /// Build a group over the given catalog sites.
    ///
    /// # Errors
    /// [`SimError::NoSites`] when `site_names` is empty,
    /// [`SimError::UnknownSite`] when a name is not in the catalog and
    /// [`SimError::Coverage`] when a site's measured data does not cover
    /// the simulated days or holds a non-finite sample, and
    /// [`SimError::Config`] when [`GroupSimConfig::validate`] rejects
    /// `cfg` or a subgraph names a site index outside the group, so
    /// callers (benches, examples) fail with a diagnostic instead of a
    /// panic backtrace or a hang.
    pub fn new(
        catalog: &Catalog,
        site_names: &[&str],
        cfg: GroupSimConfig,
    ) -> Result<GroupSim, SimError> {
        cfg.validate()?;
        if site_names.is_empty() {
            return Err(SimError::NoSites);
        }
        // Re-hosting and draining index the group's sites by subgraph
        // member, so an out-of-range member would panic mid-run.
        let n_sites = site_names.len();
        let mut members = cfg.subgraphs.iter().flatten().flatten();
        if let Some(bad) = members.find(|&&i| i >= n_sites) {
            return Err(SimError::Config {
                field: "subgraphs",
                reason: format!("site index {bad} is outside the group's {n_sites} sites"),
            });
        }
        let indices = site_names
            .iter()
            .map(|&name| {
                catalog
                    .index_of(name)
                    .ok_or_else(|| SimError::UnknownSite(name.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n_steps = (cfg.days as u64) * STEPS_PER_DAY as u64;
        // Traces and forecasts are the expensive part of setup. One
        // group call draws the weather the sites share once, and serves
        // measured data where the catalog has it.
        let series = {
            let _span = vb_telemetry::span!("sched.site_traces");
            catalog.group_series(&indices, cfg.start_day, cfg.days, Horizon::all())
        }
        .map_err(SimError::Coverage)?;
        let built = indices.iter().zip(series).map(|(&i, series)| {
            let SiteSeries {
                actual,
                forecasts: [f3, fd, fw],
            } = series;
            let power = SitePower::build(&actual, &fd, cfg.cores_per_site, n_steps as usize);
            (
                SiteState {
                    site: catalog.sites()[i].clone(),
                    actual,
                    f3,
                    fd,
                    fw,
                    apps: Vec::new(),
                    dead: 0,
                    hib_cursor: 0,
                    resume_cursor: 0,
                    allocated_cores: 0,
                },
                power,
            )
        });
        let (sites, power): (Vec<SiteState>, Vec<SitePower>) = built.unzip();

        let budget_total: Vec<u64> = (0..n_steps as usize)
            .map(|t| power.iter().map(|p| p.budgets[t] as u64).sum())
            .collect();

        let app_cfg = cfg.app_cfg.clone().unwrap_or_else(|| {
            // Size demand to ~70% of the group's mean available power.
            let mean_power: f64 = sites
                .iter()
                .map(|s| vb_stats::mean(&s.actual.values))
                .sum::<f64>()
                / sites.len() as f64;
            let target =
                cfg.cores_per_site as f64 * sites.len() as f64 * mean_power * cfg.target_util;
            AppGenConfig::sized_for(target)
        });
        let gen = AppGen::new(app_cfg, cfg.seed);
        let ev = EventState {
            drain_enabled: false,
            expiry: vec![Vec::new(); n_steps as usize],
            threat: vec![Vec::new(); n_steps as usize],
            armed_threat: vec![NOT_ARMED; n_sites],
            drain: vec![Vec::new(); n_steps as usize],
            armed_drain: vec![NOT_ARMED; n_sites],
            drain_worklist: BinaryHeap::new(),
            in_drain_phase: false,
            drain_phase_done: false,
            drain_pos: 0,
            hibernated_per_site: vec![0; n_sites],
            min_hib_cores: vec![u32::MAX; n_sites],
            group_allocated: 0,
            hibernated_apps: 0,
            stable_cores: vec![0; n_sites],
            touched_stamp: vec![0; n_sites],
            touched: Vec::new(),
            power_scan_visits: 0,
            resume_scan_visits: 0,
        };
        let sim = GroupSim {
            cfg,
            sites,
            power,
            budget_total,
            apps: Vec::new(),
            queue: Vec::new(),
            relaunching: Vec::new(),
            snapshots: Vec::with_capacity(n_sites),
            gen,
            now: 0,
            n_steps,
            preemptive_moves: 0,
            dropped_apps: 0,
            vm_decisions: 0,
            moved_at: std::collections::BTreeMap::new(),
            resume_checked: vec![(u32::MAX, u32::MAX); n_sites],
            ev,
        };
        Ok(sim)
    }

    /// Total steps the run covers.
    pub fn n_steps(&self) -> u64 {
        self.n_steps
    }

    /// Run a policy over the whole period and summarise.
    pub fn run(self, policy: &mut dyn Policy) -> PolicySummary {
        self.run_detailed(policy).summary
    }

    /// Run a policy and keep the full per-step telemetry alongside the
    /// summary (used by the figure benches and diagnostics).
    pub fn run_detailed(mut self, policy: &mut dyn Policy) -> DetailedRun {
        self.ev.drain_enabled = policy.preemptive_drain();
        let _run_span = vb_telemetry::span!("sched.group_run");
        vb_telemetry::event(
            "sched.run_start",
            &[
                ("policy", policy.name().into()),
                ("sites", (self.sites.len() as u64).into()),
                ("steps", self.n_steps.into()),
            ],
        );
        let mut steps = Vec::with_capacity(self.n_steps as usize);
        let mut epoch_arrivals: Vec<AppSpec> = Vec::new();
        // Wall-clock tracing at epoch granularity: a per-step span on a
        // month-long fleet run is ~10⁵ trace events per shard — past the
        // trace buffer caps and a per-step cost in its own right.
        let mut epoch_span = None;
        for step in 0..self.n_steps {
            if step % self.cfg.epoch_steps as u64 == 0 {
                // Close the previous epoch's span before opening the
                // next, so sibling epochs never nest.
                drop(epoch_span.take());
                epoch_span = Some(vb_telemetry::span!("sched.sim_epoch"));
            }
            self.now = step;
            self.ev.drain_phase_done = false;
            let mut stats = GroupStepStats {
                step,
                ..GroupStepStats::default()
            };

            // 1. Expirations.
            self.expire();

            // 2. Actual power → budgets; hibernate/evict as needed.
            let evicted = self.apply_power();

            // 3. Re-place evicted apps on sibling sites (within their
            // subgraph when Fig 6 step-2 groups are configured).
            for (id, origin) in evicted {
                self.try_rehost(id, origin, policy, &mut stats);
            }

            // 4. Resume hibernated apps; relaunch queued apps. With an
            // empty queue the relaunch loop calls no policy hooks, so
            // skipping it cannot change behavior.
            for s in 0..self.sites.len() {
                self.resume_site(s);
            }
            if !self.queue.is_empty() {
                self.relaunch_queue(policy, &mut stats);
            }

            // 4b. Preemptive drain (MIP-peak): gradually move apps off
            // sites whose day-ahead forecast shows a capacity deficit,
            // before the dip forces an eviction burst.
            if self.ev.drain_enabled {
                self.drain_step(policy, &mut stats);
            }
            self.ev.drain_phase_done = true;

            // 5. Collect this step's arrivals; plan at epoch boundaries.
            self.gen.step_into(&mut epoch_arrivals);
            if step % self.cfg.epoch_steps as u64 == 0 {
                self.plan_epoch(&mut epoch_arrivals, policy);
            }

            // 6. Bookkeeping from the incremental counters. The deficit
            // is the sum of per-site shortfalls, not the group-level
            // difference: surplus at one site cannot power another.
            // Only sites whose allocation changed this step (or whose
            // power threat fired) can carry one: an untouched
            // overloaded site would have had its armed threat fire this
            // step, and threat processing always restores
            // alloc ≤ budget before later phases re-raise it (touching
            // the site).
            stats.queued_apps = self.queue.len();
            stats.budget_cores = self.budget_total[step as usize];
            stats.hibernated_apps = self.ev.hibernated_apps;
            stats.allocated_cores = self.ev.group_allocated;
            stats.power_deficit_cores = self
                .ev
                .touched
                .iter()
                .map(|&s| {
                    (self.sites[s].allocated_cores as u64)
                        .saturating_sub(self.budget_at(s, step) as u64)
                })
                .sum();
            self.ev.touched.clear();
            steps.push(stats);
        }
        drop(epoch_span);
        record_steps(
            &series_instance(
                policy.name(),
                self.sites.iter().map(|s| s.site.name.as_str()),
            ),
            &steps,
        );
        vb_telemetry::counter!("sched.power_scan_visits").add(self.ev.power_scan_visits);
        vb_telemetry::counter!("sched.resume_scan_visits").add(self.ev.resume_scan_visits);
        vb_telemetry::gauge!("sched.queued_apps").set(self.queue.len() as f64);
        let summary = PolicySummary::from_steps(
            policy.name(),
            &steps,
            self.preemptive_moves,
            self.dropped_apps,
            self.vm_decisions,
        );
        vb_telemetry::event(
            "sched.run_complete",
            &[
                ("policy", summary.policy.as_str().into()),
                ("total_gb", summary.total_gb.into()),
                ("peak_gb", summary.peak_gb.into()),
                ("preemptive_moves", (summary.preemptive_moves as u64).into()),
                ("dropped_apps", (summary.dropped_apps as u64).into()),
            ],
        );
        DetailedRun { steps, summary }
    }

    /// The powered-core budget of site `s` at `step` (precomputed).
    /// Out-of-range steps (defensive; the step loop never exceeds
    /// `n_steps`) read as zero power with a gap counter, not a panic.
    fn budget_at(&self, s: usize, step: u64) -> u32 {
        self.power[s]
            .budgets
            .get(step as usize)
            .copied()
            .unwrap_or_else(|| {
                vb_telemetry::counter!("sched.budget_gap_steps").inc();
                0
            })
    }

    /// Mark a site's allocation as changed this step (for the step's
    /// deficit bookkeeping); deduplicated via step stamps.
    fn touch(&mut self, s: usize) {
        let stamp = self.now + 1;
        if self.ev.touched_stamp[s] != stamp {
            self.ev.touched_stamp[s] = stamp;
            self.ev.touched.push(s);
        }
    }

    /// (Re-)arm site `s`'s power-threat wake-up: the earliest future
    /// step where its precomputed budget drops below the current
    /// allocation. Called on every allocation increase; decreases leave
    /// a possibly-early wake-up behind, which the firing path detects
    /// as a no-op (the lazy-invalidation half of the invariant *armed
    /// step ≤ earliest real violation*).
    fn arm_threat(&mut self, s: usize) {
        // The power phase for the current step has already run by the
        // time any allocation increase can happen, so the earliest step
        // whose power phase can see the new allocation is `now + 1`.
        let from = (self.now + 1) as usize;
        match self.power[s].next_budget_below(from, self.sites[s].allocated_cores) {
            Some(t) => {
                if self.ev.armed_threat[s] == t as u64 {
                    return; // already queued for exactly this step
                }
                self.ev.armed_threat[s] = t as u64;
                if let Some(bucket) = self.ev.threat.get_mut(t) {
                    bucket.push(s);
                } else {
                    self.ev.armed_threat[s] = NOT_ARMED;
                }
            }
            None => self.ev.armed_threat[s] = NOT_ARMED,
        }
    }

    /// (Re-)arm site `s`'s preemptive-drain wake-up: the earliest step
    /// where the day-ahead admissible floor drops below the site's
    /// stable cores. The target step must respect the phase the step
    /// loop is in: before this step's drain phase, or during it ahead
    /// of the site being drained (sites drain in ascending order), the
    /// site may still be processed *this* step; afterwards the next
    /// opportunity is the following step.
    fn arm_drain(&mut self, s: usize) {
        if !self.ev.drain_enabled {
            return;
        }
        let from = if self.ev.in_drain_phase {
            if s > self.ev.drain_pos {
                self.now // the ascending scan has not reached s yet
            } else {
                self.now + 1
            }
        } else if self.ev.drain_phase_done {
            self.now + 1
        } else {
            self.now
        } as usize;
        let stable = self.ev.stable_cores[s] as f64;
        let cores_f = self.cfg.cores_per_site as f64;
        match self.power[s].next_fd24_below(from, stable, cores_f, self.cfg.target_util) {
            Some(t) => {
                if self.ev.armed_drain[s] == t as u64 {
                    return;
                }
                self.ev.armed_drain[s] = t as u64;
                if t as u64 == self.now && self.ev.in_drain_phase {
                    self.ev.drain_worklist.push(Reverse(s));
                } else if let Some(bucket) = self.ev.drain.get_mut(t) {
                    bucket.push(s);
                } else {
                    self.ev.armed_drain[s] = NOT_ARMED;
                }
            }
            None => self.ev.armed_drain[s] = NOT_ARMED,
        }
    }

    /// Phase 1: detach the apps whose departure bucket is due, and drop
    /// queued ones. Every app departing inside the run sits in the
    /// bucket of its departure step, so this detaches exactly the
    /// residents with `departs_at == now`, and the queue is swept only
    /// when one of its apps is due.
    fn expire(&mut self) {
        let now = self.now as usize;
        let due = match self.ev.expiry.get_mut(now) {
            Some(bucket) => std::mem::take(bucket),
            None => return,
        };
        if due.is_empty() {
            return;
        }
        let mut queue_drops = false;
        for &id in &due {
            debug_assert!(self.apps[id.0].departs_at <= self.now);
            if self.apps[id.0].site.is_some() {
                self.detach(id);
            } else if self.apps[id.0].in_queue {
                queue_drops = true;
            }
        }
        if queue_drops {
            self.drop_expired_queued();
        }
    }

    /// Queued apps whose lifetime lapsed never came back: drop them.
    fn drop_expired_queued(&mut self) {
        let now = self.now;
        let before = self.queue.len();
        let apps = &mut self.apps;
        self.queue.retain(|id| {
            let keep = apps[id.0].departs_at > now;
            if !keep {
                apps[id.0].in_queue = false;
            }
            keep
        });
        self.dropped_apps += before - self.queue.len();
    }

    /// Phase 2: only sites whose armed power threat fires now. Every
    /// allocation increase and every firing re-arms its site at the
    /// first later step whose budget falls below the allocation (a
    /// decrease only leaves that step early), so no other site can be
    /// over budget here. Entries whose armed step moved on (the site
    /// re-armed after an allocation change) are stale and skipped.
    fn apply_power(&mut self) -> Vec<(AppId, usize)> {
        let mut evicted = Vec::new();
        let now = self.now as usize;
        let entries = match self.ev.threat.get_mut(now) {
            Some(bucket) => std::mem::take(bucket),
            None => return evicted,
        };
        if entries.is_empty() {
            return evicted;
        }
        let mut woken: Vec<usize> = Vec::with_capacity(entries.len());
        let mut stale = 0u64;
        for s in entries {
            if self.ev.armed_threat[s] == self.now {
                woken.push(s);
            } else {
                stale += 1;
            }
        }
        if stale > 0 {
            vb_telemetry::counter!("sched.stale_events").add(stale);
        }
        woken.sort_unstable();
        woken.dedup();
        vb_telemetry::counter!("sched.event_wakeups").add(woken.len() as u64);
        for s in woken {
            self.ev.armed_threat[s] = NOT_ARMED;
            // A threat may have gone moot (allocation shrank without
            // re-arming); `apply_power_site` is then a no-op, but the
            // site still counts as touched for deficit bookkeeping.
            self.touch(s);
            self.apply_power_site(s, &mut evicted);
            self.arm_threat(s);
        }
        evicted
    }

    /// Hibernate degradable then evict stable apps at one overloaded
    /// site (oldest resident first).
    fn apply_power_site(&mut self, s: usize, evicted: &mut Vec<(AppId, usize)>) {
        let budget = self.budget_at(s, self.now);

        // Hibernate degradable apps first (oldest resident first).
        // `hibernate` leaves the resident list untouched, so the scan
        // walks it in place and stops at the first index that brings
        // the site back under budget — a gradual dusk decline then
        // costs O(apps hibernated), not O(residents) per step. It
        // starts at the site's `hib_cursor` rather than at 0: the
        // entries below it are tombstones, stable apps and hibernated
        // apps, which the scan would skip one by one on every wake-up.
        // Every running degradable app it passes is hibernated, so the
        // index it stops at is the new cursor.
        let from = self.sites[s].hib_cursor;
        let mut i = from;
        while self.sites[s].allocated_cores > budget && i < self.sites[s].apps.len() {
            let id = self.sites[s].apps[i];
            i += 1;
            if id == TOMBSTONE {
                continue;
            }
            let a = &self.apps[id.0];
            if !a.hibernated && a.spec.kind == VmKind::Degradable {
                self.hibernate(id, s);
            }
        }
        self.sites[s].hib_cursor = i;
        self.ev.power_scan_visits += (i - from) as u64;
        debug_assert!(
            self.hib_cursor_holds(s),
            "site {s}: a running degradable app sits below the hibernation cursor"
        );

        // Evict stable apps (oldest resident first), walking the list
        // in place and stopping once the site is back under budget.
        // Compaction would shift the indices under the walk, so it
        // waits until the walk ends.
        if self.sites[s].allocated_cores > budget {
            let mut i = 0;
            while self.sites[s].allocated_cores > budget && i < self.sites[s].apps.len() {
                let id = self.sites[s].apps[i];
                i += 1;
                if id == TOMBSTONE {
                    continue;
                }
                let a = &self.apps[id.0];
                if !a.hibernated && a.spec.kind == VmKind::Stable {
                    self.unlink(id);
                    evicted.push((id, s));
                }
            }
            self.ev.power_scan_visits += i as u64;
            self.compact(s);
        }
    }

    /// Try to host an evicted app on a sibling site chosen by the
    /// policy (restricted to the app's subgraph); queue it otherwise. A
    /// successful re-host is WAN traffic.
    fn try_rehost(
        &mut self,
        id: AppId,
        origin: usize,
        policy: &mut dyn Policy,
        stats: &mut GroupStepStats,
    ) {
        let cores = self.apps[id.0].spec.cores();
        match self.choose_target(origin, cores, policy) {
            Some(s) => {
                self.attach(id, s);
                stats.transfer_gb += self.apps[id.0].spec.mem_gb();
                stats.rehost_gb += self.apps[id.0].spec.mem_gb();
                stats.transfers += 1;
            }
            None => {
                stats.stranded_gb += self.apps[id.0].spec.mem_gb();
                self.queue_push(id);
            }
        }
    }

    /// Ask the policy for a re-host/relaunch target for an app of
    /// `cores` whose last site was `from`. Without subgraphs every site
    /// is allowed, so the policy sees every site's snapshot and local
    /// indices are global.
    fn choose_target(&mut self, from: usize, cores: u32, policy: &mut dyn Policy) -> Option<usize> {
        if self.cfg.subgraphs.is_none() {
            self.fill_snapshots(0..self.sites.len());
            return policy.choose_rehost(&self.snapshots, cores);
        }
        let allowed = self.movable_targets(from);
        self.fill_snapshots(allowed.iter().copied());
        policy
            .choose_rehost(&self.snapshots, cores)
            .map(|local| allowed[local])
    }

    /// Resume hibernated apps at one site where its budget allows,
    /// oldest resident first. Called for every site every step: the
    /// guards below skip the scan unless an app may resume, and the scan
    /// stops once no further app can.
    fn resume_site(&mut self, s: usize) {
        // Nothing hibernated here: the scan would visit every resident
        // for nothing.
        if self.ev.hibernated_per_site[s] == 0 {
            return;
        }
        let budget = self.budget_at(s, self.now);
        let alloc = self.sites[s].allocated_cores;
        // A resume attempt is a pure function of (resident order,
        // hibernated flags, allocation, budget). Since the last attempt
        // left `(allocation, budget)` at the memoized pair, every state
        // change that could newly enable a resume moved the allocation
        // (hibernate/resume/attach/detach of an active app) or the
        // budget; a hibernated app departing changes neither and only
        // removes a candidate. Unchanged pair ⇒ the attempt would
        // resume nothing — skip the resident scan (a solar site parked
        // at zero budget overnight costs O(1) per step, not O(apps)).
        if self.resume_checked[s] == (alloc, budget) {
            return;
        }
        // Even the smallest hibernated app cannot fit under the current
        // headroom (the bound only ever runs stale *low*, so a pass
        // here can still mean no candidate fits — never the reverse).
        if alloc.saturating_add(self.ev.min_hib_cores[s]) > budget {
            return;
        }
        // Start at the site's resume cursor: the list head below it
        // holds only running apps and tombstones. Stop once every
        // hibernated resident has been visited: the tail past the last
        // one holds only those too. Stop as well once even the smallest
        // hibernated app no longer fits: `min_hib_cores` bounds every
        // hibernated resident's cores from below and the allocation
        // only rises during the scan, so no later resident could
        // resume. Only a resume moves the allocation, so the test runs
        // after each one. The cursor is left at the first hibernated
        // resident the scan passed over, or where it stopped.
        debug_assert!(
            self.resume_cursor_holds(s),
            "site {s}: a hibernated app sits below the resume cursor"
        );
        let from = self.sites[s].resume_cursor;
        let mut first_left = None;
        let mut remaining = self.ev.hibernated_per_site[s];
        let mut resumed_any = false;
        let mut i = from;
        while remaining > 0 && i < self.sites[s].apps.len() {
            let id = self.sites[s].apps[i];
            i += 1;
            if id == TOMBSTONE || !self.apps[id.0].hibernated {
                continue;
            }
            remaining -= 1;
            let cores = self.apps[id.0].spec.cores();
            if self.sites[s].allocated_cores + cores > budget {
                first_left.get_or_insert(i - 1);
            } else {
                self.resume(id, s);
                resumed_any = true;
                let alloc = self.sites[s].allocated_cores;
                if alloc.saturating_add(self.ev.min_hib_cores[s]) > budget {
                    debug_assert!(
                        self.sites[s].apps[i..].iter().all(|&id| id == TOMBSTONE
                            || !self.apps[id.0].hibernated
                            || alloc + self.apps[id.0].spec.cores() > budget),
                        "site {s}: the resume scan stopped before a hibernated app that fits"
                    );
                    break;
                }
            }
        }
        self.sites[s].resume_cursor = first_left.unwrap_or(i);
        self.ev.resume_scan_visits += (i - from) as u64;
        debug_assert!(
            self.resume_cursor_holds(s),
            "site {s}: the resume scan left its cursor above a hibernated app"
        );
        // One threat re-arm for the whole batch: each resume raises the
        // allocation, and a higher allocation's trigger step is never
        // later than a lower one's, so the final arm dominates every
        // intermediate arm the per-resume path would have pushed.
        if resumed_any {
            self.arm_threat(s);
        }
        self.resume_checked[s] = (self.sites[s].allocated_cores, budget);
    }

    /// Relaunch queued apps anywhere with room (relaunch = WAN
    /// traffic); failures re-queue in order.
    fn relaunch_queue(&mut self, policy: &mut dyn Policy, stats: &mut GroupStepStats) {
        let mut queued = std::mem::take(&mut self.relaunching);
        std::mem::swap(&mut queued, &mut self.queue);
        for &id in &queued {
            let cores = self.apps[id.0].spec.cores();
            let from = self.apps[id.0].last_site;
            match self.choose_target(from, cores, policy) {
                Some(s) => {
                    self.attach(id, s);
                    stats.transfer_gb += self.apps[id.0].spec.mem_gb();
                    stats.relaunch_gb += self.apps[id.0].spec.mem_gb();
                    stats.transfers += 1;
                }
                None => self.queue_push(id),
            }
        }
        queued.clear();
        self.relaunching = queued;
    }

    /// Site indices an app currently at `site` may move to: its
    /// subgraph's members when subgraphs are configured, every site
    /// otherwise.
    fn movable_targets(&self, site: usize) -> Vec<usize> {
        match &self.cfg.subgraphs {
            Some(groups) => groups
                .iter()
                .find(|g| g.contains(&site))
                .cloned()
                .unwrap_or_else(|| vec![site]),
            None => (0..self.sites.len()).collect(),
        }
    }

    /// Site `s`'s state snapshot for runtime re-hosting decisions. The
    /// day-ahead minimum comes from the precomputed sliding-window
    /// minima, clipped at the run's end like every day-ahead readout
    /// (see [`SitePower`]).
    fn snapshot(&self, s: usize) -> SiteSnapshot {
        let budget = self.budget_at(s, self.now);
        // Truncating cast: `floor` then `as u32` for every f64.
        let cap = (self.cfg.target_util * budget as f64) as u32;
        let raw = self.power[s]
            .fd_min24
            .get(self.now as usize)
            .copied()
            .unwrap_or(f64::INFINITY);
        // `+∞` marks an empty window (past the forecast end,
        // unreachable while `now < n_steps`); it reads as no
        // admissible capacity.
        let min_frac = if raw.is_finite() { raw } else { 0.0 };
        SiteSnapshot {
            budget_cores: budget,
            allocated_cores: self.sites[s].allocated_cores,
            total_cores: self.cfg.cores_per_site,
            admission_cap: cap,
            forecast_min_24h_cores: min_frac
                * self.cfg.cores_per_site as f64
                * self.cfg.target_util,
        }
    }

    /// Refill `self.snapshots` with the snapshots of `sites`, in order,
    /// reusing its capacity: re-host decisions run tens of thousands of
    /// times per fleet shard.
    fn fill_snapshots(&mut self, sites: impl Iterator<Item = usize>) {
        let mut buffer = std::mem::take(&mut self.snapshots);
        buffer.clear();
        buffer.extend(sites.map(|s| self.snapshot(s)));
        self.snapshots = buffer;
    }

    /// Run the policy for an epoch batch and execute its assignments.
    /// Drains `batch`, leaving its capacity for the next epoch's
    /// arrivals.
    fn plan_epoch(&mut self, batch: &mut Vec<AppSpec>, policy: &mut dyn Policy) {
        // Register the new apps.
        let new_apps: Vec<NewApp> = batch
            .drain(..)
            .map(|spec| {
                let id = AppId(self.apps.len());
                let departs_at = self.now + spec.lifetime_steps as u64;
                self.apps.push(AppState {
                    spec,
                    site: None,
                    last_site: 0,
                    hibernated: false,
                    in_queue: false,
                    departs_at,
                    slot: 0,
                });
                // Lifetimes are ≥ 1 step, so the bucket is always ahead
                // of the current step; an app departing past the
                // horizon stays until the run ends and needs no bucket.
                if departs_at < self.n_steps {
                    self.ev.expiry[departs_at as usize].push(id);
                }
                NewApp { id, spec }
            })
            .collect();

        let ctx = self.build_context(&new_apps);
        let plan = policy.plan(&ctx);

        let mut placed_at: Vec<usize> = Vec::new();
        for assignment in plan {
            // Initial placement: deployment, not migration traffic.
            let s = assignment.site.min(self.sites.len() - 1);
            self.place(assignment.app, s);
            if !placed_at.contains(&s) {
                placed_at.push(s);
            }
        }
        // One threat re-arm per site for the whole batch, as in
        // `resume_site`: each placement raises the site's allocation, a
        // higher allocation's trigger step is never later, and nothing
        // reads the armed step between placements, so the final arm
        // dominates every per-placement arm (which would only leave
        // stale queue entries behind).
        for s in placed_at {
            self.arm_threat(s);
        }
        // Any new app the policy failed to assign goes to the queue.
        for a in &new_apps {
            if self.apps[a.id.0].site.is_none() {
                self.queue_push(a.id);
            }
        }
    }

    /// Phase 4b: only sites whose armed drain deadline fires now,
    /// processed in ascending site order via a worklist, until
    /// [`MOVES_PER_STEP`] drain moves have run. A drain move landing on
    /// a *later* site can tip it into deficit mid-phase; `arm_drain`'s
    /// phase-aware `from` pushes such a site into the live worklist,
    /// so it still drains this step. A site passed over at the cap
    /// re-arms for the next step its deficit holds.
    fn drain_step(&mut self, policy: &mut dyn Policy, stats: &mut GroupStepStats) {
        self.ev.in_drain_phase = true;
        self.ev.drain_pos = 0;
        let now = self.now as usize;
        if let Some(bucket) = self.ev.drain.get_mut(now) {
            let entries = std::mem::take(bucket);
            let mut stale = 0u64;
            for s in entries {
                if self.ev.armed_drain[s] == self.now {
                    self.ev.drain_worklist.push(Reverse(s));
                } else {
                    stale += 1;
                }
            }
            if stale > 0 {
                vb_telemetry::counter!("sched.stale_events").add(stale);
            }
        }
        let mut moved = 0usize;
        while let Some(Reverse(s)) = self.ev.drain_worklist.pop() {
            if self.ev.armed_drain[s] != self.now {
                continue; // duplicate/stale worklist entry
            }
            self.ev.armed_drain[s] = NOT_ARMED;
            self.ev.drain_pos = s;
            if moved < MOVES_PER_STEP {
                // `drain_site` re-derives the deficit from live state,
                // so a wake-up gone moot is a no-op.
                self.drain_site(s, policy, stats, &mut moved);
            }
            self.arm_drain(s);
        }
        self.ev.in_drain_phase = false;
        vb_telemetry::counter!("sched.drain_moves").add(moved as u64);
    }

    /// One site's preemptive draining: when committed stable cores
    /// exceed the worst admissible capacity of the next 24 h, move the
    /// *smallest* stable apps to policy-chosen homes — rate-limited to
    /// [`MOVES_PER_STEP`], so a predicted dip drains as a stream of small
    /// transfers instead of one burst ("performing more number of
    /// migrations … but each at a lower volume", §3.1).
    fn drain_site(
        &mut self,
        s: usize,
        policy: &mut dyn Policy,
        stats: &mut GroupStepStats,
        moved: &mut usize,
    ) {
        debug_assert_eq!(
            self.ev.stable_cores[s],
            self.running_cores(s, VmKind::Stable)
        );
        let stable_cores = self.ev.stable_cores[s] as f64;
        let mut deficit = stable_cores - self.snapshot(s).forecast_min_24h_cores;
        if deficit <= 0.0 {
            return;
        }
        // Smallest stable apps first, skipping recently moved ones.
        let mut victims: Vec<AppId> = self.sites[s]
            .apps
            .iter()
            .copied()
            .filter(|&id| {
                if id == TOMBSTONE {
                    return false;
                }
                let a = &self.apps[id.0];
                a.spec.kind == VmKind::Stable
                    && !a.hibernated
                    && a.departs_at > self.now + 24
                    && self
                        .moved_at
                        .get(&id)
                        .is_none_or(|&t| self.now >= t + STEPS_PER_DAY as u64)
            })
            .collect();
        victims.sort_by(|a, b| {
            self.apps[a.0]
                .spec
                .mem_gb()
                .total_cmp(&self.apps[b.0].spec.mem_gb())
        });
        let allowed = self.movable_targets(s);
        for id in victims {
            if deficit <= 0.0 || *moved >= MOVES_PER_STEP {
                break;
            }
            let cores = self.apps[id.0].spec.cores();
            self.fill_snapshots(allowed.iter().copied());
            let Some(target) = policy
                .choose_rehost(&self.snapshots, cores)
                .map(|local| allowed[local])
            else {
                break;
            };
            // Only drain toward genuinely safer ground.
            let score = |t: usize| {
                let snapshot = self.snapshot(t);
                snapshot.forecast_min_24h_cores - snapshot.allocated_cores as f64
            };
            if target == s || score(target) <= score(s) {
                break;
            }
            self.detach(id);
            self.attach(id, target);
            stats.transfer_gb += self.apps[id.0].spec.mem_gb();
            stats.move_gb += self.apps[id.0].spec.mem_gb();
            stats.transfers += 1;
            self.preemptive_moves += 1;
            self.moved_at.insert(id, self.now);
            deficit -= cores as f64;
            *moved += 1;
        }
    }

    fn build_context(&self, new_apps: &[NewApp]) -> PlanContext {
        let bucket = self.cfg.bucket_steps as usize;
        let remaining = (self.n_steps - self.now) as usize;
        // Cap the look-ahead at a week of buckets; `.max(1)` keeps the
        // clamp range valid when one bucket already covers more than a
        // week (`bucket_steps > WEEK_AHEAD_STEPS` used to panic here:
        // `clamp` requires min ≤ max).
        let week_buckets = (WEEK_AHEAD_STEPS / bucket).max(1);
        let buckets = remaining.div_ceil(bucket).clamp(1, week_buckets);

        let sites = self
            .sites
            .iter()
            .enumerate()
            .map(|(si, st)| {
                // Degradable running cores absorb dips without traffic:
                // credit them to forecast capacity rather than charging
                // them as displaceable load. Stable apps never
                // hibernate, so they are the allocation less the
                // running stable cores.
                let degradable = st.allocated_cores as u64 - self.ev.stable_cores[si];
                debug_assert_eq!(degradable, self.running_cores(si, VmKind::Degradable));
                let degradable = degradable as f64;

                let mut capacity = Vec::with_capacity(buckets);
                let mut committed = Vec::with_capacity(buckets);
                for b in 0..buckets {
                    let lo = self.now as usize + b * bucket;
                    let hi = (lo + bucket).min(st.actual.len());
                    // Composite forecast: the freshest product per lead
                    // time (3h-ahead, then day-ahead, then week-ahead).
                    let series = if b * bucket < 12 {
                        &st.f3
                    } else if b * bucket < DAY_AHEAD_STEPS {
                        &st.fd
                    } else {
                        &st.fw
                    };
                    let mean_frac = if lo < hi {
                        vb_stats::mean(&series.values[lo..hi])
                    } else {
                        0.0
                    };
                    // Plan against the *admissible* share of forecast
                    // power (the runtime admits up to target_util of the
                    // powered cores). Planning to 100 % of the forecast
                    // would leave no margin for forecast error — any
                    // small dip would force evictions.
                    capacity.push(
                        mean_frac * self.cfg.cores_per_site as f64 * self.cfg.target_util
                            + degradable,
                    );
                }

                // Committed stable cores at each bucket start. One
                // departure-sorted sweep instead of a per-bucket
                // rescan: core counts are integers, so the f64 running
                // sum is exact and bit-identical to summing each
                // bucket's survivors in residence order.
                let mut departures: Vec<(u64, u32)> = st
                    .apps
                    .iter()
                    .filter(|&&id| {
                        if id == TOMBSTONE {
                            return false;
                        }
                        let a = &self.apps[id.0];
                        a.spec.kind == VmKind::Stable && !a.hibernated
                    })
                    .map(|id| (self.apps[id.0].departs_at, self.apps[id.0].spec.cores()))
                    .collect();
                departures.sort_unstable_by_key(|&(d, _)| d);
                let mut alive: f64 = departures.iter().map(|&(_, c)| c as u64).sum::<u64>() as f64;
                let mut next_departure = 0usize;
                for b in 0..buckets {
                    let t = (self.now as usize + b * bucket) as u64;
                    while next_departure < departures.len() && departures[next_departure].0 <= t {
                        alive -= departures[next_departure].1 as f64;
                        next_departure += 1;
                    }
                    committed.push(alive);
                }
                SitePlanInfo {
                    name: st.site.name.clone(),
                    total_cores: self.cfg.cores_per_site,
                    current_budget_cores: self.budget_at(si, self.now),
                    allocated_cores: st.allocated_cores,
                    capacity_forecast_cores: capacity,
                    committed_cores: committed,
                }
            })
            .collect();
        PlanContext {
            now: self.now,
            bucket_steps: self.cfg.bucket_steps,
            sites,
            new_apps: new_apps.to_vec(),
            // Preemptive migration is the drain phase's; no running
            // app is offered to the planner.
            movable: Vec::new(),
        }
    }

    /// Push an app onto the relaunch queue (tracking membership, so
    /// `expire` knows when a due app sits in the queue).
    fn queue_push(&mut self, id: AppId) {
        self.apps[id.0].in_queue = true;
        self.queue.push(id);
    }

    /// Attach an app to site `s` and re-arm the site's power threat.
    fn attach(&mut self, id: AppId, s: usize) {
        self.place(id, s);
        self.arm_threat(s);
    }

    /// [`GroupSim::attach`] without the threat re-arm, for a batch that
    /// arms each site once after its last placement.
    fn place(&mut self, id: AppId, s: usize) {
        debug_assert!(self.apps[id.0].site.is_none());
        let cores = self.apps[id.0].spec.cores();
        self.apps[id.0].site = Some(s);
        self.apps[id.0].last_site = s;
        self.apps[id.0].hibernated = false;
        self.apps[id.0].in_queue = false;
        self.apps[id.0].slot = self.sites[s].apps.len();
        self.sites[s].apps.push(id);
        self.sites[s].allocated_cores += cores;
        self.ev.group_allocated += cores as u64;
        self.vm_decisions += self.apps[id.0].spec.n_vms as u64;
        if self.apps[id.0].spec.kind == VmKind::Stable {
            self.ev.stable_cores[s] += cores as u64;
            self.arm_drain(s);
        }
        self.touch(s);
    }

    /// Detach an app from its site, then compact the site's resident
    /// list if tombstones outnumber live entries.
    fn detach(&mut self, id: AppId) {
        if let Some(s) = self.unlink(id) {
            self.compact(s);
        }
    }

    /// [`GroupSim::detach`] without the compaction, for a walk over the
    /// resident list that compacts once it ends; returns the app's site.
    /// O(1): the app's slot becomes a tombstone.
    fn unlink(&mut self, id: AppId) -> Option<usize> {
        let s = self.apps[id.0].site.take()?;
        let slot = self.apps[id.0].slot;
        debug_assert_eq!(self.sites[s].apps[slot], id);
        self.sites[s].apps[slot] = TOMBSTONE;
        self.sites[s].dead += 1;
        let cores = self.apps[id.0].spec.cores();
        if !self.apps[id.0].hibernated {
            self.sites[s].allocated_cores -= cores;
            self.ev.group_allocated -= cores as u64;
            if self.apps[id.0].spec.kind == VmKind::Stable {
                self.ev.stable_cores[s] -= cores as u64;
                self.arm_drain(s);
            }
            self.touch(s);
        } else {
            // Hibernated apps are always degradable (stable apps
            // are evicted, never hibernated), so stable_cores and
            // the allocation are untouched here.
            self.apps[id.0].hibernated = false;
            self.ev.hibernated_apps -= 1;
            self.ev.hibernated_per_site[s] -= 1;
            if self.ev.hibernated_per_site[s] == 0 {
                self.ev.min_hib_cores[s] = u32::MAX;
            }
        }
        Some(s)
    }

    /// Squeeze site `s`'s tombstones out of its resident list in place
    /// (preserving relative order) once they outnumber live entries, so
    /// the amortized cost per departure stays constant and scans over
    /// the list never see more than ~half waste. Slots move, so both
    /// scan cursors reset.
    fn compact(&mut self, s: usize) {
        let site = &mut self.sites[s];
        if site.dead * 2 <= site.apps.len() {
            return;
        }
        site.apps.retain(|&a| a != TOMBSTONE);
        // Give back the capacity the list held for its peak residents:
        // keeping it raised `study_heap_mb`.
        site.apps.shrink_to_fit();
        for (slot, a) in site.apps.iter().enumerate() {
            self.apps[a.0].slot = slot;
        }
        site.dead = 0;
        site.hib_cursor = 0;
        site.resume_cursor = 0;
    }

    /// Cores of site `s`'s running residents of `kind`: the sum the
    /// counters `stable_cores` and `allocated_cores` stand in for,
    /// scanned for the debug checks.
    fn running_cores(&self, s: usize, kind: VmKind) -> u64 {
        let running = self.sites[s].apps.iter().filter(|&&id| {
            id != TOMBSTONE && {
                let a = &self.apps[id.0];
                a.spec.kind == kind && !a.hibernated
            }
        });
        running.map(|id| self.apps[id.0].spec.cores() as u64).sum()
    }

    /// Hibernate a degradable app in place (no WAN traffic).
    fn hibernate(&mut self, id: AppId, s: usize) {
        debug_assert!(!self.apps[id.0].hibernated);
        let cores = self.apps[id.0].spec.cores();
        self.apps[id.0].hibernated = true;
        let site = &mut self.sites[s];
        site.resume_cursor = site.resume_cursor.min(self.apps[id.0].slot);
        site.allocated_cores -= cores;
        self.ev.group_allocated -= cores as u64;
        self.ev.hibernated_apps += 1;
        self.ev.hibernated_per_site[s] += 1;
        self.ev.min_hib_cores[s] = self.ev.min_hib_cores[s].min(cores);
        self.touch(s);
    }

    /// The hibernation cursor's invariant at site `s`: every resident
    /// below `hib_cursor` is a tombstone, a stable app or hibernated.
    fn hib_cursor_holds(&self, s: usize) -> bool {
        let site = &self.sites[s];
        site.hib_cursor <= site.apps.len()
            && site.apps[..site.hib_cursor].iter().all(|&id| {
                id == TOMBSTONE || {
                    let a = &self.apps[id.0];
                    a.hibernated || a.spec.kind == VmKind::Stable
                }
            })
    }

    /// The resume cursor's invariant at site `s`: no resident below
    /// `resume_cursor` is hibernated.
    fn resume_cursor_holds(&self, s: usize) -> bool {
        let site = &self.sites[s];
        site.resume_cursor <= site.apps.len()
            && site.apps[..site.resume_cursor]
                .iter()
                .all(|&id| id == TOMBSTONE || !self.apps[id.0].hibernated)
    }

    /// Resume a hibernated app (free of charge — no WAN traffic).
    /// Threat re-arming is the caller's job ([`GroupSim::resume_site`]
    /// arms once per batch, which dominates per-resume arming).
    fn resume(&mut self, id: AppId, s: usize) {
        debug_assert!(self.apps[id.0].hibernated);
        let cores = self.apps[id.0].spec.cores();
        self.apps[id.0].hibernated = false;
        let site = &mut self.sites[s];
        site.hib_cursor = site.hib_cursor.min(self.apps[id.0].slot);
        site.allocated_cores += cores;
        self.ev.group_allocated += cores as u64;
        self.ev.hibernated_apps -= 1;
        self.ev.hibernated_per_site[s] -= 1;
        if self.ev.hibernated_per_site[s] == 0 {
            self.ev.min_hib_cores[s] = u32::MAX;
        }
        self.touch(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyPolicy;
    use crate::mip::{MipConfig, MipPolicy};
    use vb_trace::{forecast_for, TRIO};

    fn tiny_cfg() -> GroupSimConfig {
        GroupSimConfig {
            cores_per_site: 400,
            days: 2,
            epoch_steps: 12,
            bucket_steps: 12,
            seed: 7,
            ..GroupSimConfig::default()
        }
    }

    fn catalog() -> Catalog {
        Catalog::europe(42)
    }

    /// The day-ahead readout window at step `now` over a series of
    /// length `len`: `[now, now + DAY_AHEAD_STEPS)` clipped to the
    /// series end, the window `SitePower::fd_min24` precomputes minima
    /// over. The brute-force reference for the sliding-window minima.
    fn day_ahead_window(now: usize, len: usize) -> (usize, usize) {
        (now.min(len), (now + DAY_AHEAD_STEPS).min(len))
    }

    #[test]
    fn greedy_run_completes_and_accounts() {
        let sim = GroupSim::new(&catalog(), &TRIO, tiny_cfg())
            .expect("Table 1 trio exists in the catalog");
        let n = sim.n_steps() as usize;
        let summary = sim.run(&mut GreedyPolicy::new());
        assert_eq!(summary.per_step_gb.len(), n);
        assert_eq!(summary.policy, "Greedy");
        assert!(summary.total_gb >= 0.0);
        assert!(summary.peak_gb <= summary.total_gb + 1e-9);
        assert!((0.0..=1.0).contains(&summary.zero_fraction));
        assert!(summary.vm_decisions > 0, "placements must be counted");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = GroupSim::new(&catalog(), &["UK-wind", "PT-wind"], tiny_cfg())
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        let b = GroupSim::new(&catalog(), &["UK-wind", "PT-wind"], tiny_cfg())
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        assert_eq!(a.per_step_gb, b.per_step_gb);
        assert_eq!(a.total_gb, b.total_gb);
        assert_eq!(a.vm_decisions, b.vm_decisions);
    }

    #[test]
    fn mip_run_completes_without_fallbacks() {
        let sim =
            GroupSim::new(&catalog(), &["UK-wind", "PT-wind"], tiny_cfg()).expect("sites exist");
        let mut policy = MipPolicy::new(MipConfig::mip_24h());
        let summary = sim.run(&mut policy);
        assert_eq!(summary.policy, "MIP-24h");
        assert_eq!(
            policy.stats().fallback_epochs,
            0,
            "exact solves should succeed"
        );
    }

    #[test]
    fn multi_site_beats_single_site_on_availability() {
        // The §2.3 claim: aggregating complementary sites reduces
        // unavailability for stable applications.
        let single = GroupSim::new(&catalog(), &["NO-solar"], tiny_cfg())
            .expect("site exists")
            .run(&mut GreedyPolicy::new());
        let multi = GroupSim::new(&catalog(), &TRIO, tiny_cfg())
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        assert!(
            multi.unavailable_app_steps < single.unavailable_app_steps,
            "multi {} vs single {}",
            multi.unavailable_app_steps,
            single.unavailable_app_steps
        );
    }

    #[test]
    fn per_step_volumes_are_nonnegative_and_finite() {
        let summary = GroupSim::new(&catalog(), &["UK-wind", "PT-wind"], tiny_cfg())
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        assert!(summary
            .per_step_gb
            .iter()
            .all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn bad_site_names_are_diagnosed_not_panicked() {
        let err = GroupSim::new(&catalog(), &["Atlantis-wave"], tiny_cfg())
            .err()
            .expect("unknown site must be rejected");
        assert_eq!(err, SimError::UnknownSite("Atlantis-wave".into()));
        assert!(err.to_string().contains("Atlantis-wave"));
        let err = GroupSim::new(&catalog(), &[], tiny_cfg())
            .err()
            .expect("empty group must be rejected");
        assert_eq!(err, SimError::NoSites);
    }

    /// A two-site catalog whose first site carries two days of measured
    /// output from `start_day`.
    fn measured_catalog(start_day: u32) -> Catalog {
        let values = (0..2 * STEPS_PER_DAY as usize)
            .map(|k| 0.2 + 0.6 * ((k % 7) as f64 / 7.0))
            .collect();
        let mut c = Catalog::new(42);
        c.push_measured(
            Site::wind("meter", 52.0, 0.0),
            TimeSeries::with_start(start_day as u64 * 86_400, vb_trace::INTERVAL_15M, values),
        );
        c.push(Site::solar("synthetic", 50.8, 4.4));
        c
    }

    #[test]
    fn measured_catalogs_drive_the_simulation() {
        let cfg = tiny_cfg();
        let c = measured_catalog(cfg.start_day);
        let sim = GroupSim::new(&c, &["meter", "synthetic"], cfg.clone()).expect("covered");
        let traces: Vec<(&Site, &TimeSeries)> =
            sim.sites.iter().map(|s| (&s.site, &s.actual)).collect();
        assert_eq!(traces[0].0.name, "meter");
        assert_eq!(traces[0].1, &c.trace("meter", cfg.start_day, cfg.days));
        assert_eq!(traces[1].1, &c.trace("synthetic", cfg.start_day, cfg.days));
        assert_eq!(
            traces[0].1.values[1].to_bits(),
            (0.2 + 0.6 / 7.0_f64).to_bits()
        );
        // The day-ahead budget the runtime plans against forecasts the
        // measured series, not the synthetic generator.
        let fd = forecast_for(traces[0].1, traces[0].0, Horizon::DayAhead, c.field());
        assert_eq!(sim.sites[0].fd, fd);
    }

    #[test]
    fn uncovered_measured_windows_are_diagnosed_not_panicked() {
        let cfg = tiny_cfg();
        let c = measured_catalog(cfg.start_day + 1);
        let err = GroupSim::new(&c, &["synthetic", "meter"], cfg)
            .err()
            .expect("a window the data does not cover must be rejected");
        assert_eq!(
            err,
            SimError::Coverage(CoverageError::StartsAfter {
                site: "meter".into()
            })
        );
        assert!(err
            .to_string()
            .contains("starts after the requested window"));
    }

    /// Regression for the `clamp(1, …)` panic: with `bucket_steps`
    /// wider than a week, `WEEK_AHEAD_STEPS / bucket` is 0 and the old
    /// clamp hit `min > max`. The run must complete with exactly one
    /// planning bucket instead.
    #[test]
    fn oversized_bucket_steps_do_not_panic() {
        for bucket_steps in [700, 1344, 10_000] {
            let cfg = GroupSimConfig {
                bucket_steps,
                days: 1,
                ..tiny_cfg()
            };
            let summary = GroupSim::new(&catalog(), &["UK-wind", "PT-wind"], cfg)
                .expect("sites exist")
                .run(&mut GreedyPolicy::new());
            assert_eq!(
                summary.per_step_gb.len(),
                STEPS_PER_DAY as usize,
                "bucket_steps {bucket_steps} must still complete the run"
            );
        }
    }

    /// The day-ahead window clips at the series end: full-width in the
    /// interior, shortening over the last day, empty past the end.
    #[test]
    fn day_ahead_window_clips_at_the_tail() {
        let len = 2 * DAY_AHEAD_STEPS;
        assert_eq!(day_ahead_window(0, len), (0, DAY_AHEAD_STEPS));
        assert_eq!(
            day_ahead_window(DAY_AHEAD_STEPS, len),
            (DAY_AHEAD_STEPS, len)
        );
        // Tail: the window shortens step by step…
        assert_eq!(day_ahead_window(len - 10, len), (len - 10, len));
        // …and is empty at/past the end (lo == hi).
        assert_eq!(day_ahead_window(len, len), (len, len));
        assert_eq!(day_ahead_window(len + 5, len), (len, len));
    }

    /// The precomputed sliding-window minima must equal a brute-force
    /// fold over [`day_ahead_window`] at *every* step — in particular
    /// over the shortened tail windows of the final day.
    #[test]
    fn fd_minima_match_brute_force_including_tail() {
        let sim =
            GroupSim::new(&catalog(), &["UK-wind", "PT-wind"], tiny_cfg()).expect("sites exist");
        for (s, st) in sim.sites.iter().enumerate() {
            let n = sim.n_steps as usize;
            assert_eq!(sim.power[s].fd_min24.len(), n);
            for t in 0..n {
                let (lo, hi) = day_ahead_window(t, st.fd.len());
                let brute = st.fd.values[lo..hi]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(
                    sim.power[s].fd_min24[t].to_bits(),
                    brute.to_bits(),
                    "site {s} step {t}: precomputed min diverged from the fold"
                );
                // The last day's windows genuinely shorten.
                if t + DAY_AHEAD_STEPS > st.fd.len() {
                    assert!(hi - lo < DAY_AHEAD_STEPS);
                }
            }
        }
    }

    /// The threshold scans must agree with linear scans over the
    /// precomputed arrays (bucket skipping is an optimization only).
    #[test]
    fn threshold_scans_match_linear_scans() {
        let sim =
            GroupSim::new(&catalog(), &["UK-wind", "NO-solar"], tiny_cfg()).expect("sites exist");
        let p = &sim.power[0];
        for from in [0usize, 7, 95, 100, 190, 500] {
            for threshold in [0u32, 1, 50, 200, 400, 401] {
                let linear = (from..p.budgets.len()).find(|&t| p.budgets[t] < threshold);
                assert_eq!(
                    p.next_budget_below(from, threshold),
                    linear,
                    "budget scan from {from} below {threshold}"
                );
            }
            for stable in [0.0f64, 10.0, 150.0, 280.0, 1e9] {
                let cores_f = sim.cfg.cores_per_site as f64;
                let util = sim.cfg.target_util;
                let linear =
                    (from..p.fd_min24.len()).find(|&t| p.fd_min24[t] * cores_f * util < stable);
                assert_eq!(
                    p.next_fd24_below(from, stable, cores_f, util),
                    linear,
                    "fd24 scan from {from} below {stable}"
                );
            }
        }
    }
}

#[cfg(test)]
mod subgraph_tests {
    use super::*;
    use crate::greedy::GreedyPolicy;
    use vb_trace::TRIO;

    /// The trio and a fourth site: room for two 2-site subgraphs.
    const FOUR_SITES: [&str; 4] = [TRIO[0], TRIO[1], TRIO[2], "ES-wind"];

    fn cfg_with_groups() -> GroupSimConfig {
        GroupSimConfig {
            cores_per_site: 400,
            days: 2,
            seed: 7,
            // Two disjoint subgraphs: {0,1} and {2,3}.
            subgraphs: Some(vec![vec![0, 1], vec![2, 3]]),
            ..GroupSimConfig::default()
        }
    }

    #[test]
    fn subgraph_restriction_runs_and_bounds_targets() {
        let catalog = Catalog::europe(42);
        let names = FOUR_SITES;
        let summary = GroupSim::new(&catalog, &names, cfg_with_groups())
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        assert_eq!(summary.per_step_gb.len(), 2 * STEPS_PER_DAY as usize);
        assert!(summary.per_step_gb.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn movable_targets_respect_groups() {
        let catalog = Catalog::europe(42);
        let names = FOUR_SITES;
        let sim = GroupSim::new(&catalog, &names, cfg_with_groups()).expect("sites exist");
        assert_eq!(sim.movable_targets(0), vec![0, 1]);
        assert_eq!(sim.movable_targets(3), vec![2, 3]);
        // Ungrouped default covers every site.
        let open = GroupSim::new(
            &catalog,
            &names,
            GroupSimConfig {
                cores_per_site: 400,
                days: 1,
                ..GroupSimConfig::default()
            },
        )
        .expect("sites exist");
        assert_eq!(open.movable_targets(1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unconstrained_rehosting_strands_no_more_than_constrained() {
        // Removing the latency constraint can only widen re-host options,
        // so the ungrouped run must have no more stranded app-steps.
        let catalog = Catalog::europe(42);
        let names = FOUR_SITES;
        let grouped = GroupSim::new(&catalog, &names, cfg_with_groups())
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        let open_cfg = GroupSimConfig {
            subgraphs: None,
            ..cfg_with_groups()
        };
        let open = GroupSim::new(&catalog, &names, open_cfg)
            .expect("sites exist")
            .run(&mut GreedyPolicy::new());
        assert!(
            open.unavailable_app_steps <= grouped.unavailable_app_steps,
            "open {} vs grouped {}",
            open.unavailable_app_steps,
            grouped.unavailable_app_steps
        );
    }
}
