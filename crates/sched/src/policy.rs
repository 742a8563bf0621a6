//! The scheduling-policy interface shared by Greedy and the MIP
//! variants.
//!
//! At every planning epoch the group simulation hands the policy a
//! [`PlanContext`]: the candidate sites with their forecast capacity and
//! committed load over the look-ahead horizon, and the batch of newly
//! arrived applications. The policy returns [`Assignment`]s, one per new
//! app; the runtime places them, as deployment rather than migration
//! traffic. Preemptive migration is not a planning decision: a policy
//! whose [`Policy::preemptive_drain`] is on has the runtime drain sites
//! in forecast deficit, and only those drain moves are charged as
//! preemptive traffic. [`PlanContext::movable`] and [`MovableApp`] are
//! always empty from the group simulation; they stay in the interface
//! because the end-to-end benchmark's plan validator reads them.

use crate::app::AppSpec;

/// Identifier of an application inside the group simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub usize);

/// What the policy knows about one site at planning time.
#[derive(Debug, Clone)]
pub struct SitePlanInfo {
    /// Site name (for reports).
    pub name: String,
    /// Total cores at the site.
    pub total_cores: u32,
    /// Power available right now, as cores.
    pub current_budget_cores: u32,
    /// Cores committed right now (running stable + degradable apps).
    pub allocated_cores: u32,
    /// Forecast capacity per look-ahead bucket, in cores. Built from
    /// the 3 h / day / week-ahead forecast products depending on each
    /// bucket's lead time.
    pub capacity_forecast_cores: Vec<f64>,
    /// Committed (existing, running stable) load per bucket, in cores —
    /// decays as existing applications reach their departure times.
    pub committed_cores: Vec<f64>,
}

/// An existing application offered to the policy for preemptive
/// re-placement. The group simulation offers none (see the module
/// doc): the type stays for the end-to-end benchmark's plan validator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovableApp {
    /// The app's identifier.
    pub id: AppId,
    /// Site index the app currently runs at.
    pub current_site: usize,
    /// Cores the app occupies.
    pub cores: u32,
    /// Its migration volume if moved, GB.
    pub mem_gb: f64,
    /// Remaining lifetime in steps.
    pub remaining_steps: u32,
}

/// A newly arrived application awaiting placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewApp {
    /// The app's identifier.
    pub id: AppId,
    /// The requested shape, kind, and lifetime.
    pub spec: AppSpec,
}

/// Everything a policy sees at one planning epoch.
#[derive(Debug, Clone)]
pub struct PlanContext {
    /// Current step (15-minute intervals since simulation start).
    pub now: u64,
    /// Steps per look-ahead bucket in the forecast vectors.
    pub bucket_steps: u32,
    /// The candidate sites (the selected multi-VB subgraph).
    pub sites: Vec<SitePlanInfo>,
    /// Applications to place.
    pub new_apps: Vec<NewApp>,
    /// Existing applications the policy may move (at a cost). Always
    /// empty from the group simulation, whose only preemptive moves are
    /// the runtime's drain moves; kept because the end-to-end
    /// benchmark's plan validator reads it.
    pub movable: Vec<MovableApp>,
}

impl PlanContext {
    /// Number of look-ahead buckets (uniform across sites).
    pub fn horizon_buckets(&self) -> usize {
        self.sites
            .first()
            .map(|s| s.capacity_forecast_cores.len())
            .unwrap_or(0)
    }
}

/// One placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Which app to place or move.
    pub app: AppId,
    /// Target site index within [`PlanContext::sites`].
    pub site: usize,
}

/// Per-site snapshot handed to [`Policy::choose_rehost`] when the
/// runtime needs a new home for an evicted or queued application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSnapshot {
    /// Powered cores right now.
    pub budget_cores: u32,
    /// Committed cores right now.
    pub allocated_cores: u32,
    /// Total cores.
    pub total_cores: u32,
    /// Admission cap right now (target_util × budget).
    pub admission_cap: u32,
    /// Worst admissible capacity over the next 24 h per the day-ahead
    /// forecast, in cores (already scaled by the utilization target).
    pub forecast_min_24h_cores: f64,
}

impl SiteSnapshot {
    /// Cores available for immediate admission.
    pub fn headroom(&self) -> u32 {
        self.admission_cap.saturating_sub(self.allocated_cores)
    }
}

/// A site-selection policy (Fig 6, step 3).
pub trait Policy {
    /// Human-readable policy name, as used in Table 1.
    fn name(&self) -> &str;

    /// Decide placements for the epoch. Every [`PlanContext::new_apps`]
    /// entry must be assigned; `movable` apps (none from the group
    /// simulation) may optionally be reassigned (omitting one keeps it
    /// where it is).
    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment>;

    /// Should the runtime drain forecast-deficit sites preemptively,
    /// moving apps out *before* power forces an eviction burst? This is
    /// the paper's MIP-peak behaviour: "MIP-peak migrates VMs
    /// preemptively, spreading out migrations over time and reducing
    /// burstiness". Default: off.
    fn preemptive_drain(&self) -> bool {
        false
    }

    /// Choose a site for an evicted/queued app needing `cores` right
    /// now, or `None` to queue it. The default is the greedy runtime
    /// rule: the admissible site with the most instantaneous headroom.
    /// Forecast-aware policies override this ("as the environment
    /// changes … we need to rerun the optimization", §3.1).
    fn choose_rehost(&mut self, sites: &[SiteSnapshot], cores: u32) -> Option<usize> {
        sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.headroom() >= cores)
            .max_by_key(|(_, s)| s.headroom())
            .map(|(i, _)| i)
    }

    /// Solver statistics for policies backed by the exact MIP solver
    /// (warm-start hits, fallback epochs). `None` for heuristics.
    fn mip_stats(&self) -> Option<crate::mip::MipStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_buckets_reads_site_vectors() {
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![SitePlanInfo {
                name: "a".into(),
                total_cores: 100,
                current_budget_cores: 80,
                allocated_cores: 10,
                capacity_forecast_cores: vec![50.0; 7],
                committed_cores: vec![10.0; 7],
            }],
            new_apps: vec![],
            movable: vec![],
        };
        assert_eq!(ctx.horizon_buckets(), 7);
        let empty = PlanContext {
            sites: vec![],
            ..ctx
        };
        assert_eq!(empty.horizon_buckets(), 0);
    }
}
