//! Hot/cold standby replication — the alternative to migration (§3).
//!
//! "Such applications must rely on either hot/cold standbys using
//! continuous replication or migration. This introduces continuous or
//! bursty network overheads on the wide area links connecting sites."
//!
//! This module models the *replication* side of that trade-off so it can
//! be compared against the migration-based runtime the rest of the crate
//! simulates:
//!
//! * A **hot standby** streams dirty memory continuously (Remus-style):
//!   per-step traffic proportional to resident stable memory, plus a
//!   full copy whenever a replica is (re)established. Failover on a
//!   power dip is instant and free of bulk traffic, but every stable app
//!   consumes capacity at two sites.
//! * A **cold standby** ships periodic checkpoints: per-step traffic is
//!   the full memory divided by the checkpoint interval, failover loses
//!   the progress since the last checkpoint but the standby holds no
//!   cores until activated.
//!
//! Given the per-step group telemetry of a migration-based run, the
//! model computes what the *same* application population would have cost
//! under replication — a continuous, smooth load versus migration's
//! bursty one.

use crate::mip::GB_PER_CORE;
use crate::sim::DetailedRun;
use vb_stats::Summary;

/// Which standby flavour to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandbyMode {
    /// Continuous dirty-memory streaming (Remus-style hot standby).
    Hot,
    /// Periodic full checkpoints to a passive site.
    Cold,
}

/// Replication-cost parameters.
#[derive(Debug, Clone)]
pub struct ReplicationModel {
    /// Hot (continuous streaming) or cold (periodic checkpoints).
    pub mode: StandbyMode,
    /// Fraction of an app's memory dirtied per 15-minute step (hot
    /// mode). Write-heavy services dirty a few percent of RAM per
    /// minute; 0.3/step ≈ 2 %/minute.
    pub dirty_fraction_per_step: f64,
    /// Steps between checkpoints (cold mode). 4 = hourly.
    pub checkpoint_interval_steps: u32,
}

impl Default for ReplicationModel {
    fn default() -> ReplicationModel {
        ReplicationModel {
            mode: StandbyMode::Hot,
            dirty_fraction_per_step: 0.30,
            checkpoint_interval_steps: 4,
        }
    }
}

/// The replication-vs-migration comparison for one run.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// The standby flavour this report models.
    pub mode: StandbyMode,
    /// Continuous replication traffic per step, GB.
    pub per_step_gb: Vec<f64>,
    /// Total replication traffic over the run, GB.
    pub total_gb: f64,
    /// Peak per-step replication traffic, GB.
    pub peak_gb: f64,
    /// Standard deviation of per-step replication traffic, GB.
    pub std_gb: f64,
    /// Total migration traffic of the compared run, GB.
    pub migration_total_gb: f64,
    /// Peak per-step migration traffic of the compared run, GB.
    pub migration_peak_gb: f64,
    /// Capacity overhead of standbys: extra core-steps reserved,
    /// relative to the committed core-steps (1.0 = doubling, hot mode).
    pub capacity_overhead: f64,
}

impl ReplicationModel {
    /// Evaluate replication for the application population of a
    /// migration-based run: the committed stable memory at each step is
    /// what would have been continuously replicated instead, at the
    /// planner's [`GB_PER_CORE`] memory per committed core.
    pub fn evaluate(&self, run: &DetailedRun) -> ReplicationReport {
        let per_step: Vec<f64> = run
            .steps
            .iter()
            .map(|s| {
                let resident_gb = s.allocated_cores as f64 * GB_PER_CORE;
                match self.mode {
                    StandbyMode::Hot => resident_gb * self.dirty_fraction_per_step,
                    StandbyMode::Cold => resident_gb / self.checkpoint_interval_steps.max(1) as f64,
                }
            })
            .collect();
        let summary = Summary::of(&per_step);
        ReplicationReport {
            mode: self.mode,
            total_gb: summary.total,
            peak_gb: summary.max,
            std_gb: summary.std,
            per_step_gb: per_step,
            migration_total_gb: run.summary.total_gb,
            migration_peak_gb: run.summary.peak_gb,
            capacity_overhead: match self.mode {
                StandbyMode::Hot => 1.0,  // live replica holds equal cores
                StandbyMode::Cold => 0.0, // passive checkpoints hold none
            },
        }
    }
}

impl ReplicationReport {
    /// How many times more total traffic replication moves than the
    /// migration-based runtime did.
    pub fn traffic_ratio(&self) -> f64 {
        if self.migration_total_gb <= 0.0 {
            f64::INFINITY
        } else {
            self.total_gb / self.migration_total_gb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyPolicy;
    use crate::sim::{GroupSim, GroupSimConfig};
    use vb_trace::Catalog;

    fn short_run() -> DetailedRun {
        let catalog = Catalog::europe(42);
        let cfg = GroupSimConfig {
            days: 2,
            ..GroupSimConfig::default()
        };
        GroupSim::new(&catalog, &["UK-wind", "PT-wind"], cfg)
            .unwrap()
            .run_detailed(&mut GreedyPolicy::new())
    }

    #[test]
    fn hot_standby_moves_much_more_data_but_smoothly() {
        let run = short_run();
        let report = ReplicationModel::default().evaluate(&run);
        // §3's scale argument: continuous replication of every stable
        // app dwarfs on-demand migration in volume…
        assert!(
            report.traffic_ratio() > 2.0,
            "ratio {}",
            report.traffic_ratio()
        );
        // …but it has no bursts: its peak-to-mean ratio is tiny compared
        // to migration's (replication load tracks the resident memory,
        // migration load spikes at power events).
        let rep_burst =
            report.peak_gb / (report.total_gb / report.per_step_gb.len() as f64).max(1e-9);
        let mig_burst =
            run.summary.peak_gb / (run.summary.total_gb / run.steps.len() as f64).max(1e-9);
        assert!(
            rep_burst < mig_burst / 3.0,
            "replication burstiness {rep_burst} vs migration {mig_burst}"
        );
        assert_eq!(report.capacity_overhead, 1.0);
        assert_eq!(report.per_step_gb.len(), run.steps.len());
    }

    #[test]
    fn cold_standby_is_cheaper_than_hot() {
        let run = short_run();
        let hot = ReplicationModel::default().evaluate(&run);
        let cold = ReplicationModel {
            mode: StandbyMode::Cold,
            checkpoint_interval_steps: 8,
            ..ReplicationModel::default()
        }
        .evaluate(&run);
        assert!(cold.total_gb < hot.total_gb);
        assert_eq!(cold.capacity_overhead, 0.0);
    }

    #[test]
    fn traffic_scales_with_dirty_rate() {
        let run = short_run();
        let slow = ReplicationModel {
            dirty_fraction_per_step: 0.1,
            ..ReplicationModel::default()
        }
        .evaluate(&run);
        let fast = ReplicationModel {
            dirty_fraction_per_step: 0.5,
            ..ReplicationModel::default()
        }
        .evaluate(&run);
        assert!((fast.total_gb / slow.total_gb - 5.0).abs() < 1e-6);
    }

    #[test]
    fn ratios_handle_degenerate_runs() {
        let run = DetailedRun {
            steps: vec![],
            summary: crate::sim::PolicySummary {
                policy: "x".into(),
                total_gb: 0.0,
                p99_gb: 0.0,
                peak_gb: 0.0,
                std_gb: 0.0,
                zero_fraction: 0.0,
                per_step_gb: vec![],
                unavailable_app_steps: 0,
                preemptive_moves: 0,
                dropped_apps: 0,
                vm_decisions: 0,
            },
        };
        let r = ReplicationModel::default().evaluate(&run);
        assert_eq!(r.total_gb, 0.0);
        assert!(r.traffic_ratio().is_infinite());
    }
}
