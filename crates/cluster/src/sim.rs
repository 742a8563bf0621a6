//! Trace-driven single-site simulation (the Figure 4 experiment).
//!
//! Runs a [`Cluster`] against a normalized power trace with a synthetic
//! Azure-like workload and collects the per-interval migration-traffic
//! series. A warm-up phase at full power lets the cluster reach its
//! steady-state ~70 % utilization before the power trace starts, as in
//! the paper's setup ("the cluster is running at 70 % utilization").

use crate::cluster::{Cluster, ClusterConfig, StepStats};
use crate::workload::{Workload, WorkloadConfig, WorkloadError};
use vb_stats::TimeSeries;

/// Result of a single-site simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// One entry per trace step (warm-up excluded).
    pub steps: Vec<StepStats>,
}

impl SimOutput {
    /// Outbound migration traffic per step, GB.
    pub fn out_gb(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.out_gb).collect()
    }

    /// Inbound migration traffic per step, GB.
    pub fn in_gb(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.in_gb).collect()
    }

    /// Power fraction per step (echo of the input trace).
    pub fn power(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.power_frac).collect()
    }

    /// Fraction of *power-change* steps that required no migration at
    /// all — the paper's "> 80 % of the power changes don't incur
    /// migrations" statistic. A step counts as a power change when the
    /// power fraction moved by more than `min_delta` from the previous
    /// step.
    pub fn quiet_change_fraction(&self, min_delta: f64) -> f64 {
        let mut changes = 0usize;
        let mut quiet = 0usize;
        for w in self.steps.windows(2) {
            let delta = (w[1].power_frac - w[0].power_frac).abs();
            if delta > min_delta {
                changes += 1;
                if w[1].migrations_out == 0 && w[1].migrations_in == 0 {
                    quiet += 1;
                }
            }
        }
        if changes == 0 {
            1.0
        } else {
            quiet as f64 / changes as f64
        }
    }

    /// Mean utilization over the run.
    pub fn mean_utilization(&self) -> f64 {
        vb_stats::mean(
            &self
                .steps
                .iter()
                .map(|s| s.utilization)
                .collect::<Vec<f64>>(),
        )
    }
}

/// Run a cluster against `power` (normalized to [0, 1] of full cluster
/// power), after `warmup_steps` of full-power operation to fill the
/// cluster to its steady state. A `workload_cfg` that fails
/// [`WorkloadConfig::validate`] is returned as its error, unrun.
pub fn simulate(
    cfg: ClusterConfig,
    power: &TimeSeries,
    workload_cfg: WorkloadConfig,
    warmup_steps: usize,
    seed: u64,
) -> Result<SimOutput, WorkloadError> {
    workload_cfg.validate()?;
    let _span = vb_telemetry::span!("cluster.simulate");
    let mut cluster = Cluster::new(cfg);
    let mut workload = Workload::new(workload_cfg, seed);

    // Pre-fill with the steady-state resident population so the run
    // starts at the target utilization (heavy-tailed lifetimes would
    // otherwise need weeks of warm-up to accumulate).
    for (req, residual) in workload.steady_state_population() {
        cluster.place_migrated(req, residual as u64);
    }

    for _ in 0..warmup_steps {
        let arrivals = workload.step();
        cluster.step(1.0, &arrivals);
    }

    let steps: Vec<StepStats> = power
        .values
        .iter()
        .map(|&p| {
            let arrivals = workload.step();
            let stats = cluster.step(p, &arrivals);
            vb_telemetry::histogram!("cluster.step_out_gb").observe(stats.out_gb);
            stats
        })
        .collect();
    emit_run_totals(&cluster, &steps);
    Ok(SimOutput { steps })
}

/// Add one run's totals to the cluster metrics, once per run: each sum
/// is taken in step order here, so the metrics do not depend on which of
/// several concurrent runs finishes first.
fn emit_run_totals(cluster: &Cluster, steps: &[StepStats]) {
    let (mut out_gb, mut in_gb) = (0.0, 0.0);
    let (mut migrations_out, mut migrations_in, mut deficit_steps) = (0, 0, 0);
    for s in steps {
        out_gb += s.out_gb;
        in_gb += s.in_gb;
        migrations_out += s.migrations_out as u64;
        migrations_in += s.migrations_in as u64;
        // The power budget could not host the resident population: a
        // genuine power deficit.
        deficit_steps += (s.migrations_out > 0 || s.hibernated > 0) as u64;
    }
    vb_telemetry::counter!("cluster.migrations_out").add(migrations_out);
    vb_telemetry::counter!("cluster.migrations_in").add(migrations_in);
    vb_telemetry::float_counter!("cluster.out_gb").add(out_gb);
    vb_telemetry::float_counter!("cluster.in_gb").add(in_gb);
    vb_telemetry::counter!("cluster.power_deficit_steps").add(deficit_steps);
    vb_telemetry::counter!("cluster.vm_expirations").add(cluster.vm_expirations());
    vb_telemetry::counter!("cluster.victim_visits").add(cluster.victim_visits());
}

/// Convenience: the paper's exact setup — a ≈700-server site at 70 %
/// utilization with the workload rate sized to the power the site
/// actually has on average. Sizing demand to *mean* available power
/// (rather than nameplate capacity) keeps the site balanced: the
/// pending queue forms only during genuine power dips, so small power
/// rises pass without migrations — the ">80 % of power changes don't
/// incur migrations" regime of §3.
pub fn simulate_paper_site(power: &TimeSeries, seed: u64) -> SimOutput {
    let cfg = ClusterConfig::default();
    let mean_power = vb_stats::mean(&power.values);
    let mean_powered_cores = (cfg.total_cores() as f64 * mean_power) as u32;
    let workload = WorkloadConfig::for_cluster(mean_powered_cores.max(1), cfg.target_util);
    // Two simulated days of warm-up on top of the steady-state pre-fill.
    simulate(cfg, power, workload, 2 * vb_trace::STEPS_PER_DAY, seed)
        // vb-audit: allow(no-panic, for_cluster's workload is valid for any core count and power trace)
        .expect("the paper site's workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_power(frac: f64, steps: usize) -> TimeSeries {
        TimeSeries::new(900, vec![frac; steps])
    }

    fn small_cfg() -> ClusterConfig {
        // Paper-shaped servers (40 cores — every workload shape fits),
        // scaled down to 20 servers for fast tests.
        ClusterConfig {
            n_servers: 20,
            cores_per_server: 40,
            mem_per_server_gb: 512.0,
            target_util: 0.7,
        }
    }

    fn small_workload(cfg: &ClusterConfig) -> WorkloadConfig {
        WorkloadConfig::for_cluster(cfg.total_cores(), cfg.target_util)
    }

    #[test]
    fn steady_full_power_produces_no_migrations() {
        let cfg = small_cfg();
        let wl = small_workload(&cfg);
        let out = simulate(cfg, &flat_power(1.0, 100), wl, 50, 1).unwrap();
        let total_out: f64 = out.out_gb().iter().sum();
        assert_eq!(total_out, 0.0, "no power variation, no migration");
        assert_eq!(out.quiet_change_fraction(0.01), 1.0);
    }

    #[test]
    fn warmed_cluster_sits_near_the_admission_target() {
        let cfg = small_cfg();
        let wl = small_workload(&cfg);
        let out = simulate(cfg, &flat_power(1.0, 200), wl, 192, 2).unwrap();
        let util = out.mean_utilization();
        assert!(
            (0.58..=0.72).contains(&util),
            "steady-state utilization {util}"
        );
    }

    #[test]
    fn minor_power_dips_are_absorbed_by_unallocated_cores() {
        // Utilization ~0.7; power dipping to 0.8 leaves headroom.
        let cfg = small_cfg();
        let wl = small_workload(&cfg);
        let mut values = vec![1.0; 50];
        values.extend(vec![0.8; 50]);
        let power = TimeSeries::new(900, values);
        let out = simulate(cfg, &power, wl, 400, 3).unwrap();
        let total_out: f64 = out.out_gb().iter().sum();
        assert_eq!(total_out, 0.0, "dip to 80% absorbed at 70% utilization");
    }

    #[test]
    fn deep_power_collapse_forces_out_migrations_then_in() {
        let cfg = small_cfg();
        let wl = small_workload(&cfg);
        let mut values = vec![1.0; 30];
        values.extend(vec![0.1; 20]); // collapse
        values.extend(vec![1.0; 30]); // recovery
        let power = TimeSeries::new(900, values);
        let out = simulate(cfg, &power, wl, 400, 4).unwrap();
        let total_out: f64 = out.out_gb().iter().sum();
        let total_in: f64 = out.in_gb().iter().sum();
        assert!(total_out > 0.0, "collapse must evict stable VMs");
        assert!(total_in > 0.0, "recovery must launch pending VMs");
        // The spike should be at the collapse step.
        let peak_step = out
            .steps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.out_gb.partial_cmp(&b.1.out_gb).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak_step, 30, "out spike at the collapse instant");
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = small_cfg();
        let wl = small_workload(&cfg);
        let power = flat_power(0.5, 50);
        let a = simulate(cfg.clone(), &power, wl.clone(), 20, 7).unwrap();
        let b = simulate(cfg, &power, wl, 20, 7).unwrap();
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn an_invalid_workload_is_returned_unrun() {
        let cfg = small_cfg();
        let wl = WorkloadConfig {
            median_lifetime_steps: f64::NAN,
            ..small_workload(&cfg)
        };
        let err = simulate(cfg, &flat_power(1.0, 10), wl, 0, 1).unwrap_err();
        assert_eq!(err.field, "median_lifetime_steps");
    }

    #[test]
    fn quiet_change_fraction_counts_only_changes() {
        let steps = vec![
            StepStats {
                power_frac: 1.0,
                ..StepStats::default()
            },
            StepStats {
                power_frac: 0.5,
                migrations_out: 1,
                ..StepStats::default()
            },
            StepStats {
                power_frac: 0.5,
                ..StepStats::default()
            },
            StepStats {
                power_frac: 0.9,
                ..StepStats::default()
            },
        ];
        let out = SimOutput { steps };
        // Two changes (1.0->0.5 with migration, 0.5->0.9 without).
        assert!((out.quiet_change_fraction(0.01) - 0.5).abs() < 1e-9);
    }
}
