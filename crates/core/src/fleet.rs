//! Fleet-scale sharded simulation: the follow-up paper's "hundreds of
//! modular data centers" regime, run as many independent multi-VB
//! groups.
//!
//! A fleet is sharded into fixed-size site groups in catalog order;
//! each shard is an independent [`vb_sched::GroupSim`] (its own traces,
//! workload stream, and policy instance) solved under the configured
//! policy and fanned out over [`vb_par::par_map`]. Because results are
//! assembled by shard index and every shard is seeded from `(base seed,
//! shard index)`, a fleet run is **bit-identical at any thread count**
//! — pinned by the fleet determinism test in
//! `crates/bench/tests/determinism.rs`.
//!
//! Shards are deliberately *independent*: no WAN traffic crosses a
//! shard boundary, matching the paper's model where an application is
//! pinned to one latency-feasible multi-VB group (Fig 6 step 2). That
//! independence is exactly what makes the fan-out deterministic and
//! embarrassingly parallel.

use vb_sched::{GroupSim, GroupSimConfig, PolicySummary, SimError};
use vb_trace::Catalog;

use crate::multivb::MultiVb;

/// Which placement policy every shard runs (shards never mix policies
/// within one fleet run — the comparison axis is across runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Greedy placement on the site with the most available power, the
    /// paper's baseline (Table 1 row 1).
    Greedy,
    /// MIP with a 24 h look-ahead (Table 1 row 2).
    Mip24h,
    /// Full-horizon MIP (Table 1 row 3).
    Mip,
    /// Full-horizon MIP with peak shaving + preemptive drains (row 4).
    MipPeak,
}

impl FleetPolicy {
    /// The policy's display name (matches the Table 1 row labels).
    pub fn name(self) -> &'static str {
        match self {
            FleetPolicy::Greedy => "Greedy",
            FleetPolicy::Mip24h => "MIP-24h",
            FleetPolicy::Mip => "MIP",
            FleetPolicy::MipPeak => "MIP-peak",
        }
    }

    /// A fresh policy instance. Constructed *inside* each shard's
    /// closure (policies are stateful and not `Sync`).
    pub fn build(self) -> Box<dyn vb_sched::Policy> {
        use vb_sched::{MipConfig, MipPolicy};
        match self {
            FleetPolicy::Greedy => Box::new(vb_sched::greedy::GreedyPolicy::new()),
            FleetPolicy::Mip24h => Box::new(MipPolicy::new(MipConfig::mip_24h())),
            FleetPolicy::Mip => Box::new(MipPolicy::new(MipConfig::mip())),
            FleetPolicy::MipPeak => Box::new(MipPolicy::new(MipConfig::mip_peak())),
        }
    }
}

/// Fleet run configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Sites per shard (the paper's multi-VB groups are 2–5 sites; the
    /// Table 1 group is 3). The last shard may be smaller.
    pub shard_size: usize,
    /// Per-shard simulation config. Each shard derives its own workload
    /// seed from `sim.seed` and the shard index, so shards see distinct
    /// (but reproducible) arrival streams.
    pub sim: GroupSimConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shard_size: 3,
            sim: GroupSimConfig::default(),
        }
    }
}

/// One shard's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Site names in this shard (catalog order).
    pub sites: Vec<String>,
    /// Coefficient of variation of the shard's combined trace — the
    /// §2.3 complementarity readout, via [`MultiVb`].
    pub cov: f64,
    /// The shard's policy-run summary.
    pub summary: PolicySummary,
}

/// A whole fleet's outcome: per-shard results in shard order plus the
/// fleet-wide aggregates. `PartialEq` so determinism tests can assert
/// bit-identity of entire runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Policy every shard ran.
    pub policy: String,
    /// Per-shard results, in shard (catalog) order.
    pub shards: Vec<ShardResult>,
    /// Σ migration volume over all shards, GB.
    pub total_gb: f64,
    /// Σ VM placement decisions over all shards.
    pub vm_decisions: u64,
    /// Σ queued-app-steps over all shards.
    pub unavailable_app_steps: u64,
    /// Σ apps dropped while queued.
    pub dropped_apps: usize,
}

/// Shard the catalog into consecutive site-name groups of
/// `shard_size` (the last shard keeps the remainder). Catalog order is
/// the shard identity: the same catalog always shards the same way.
pub fn shard_names(catalog: &Catalog, shard_size: usize) -> Vec<Vec<String>> {
    let size = shard_size.max(1);
    catalog
        .sites()
        .iter()
        .map(|s| s.name.clone())
        .collect::<Vec<_>>()
        .chunks(size)
        .map(|c| c.to_vec())
        .collect()
}

/// Run a policy over the whole fleet, one independent [`GroupSim`] per
/// shard, fanned out over `vb-par` with index-ordered assembly.
///
/// # Errors
/// Propagates the first (lowest-shard-index) [`SimError`]: shard names
/// come from the catalog itself, so that is [`SimError::NoSites`] for
/// an empty catalog, or [`SimError::Coverage`] when a site's measured
/// data does not cover the configured days.
pub fn run_fleet(
    catalog: &Catalog,
    policy: FleetPolicy,
    cfg: &FleetConfig,
) -> Result<FleetRun, SimError> {
    let _span = vb_telemetry::span!("core.fleet_run");
    let shards = shard_names(catalog, cfg.shard_size);
    if shards.is_empty() {
        return Err(SimError::NoSites);
    }
    let results: Vec<Result<ShardResult, SimError>> = vb_par::par_map(shards.len(), |i| {
        let names: Vec<&str> = shards[i].iter().map(String::as_str).collect();
        let sim_cfg = GroupSimConfig {
            // Decorrelate shard workloads while keeping each shard's
            // stream a pure function of (base seed, shard index).
            seed: cfg.sim.seed.wrapping_add(1 + i as u64),
            ..cfg.sim.clone()
        };
        let sim = GroupSim::new(catalog, &names, sim_cfg)?;
        // The §2.3 readout reads the traces the sim already holds.
        let (sites, traces) = sim
            .site_traces()
            .map(|(site, actual)| (site.clone(), actual.scale(site.capacity_mw)))
            .unzip();
        let cov = MultiVb::new(sites, traces).cov();
        let mut policy = policy.build();
        let summary = sim.run(policy.as_mut());
        Ok(ShardResult {
            sites: shards[i].clone(),
            cov,
            summary,
        })
    });
    let shards: Vec<ShardResult> = results.into_iter().collect::<Result<_, _>>()?;
    for (i, shard) in shards.iter().enumerate() {
        vb_telemetry::series_sample(
            "core.fleet_shards",
            policy.name(),
            i as u64,
            &[
                ("sites", shard.sites.len() as f64),
                ("total_gb", shard.summary.total_gb),
                ("vm_decisions", shard.summary.vm_decisions as f64),
                ("dropped_apps", shard.summary.dropped_apps as f64),
                ("cov", shard.cov),
            ],
        );
    }
    let run = FleetRun {
        policy: policy.name().to_string(),
        total_gb: shards.iter().map(|s| s.summary.total_gb).sum(),
        vm_decisions: shards.iter().map(|s| s.summary.vm_decisions).sum(),
        unavailable_app_steps: shards.iter().map(|s| s.summary.unavailable_app_steps).sum(),
        dropped_apps: shards.iter().map(|s| s.summary.dropped_apps).sum(),
        shards,
    };
    vb_telemetry::event(
        "core.fleet_run",
        &[
            ("policy", run.policy.as_str().into()),
            ("shards", (run.shards.len() as u64).into()),
            ("vm_decisions", run.vm_decisions.into()),
            ("total_gb", run.total_gb.into()),
        ],
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            shard_size: 3,
            sim: GroupSimConfig {
                cores_per_site: 400,
                days: 1,
                seed: 7,
                // The auto-sized workload at 400-core sites is sparse
                // enough that a 1-day run can see zero arrivals; pin an
                // explicit rate so the aggregation asserts are
                // non-vacuous.
                app_cfg: Some(vb_sched::AppGenConfig {
                    arrivals_per_step: 0.5,
                    ..vb_sched::AppGenConfig::default()
                }),
                ..GroupSimConfig::default()
            },
        }
    }

    #[test]
    fn shards_cover_the_catalog_in_order() {
        let catalog = Catalog::fleet(1, 10);
        let shards = shard_names(&catalog, 3);
        assert_eq!(shards.len(), 4, "10 sites / 3 per shard → 3+1 shards");
        assert_eq!(shards[3].len(), 1, "remainder shard keeps the tail");
        let flat: Vec<&str> = shards.iter().flatten().map(String::as_str).collect();
        let names: Vec<&str> = catalog.sites().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(flat, names, "sharding is a partition in catalog order");
        // Degenerate shard size is clamped, not panicking.
        assert_eq!(shard_names(&catalog, 0).len(), 10);
    }

    #[test]
    fn fleet_run_aggregates_shards() {
        let catalog = Catalog::fleet(1, 6);
        let run = run_fleet(&catalog, FleetPolicy::Greedy, &small_cfg()).expect("fleet runs");
        assert_eq!(run.policy, "Greedy");
        assert_eq!(run.shards.len(), 2);
        assert_eq!(
            run.vm_decisions,
            run.shards
                .iter()
                .map(|s| s.summary.vm_decisions)
                .sum::<u64>()
        );
        assert!(run.vm_decisions > 0);
        assert!(run.total_gb >= 0.0);
        // Each shard's cov, read off the sim's traces, is the catalog's.
        let (start, days) = (small_cfg().sim.start_day, small_cfg().sim.days);
        for shard in &run.shards {
            let names: Vec<&str> = shard.sites.iter().map(String::as_str).collect();
            let group = MultiVb::from_catalog(&catalog, &names, start, days);
            assert_eq!(shard.cov.to_bits(), group.cov().to_bits());
        }
    }

    #[test]
    fn empty_catalog_is_an_error() {
        let catalog = Catalog::fleet(1, 0);
        assert_eq!(
            run_fleet(&catalog, FleetPolicy::Greedy, &small_cfg()).err(),
            Some(SimError::NoSites)
        );
    }
}
