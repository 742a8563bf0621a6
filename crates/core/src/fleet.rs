//! Fleet-scale sharded simulation: the follow-up paper's "hundreds of
//! modular data centers" regime, run as many independent multi-VB
//! groups.
//!
//! The one shard driver, in two phases. [`build_fleet`] shards a catalog
//! into [`SHARD_SIZE`]-site groups in catalog order and builds each
//! shard's [`vb_sched::GroupSim`] (its own traces and workload stream).
//! [`run_fleet`] runs every shard under one policy and sums the shard
//! summaries into a [`FleetRun`]. Both phases fan out over
//! [`vb_par::par_map`]. Because results are assembled by shard index
//! and every shard is seeded from `(base seed, shard index)`, a fleet
//! run is **bit-identical at any thread count**, pinned by the fleet
//! determinism test in `crates/bench/tests/determinism.rs`.
//!
//! Shards are deliberately *independent*: no WAN traffic crosses a
//! shard boundary, matching the paper's model where an application is
//! pinned to one latency-feasible multi-VB group (Fig 6 step 2). That
//! independence is exactly what makes the fan-out deterministic and
//! embarrassingly parallel.

use vb_sched::{GroupSim, GroupSimConfig, PolicySummary, SimError};
use vb_trace::Catalog;

/// Sites per fleet shard: the Table 1 multi-VB group size (the paper's
/// groups are 2–5 sites). The last shard of a catalog may be smaller.
pub const SHARD_SIZE: usize = 3;

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
    /// The four §3.1 policies, in Table 1 row order.
    pub const ALL: [FleetPolicy; 4] = [
        FleetPolicy::Greedy,
        FleetPolicy::Mip24h,
        FleetPolicy::Mip,
        FleetPolicy::MipPeak,
    ];

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

/// One shard of a built fleet: its sites and its simulator, ready to
/// run once.
pub struct FleetShard {
    sites: Vec<String>,
    sim: GroupSim,
}

/// One shard's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Site names in this shard (catalog order).
    pub sites: Vec<String>,
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

/// Build the fleet: one independent [`GroupSim`] per [`SHARD_SIZE`]-site
/// shard of the catalog, in shard order. `cfg.seed` is the base seed:
/// shard `i` draws its workload from `cfg.seed + 1 + i`, so shards see
/// distinct but reproducible arrival streams.
///
/// # Errors
/// Returns the lowest-index shard's [`SimError`]: shard names come from
/// the catalog itself, so that is [`SimError::NoSites`] for an empty
/// catalog, or [`SimError::Coverage`] when a site's measured data does
/// not cover the configured days.
pub fn build_fleet(catalog: &Catalog, cfg: &GroupSimConfig) -> Result<Vec<FleetShard>, SimError> {
    let _span = vb_telemetry::span!("core.fleet_build");
    let shards = shard_names(catalog, SHARD_SIZE);
    if shards.is_empty() {
        return Err(SimError::NoSites);
    }
    vb_par::par_map(shards.into_iter().enumerate(), |(i, sites)| {
        let names: Vec<&str> = sites.iter().map(String::as_str).collect();
        let shard_cfg = GroupSimConfig {
            seed: cfg.seed.wrapping_add(1 + i as u64),
            ..cfg.clone()
        };
        let sim = GroupSim::new(catalog, &names, shard_cfg)?;
        Ok(FleetShard { sites, sim })
    })
    .into_iter()
    .collect()
}

/// Run every shard of a built fleet under `policy`, fanned out over
/// `vb-par` with index-ordered assembly, and sum the shard summaries in
/// shard order. Each shard's summary becomes one row of the
/// `core.fleet_shards` series, whose instance names the policy and the
/// fleet's size (`"Greedy@30"`), so the rows of two fleets run in one
/// process never share a series.
pub fn run_fleet(shards: Vec<FleetShard>, policy: FleetPolicy) -> FleetRun {
    let _span = vb_telemetry::span!("core.fleet_run");
    // Each shard moves into its task: a run consumes its `GroupSim`.
    let shards: Vec<ShardResult> = vb_par::par_map(shards, |FleetShard { sites, sim }| {
        let mut policy = policy.build();
        ShardResult {
            sites,
            summary: sim.run(policy.as_mut()),
        }
    });
    let sites: usize = shards.iter().map(|s| s.sites.len()).sum();
    let instance = format!("{}@{sites}", policy.name());
    for (i, shard) in shards.iter().enumerate() {
        vb_telemetry::series_sample(
            "core.fleet_shards",
            &instance,
            i as u64,
            &[
                ("sites", shard.sites.len() as f64),
                ("total_gb", shard.summary.total_gb),
                ("vm_decisions", shard.summary.vm_decisions as f64),
                ("dropped_apps", shard.summary.dropped_apps as f64),
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
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GroupSimConfig {
        GroupSimConfig {
            cores_per_site: 400,
            days: 1,
            seed: 7,
            // The auto-sized workload at 400-core sites is sparse enough
            // that a 1-day run can see zero arrivals; pin an explicit
            // rate so the aggregation asserts are non-vacuous.
            app_cfg: Some(vb_sched::AppGenConfig {
                arrivals_per_step: 0.5,
                ..vb_sched::AppGenConfig::default()
            }),
            ..GroupSimConfig::default()
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
        let fleet = build_fleet(&catalog, &small_cfg()).expect("fleet builds");
        let run = run_fleet(fleet, FleetPolicy::Greedy);
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
        // Shard `i` is the `i`-th group of the catalog, seeded `base + 1 + i`.
        for (i, shard) in run.shards.iter().enumerate() {
            assert_eq!(shard.sites, shard_names(&catalog, SHARD_SIZE)[i]);
            let names: Vec<&str> = shard.sites.iter().map(String::as_str).collect();
            let cfg = GroupSimConfig {
                seed: small_cfg().seed + 1 + i as u64,
                ..small_cfg()
            };
            let alone = GroupSim::new(&catalog, &names, cfg)
                .expect("shard sites exist")
                .run(FleetPolicy::Greedy.build().as_mut());
            assert_eq!(shard.summary, alone, "shard {i}");
        }
    }

    #[test]
    fn fleets_of_different_sizes_write_different_series() {
        // Sizes no other test in this binary runs, so concurrent tests
        // cannot add rows to these instances.
        for n in [4, 5] {
            let catalog = Catalog::fleet(1, n);
            run_fleet(
                build_fleet(&catalog, &small_cfg()).expect("fleet builds"),
                FleetPolicy::Greedy,
            );
        }
        let series: Vec<_> = vb_telemetry::series_snapshot()
            .into_iter()
            .filter(|s| s.name == "core.fleet_shards")
            .collect();
        for (n, shards) in [(4, 2), (5, 2)] {
            let instance = format!("Greedy@{n}");
            let rows = series
                .iter()
                .find(|s| s.instance == instance)
                .unwrap_or_else(|| panic!("no core.fleet_shards/{instance} series"));
            assert_eq!(rows.epochs, (0..shards).collect::<Vec<u64>>(), "{instance}");
            let sites: f64 = rows.column("sites").expect("sites column").iter().sum();
            assert_eq!(sites, n as f64, "{instance} rows cover the fleet once");
        }
    }

    #[test]
    fn empty_catalog_is_an_error() {
        let catalog = Catalog::fleet(1, 0);
        assert_eq!(
            build_fleet(&catalog, &small_cfg()).err(),
            Some(SimError::NoSites)
        );
    }
}
