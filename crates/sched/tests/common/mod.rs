//! The two MIP-planned scenarios shared by `golden_mip.rs` and
//! `mip_classes.rs`, so the class-model harness checks exactly the runs
//! the golden digests pin.

use vb_sched::{AppGenConfig, GroupSim, GroupSimConfig, Policy, PolicySummary};
use vb_trace::Catalog;

const SEED: u64 = 42;

/// The Table 1 multi-VB group (Fig 3 trio).
const TRIO: [&str; 3] = ["NO-solar", "UK-wind", "PT-wind"];

/// Table 1: the trio under the default config (7 days from day 120).
pub fn run_table1(policy: &mut dyn Policy) -> PolicySummary {
    GroupSim::new(&Catalog::europe(SEED), &TRIO, GroupSimConfig::default())
        .expect("catalog sites exist")
        .run(policy)
}

/// The first 3-site shard of the synthetic fleet under the fleet
/// bench's application mix (many tiny, mostly degradable apps at a
/// fixed arrival rate), 3 days at 3 h epochs: mid-size MIPs.
pub fn run_fleet_shard(policy: &mut dyn Policy) -> PolicySummary {
    let catalog = Catalog::fleet(SEED, 3);
    let names: Vec<&str> = catalog.sites().iter().map(|s| s.name.as_str()).collect();
    let cfg = GroupSimConfig {
        days: 3,
        app_cfg: Some(AppGenConfig {
            arrivals_per_step: 4.0,
            vms_min: 1,
            vms_max: 2,
            cores_per_vm: 2,
            degradable_fraction: 0.95,
            ..AppGenConfig::default()
        }),
        ..GroupSimConfig::default()
    };
    GroupSim::new(&catalog, &names, cfg)
        .expect("catalog sites exist")
        .run(policy)
}
