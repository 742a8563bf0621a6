//! Scenarios and digest helpers shared by vb-sched's integration
//! tests: the two MIP-planned scenarios of `golden_mip.rs`, which
//! `mip_classes.rs` and `sibling_resolves.rs` also drive so they check
//! exactly the runs the golden digests pin, and the FNV-1a digest that
//! `golden_mip.rs` and `golden_steps.rs` pin.

// Each test binary compiles this module and uses a different part.
#![allow(dead_code)]

use vb_sched::{AppGenConfig, GroupSim, GroupSimConfig, Policy, PolicySummary};
use vb_trace::{Catalog, TRIO};

pub const SEED: u64 = 42;

/// Table 1: the trio under the default config (7 days from day 120).
pub fn run_table1(policy: &mut dyn Policy) -> PolicySummary {
    GroupSim::new(&Catalog::europe(SEED), &TRIO, GroupSimConfig::default())
        .expect("catalog sites exist")
        .run(policy)
}

/// The first 3-site shard of the synthetic fleet under the fleet app
/// mix ([`AppGenConfig::fleet`]), 3 days at 3 h epochs: mid-size MIPs.
pub fn run_fleet_shard(policy: &mut dyn Policy) -> PolicySummary {
    let catalog = Catalog::fleet(SEED, 3);
    let names: Vec<&str> = catalog.sites().iter().map(|s| s.name.as_str()).collect();
    let cfg = GroupSimConfig {
        days: 3,
        app_cfg: Some(AppGenConfig::fleet()),
        ..GroupSimConfig::default()
    };
    GroupSim::new(&catalog, &names, cfg)
        .expect("catalog sites exist")
        .run(policy)
}

/// FNV-1a over 64-bit words, byte by byte (little-endian).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every `PolicySummary` field as 64-bit words, floats by bit
/// pattern, the per-step volumes included.
pub fn summary_words(s: &PolicySummary) -> impl Iterator<Item = u64> + '_ {
    let head = s.policy.bytes().map(u64::from).chain([
        s.total_gb.to_bits(),
        s.p99_gb.to_bits(),
        s.peak_gb.to_bits(),
        s.std_gb.to_bits(),
        s.zero_fraction.to_bits(),
        s.per_step_gb.len() as u64,
    ]);
    let tail = [
        s.unavailable_app_steps,
        s.preemptive_moves as u64,
        s.dropped_apps as u64,
        s.vm_decisions,
    ];
    head.chain(s.per_step_gb.iter().map(|v| v.to_bits()))
        .chain(tail)
}

/// The digest `golden_mip.rs` pins: [`fnv1a`] over [`summary_words`].
pub fn summary_digest(s: &PolicySummary) -> u64 {
    fnv1a(summary_words(s))
}
