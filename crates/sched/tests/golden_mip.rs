//! Golden digests of MIP-planned simulations.
//!
//! The three solver-backed policies must produce bit-identical
//! schedules across solver refactors and performance work: each
//! constant below is an FNV-1a hash over the bit patterns of every
//! `PolicySummary` field (the per-step volumes included) of one run,
//! recorded before branch-and-bound nodes began sharing their parent's
//! factorization. A digest mismatch means a plan moved — a different
//! vertex, incumbent or branching order — not just a changed speed.

use vb_sched::{AppGenConfig, GroupSim, GroupSimConfig, MipConfig, MipPolicy, PolicySummary};
use vb_trace::Catalog;

const SEED: u64 = 42;

/// The Table 1 multi-VB group (Fig 3 trio).
const TRIO: [&str; 3] = ["NO-solar", "UK-wind", "PT-wind"];

/// FNV-1a over 64-bit words, byte by byte (little-endian).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn summary_digest(s: &PolicySummary) -> u64 {
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
    fnv1a(
        head.chain(s.per_step_gb.iter().map(|v| v.to_bits()))
            .chain(tail),
    )
}

fn run(catalog: &Catalog, sites: &[&str], cfg: GroupSimConfig, mip: MipConfig) -> u64 {
    let mut policy = MipPolicy::new(mip);
    let summary = GroupSim::new(catalog, sites, cfg)
        .expect("catalog sites exist")
        .run(&mut policy);
    summary_digest(&summary)
}

/// Table 1: the trio under the default config (7 days from day 120).
fn table1(mip: MipConfig) -> u64 {
    run(
        &Catalog::europe(SEED),
        &TRIO,
        GroupSimConfig::default(),
        mip,
    )
}

/// The first 3-site shard of the synthetic fleet under the fleet
/// bench's application mix (many tiny, mostly degradable apps at a
/// fixed arrival rate), 3 days at 3 h epochs: mid-size MIPs.
fn fleet_shard(mip: MipConfig) -> u64 {
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
    run(&catalog, &names, cfg, mip)
}

#[test]
fn table1_mip_24h_matches_golden_digest() {
    assert_eq!(
        table1(MipConfig::mip_24h()),
        0x202a_5a3f_8083_1b63,
        "Table 1 MIP-24h digest"
    );
}

#[test]
fn table1_mip_matches_golden_digest() {
    assert_eq!(
        table1(MipConfig::mip()),
        0x48b3_437e_8b90_aa83,
        "Table 1 MIP digest"
    );
}

#[test]
fn table1_mip_peak_matches_golden_digest() {
    assert_eq!(
        table1(MipConfig::mip_peak()),
        0x19fc_bd82_8349_f881,
        "Table 1 MIP-peak digest"
    );
}

#[test]
fn fleet_shard_mip_24h_matches_golden_digest() {
    assert_eq!(
        fleet_shard(MipConfig::mip_24h()),
        0x5d1f_ff10_984e_fdd3,
        "fleet MIP-24h digest"
    );
}

#[test]
fn fleet_shard_mip_matches_golden_digest() {
    assert_eq!(
        fleet_shard(MipConfig::mip()),
        0x1131_5195_9d29_3b0d,
        "fleet MIP digest"
    );
}

#[test]
fn fleet_shard_mip_peak_matches_golden_digest() {
    assert_eq!(
        fleet_shard(MipConfig::mip_peak()),
        0x5fd3_3dcb_188c_cdea,
        "fleet MIP-peak digest"
    );
}
