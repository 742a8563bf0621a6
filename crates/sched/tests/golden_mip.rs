//! Golden digests of MIP-planned simulations.
//!
//! Each constant below is an FNV-1a hash over the bit patterns of every
//! `PolicySummary` field (the per-step volumes included) of one run of
//! a solver-backed policy, so it pins that schedule bit for bit at any
//! `VB_THREADS`. A digest mismatch means a plan moved — a different
//! vertex, incumbent or branching order — not just a changed speed.
//!
//! Solver work may still move a plan: a change to a floating-point
//! path (where the basis is refactorized, the order of an update) can
//! round a pivot differently and lead the search to another incumbent.
//! Such a move is re-pinned on purpose, only after `mip_classes.rs` has
//! checked the new plans against the per-app model, and each old → new
//! value is recorded with its cause in `CHANGES.md`. A moved plan also
//! moves the MIP-planned step digests of `golden_steps.rs`; re-pin them
//! in the same change, for the same cause.
//!
//! All six digests were re-pinned when presolve began dropping implied
//! rows and fixing dominated columns: the reduced models are smaller,
//! so every LP runs on another basis, and where several plans tie or a
//! budget-stopped search ends early another incumbent can win.
//!
//! | digest | before | after |
//! |---|---|---|
//! | Table 1 MIP-24h | `0x5636_3b58_8c0e_81ef` | `0xaa0c_0f96_cb09_9735` |
//! | Table 1 MIP | `0x48b3_437e_8b90_aa83` | `0x18a9_9898_d4ff_47d9` |
//! | Table 1 MIP-peak | `0x9908_5bc8_6f68_2c5b` | `0xedbd_85ec_cdc8_96e1` |
//! | fleet MIP-24h | `0x0a9b_624b_c3ba_b6dc` | `0xed9b_969f_a375_3855` |
//! | fleet MIP | `0xe443_3cbe_fdbc_a31a` | `0xb073_34f6_dbd9_1ad5` |
//! | fleet MIP-peak | `0x7567_ee8e_d47f_9bad` | `0xc6a8_aa19_f1a6_3902` |

mod common;

use common::summary_digest;
use vb_sched::{MipConfig, MipPolicy};

/// Table 1: the trio under the default config (7 days from day 120).
fn table1(mip: MipConfig) -> u64 {
    summary_digest(&common::run_table1(&mut MipPolicy::new(mip)))
}

/// The first 3-site shard of the synthetic fleet: mid-size MIPs.
fn fleet_shard(mip: MipConfig) -> u64 {
    summary_digest(&common::run_fleet_shard(&mut MipPolicy::new(mip)))
}

#[test]
fn table1_mip_24h_matches_golden_digest() {
    assert_eq!(
        table1(MipConfig::mip_24h()),
        0xaa0c_0f96_cb09_9735,
        "Table 1 MIP-24h digest"
    );
}

#[test]
fn table1_mip_matches_golden_digest() {
    assert_eq!(
        table1(MipConfig::mip()),
        0x18a9_9898_d4ff_47d9,
        "Table 1 MIP digest"
    );
}

#[test]
fn table1_mip_peak_matches_golden_digest() {
    assert_eq!(
        table1(MipConfig::mip_peak()),
        0xedbd_85ec_cdc8_96e1,
        "Table 1 MIP-peak digest"
    );
}

#[test]
fn fleet_shard_mip_24h_matches_golden_digest() {
    assert_eq!(
        fleet_shard(MipConfig::mip_24h()),
        0xed9b_969f_a375_3855,
        "fleet MIP-24h digest"
    );
}

#[test]
fn fleet_shard_mip_matches_golden_digest() {
    assert_eq!(
        fleet_shard(MipConfig::mip()),
        0xb073_34f6_dbd9_1ad5,
        "fleet MIP digest"
    );
}

#[test]
fn fleet_shard_mip_peak_matches_golden_digest() {
    assert_eq!(
        fleet_shard(MipConfig::mip_peak()),
        0xc6a8_aa19_f1a6_3902,
        "fleet MIP-peak digest"
    );
}
