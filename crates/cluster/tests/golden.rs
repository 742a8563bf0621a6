//! Golden digests of the Figure 4 site simulation.
//!
//! `simulate_paper_site` must stay bit-identical across refactors and
//! performance work on the cluster simulator: each constant below is an
//! FNV-1a hash over the bit patterns of every `StepStats` field of one
//! run, recorded before the placement index replaced the linear scans.
//! A digest mismatch means some output moved — a changed placement,
//! eviction order or rounding — not just a changed speed.

use vb_cluster::{simulate_paper_site, StepStats};
use vb_trace::Catalog;

const START_DAY: u32 = 60;
const DAYS: u32 = 14;
const SEED: u64 = 42;

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

fn step_words(s: &StepStats) -> [u64; 14] {
    [
        s.step,
        s.power_frac.to_bits(),
        s.budget_cores as u64,
        s.allocated_cores as u64,
        s.utilization.to_bits(),
        s.out_gb.to_bits(),
        s.in_gb.to_bits(),
        s.migrations_out as u64,
        s.migrations_in as u64,
        s.hibernated as u64,
        s.resumed as u64,
        s.admitted as u64,
        s.queued as u64,
        s.pending_len as u64,
    ]
}

fn site_digest(site: &str) -> u64 {
    let power = Catalog::europe(SEED).trace(site, START_DAY, DAYS);
    let out = simulate_paper_site(&power, SEED);
    assert_eq!(out.steps.len(), power.values.len());
    fnv1a(out.steps.iter().flat_map(step_words))
}

#[test]
fn no_solar_site_matches_golden_digest() {
    assert_eq!(
        site_digest("NO-solar"),
        0x118a_8ce8_96ad_6e64,
        "NO-solar digest"
    );
}

#[test]
fn uk_wind_site_matches_golden_digest() {
    assert_eq!(
        site_digest("UK-wind"),
        0xd19b_661c_7ebe_6bf8,
        "UK-wind digest"
    );
}

#[test]
fn pt_wind_site_matches_golden_digest() {
    assert_eq!(
        site_digest("PT-wind"),
        0xff2a_8fc9_fbd7_3eab,
        "PT-wind digest"
    );
}
