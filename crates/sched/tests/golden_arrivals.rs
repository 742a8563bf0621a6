//! Golden digests of the application arrival stream.
//!
//! `AppGen` must draw the same applications, bit for bit, across
//! performance work on its lifetime sampler: each constant below is an
//! FNV-1a hash over the bit patterns of every `AppSpec` field of the
//! first 100,000 specs of a seed-42 stream. The digests were recorded
//! from the libm Box–Muller lifetimes, before the guarded fast cosine
//! replaced them. A mismatch means an application moved: a different
//! size, kind or lifetime, or a shifted random stream.

mod common;

use common::fnv1a;
use vb_cluster::VmKind;
use vb_sched::{AppGen, AppGenConfig, AppSpec};

const SPECS: usize = 100_000;

fn spec_words(a: &AppSpec) -> [u64; 5] {
    [
        a.n_vms as u64,
        a.cores_per_vm as u64,
        a.mem_per_vm_gb.to_bits(),
        (a.kind == VmKind::Degradable) as u64,
        a.lifetime_steps as u64,
    ]
}

fn stream_digest(cfg: AppGenConfig) -> u64 {
    let mut g = AppGen::new(cfg, common::SEED);
    let mut specs = Vec::with_capacity(SPECS);
    while specs.len() < SPECS {
        g.step_into(&mut specs);
    }
    specs.truncate(SPECS);
    fnv1a(specs.iter().flat_map(spec_words))
}

/// Table 1's mix: 5–50 VMs, 30 % degradable, median 1.5 days.
#[test]
fn default_app_stream_matches_golden_digest() {
    assert_eq!(
        stream_digest(AppGenConfig::default()),
        0xc517_96c0_c4b6_6db4,
        "default app stream"
    );
}

/// The fleet mix: 1–2 VMs, 95 % degradable, 4 arrivals per step.
#[test]
fn fleet_app_stream_matches_golden_digest() {
    assert_eq!(
        stream_digest(AppGenConfig::fleet()),
        0x9069_f03b_5ce3_b776,
        "fleet app stream"
    );
}
