//! Golden digests of the VM arrival stream.
//!
//! `Workload` must draw the same requests, bit for bit, across
//! performance work on its samplers: each constant below is an FNV-1a
//! hash over the bit patterns of every field of 100,000 requests (or of
//! one steady-state population). The digests were recorded from the
//! sequential shape scan and the libm Box–Muller lifetimes, before the
//! edge-count shape pick and the guarded fast cosine replaced them. A
//! mismatch means a request moved: a different shape, lifetime, kind or
//! a shifted random stream.

use vb_cluster::{VmKind, VmRequest, Workload, WorkloadConfig};

const REQUESTS: usize = 100_000;

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

fn request_words(r: &VmRequest) -> [u64; 4] {
    [
        r.cores as u64,
        r.mem_gb.to_bits(),
        (r.kind == VmKind::Degradable) as u64,
        r.lifetime_steps as u64,
    ]
}

/// The first [`REQUESTS`] requests of a seed-42 stream under `cfg`.
fn stream_digest(cfg: WorkloadConfig) -> u64 {
    let mut w = Workload::new(cfg, 42);
    let requests: Vec<VmRequest> = std::iter::repeat_with(|| w.step())
        .flatten()
        .take(REQUESTS)
        .collect();
    assert_eq!(requests.len(), REQUESTS);
    fnv1a(requests.iter().flat_map(request_words))
}

#[test]
fn stable_request_stream_matches_golden_digest() {
    assert_eq!(
        stream_digest(WorkloadConfig::default()),
        0x283e_1739_c815_8919,
        "default request stream"
    );
}

#[test]
fn degradable_request_stream_matches_golden_digest() {
    let cfg = WorkloadConfig::default().with_degradable_fraction(0.5);
    assert_eq!(
        stream_digest(cfg),
        0x1aff_de26_8ab3_4ab8,
        "half-degradable request stream"
    );
}

/// The pre-fill draws requests in a rejection loop and a residual per
/// accepted one, so it also pins the order of those draws.
#[test]
fn steady_state_population_matches_golden_digest() {
    let mut w = Workload::new(WorkloadConfig::default(), 42);
    let population = w.steady_state_population();
    assert!(population.len() > 3_000, "{} residents", population.len());
    let words = population.iter().flat_map(|(req, residual)| {
        let [a, b, c, d] = request_words(req);
        [a, b, c, d, *residual as u64]
    });
    assert_eq!(
        fnv1a(words),
        0x1004_8f6e_76e7_461a,
        "steady-state population"
    );
}
