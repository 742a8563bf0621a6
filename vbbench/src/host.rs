//! How fast the host is at a moment, against a fixed reference speed.
//!
//! The containers this benchmark runs on share their cores with other
//! tenants. Back-to-back `table1` runs took up to twice as long in one
//! minute as in another, while the process had its CPU all the time (no
//! steal), so both throughput and set-up time carried the host's speed
//! more than the code's. A fixed reference computation, the yardstick, is
//! timed on either side of each measured interval; the interval divided by
//! the yardstick's slowdown against [`REFERENCE_MS`] reads as it would on
//! a host running at the reference speed.
//!
//! The yardstick allocates 50 000 pseudo-random floats and sorts them with
//! the standard library's stable sort: fresh allocations, writes and
//! comparison sorting over 400 KB, the mix of the program's layers. Of the
//! candidates tried (a floating-point dependency chain, integer hashing,
//! pointer chases in L2 and in DRAM, B-tree inserts, a larger sort, and
//! this one), it followed the host's slowdowns best over all four
//! workloads: ten `table1` runs whose raw throughput spread 0.45 (quartile
//! distance over median) spread 0.06 once scaled by it. A variant that
//! sorted a preallocated buffer in place slowed down about twice as much
//! as the program did in the host's slow periods, and over-corrected.

use std::hint::black_box;
use std::time::Instant;

/// Values the yardstick sorts.
const LEN: usize = 50_000;

/// The yardstick's median time, in milliseconds, on the two-vCPU x86-64
/// container the baseline was measured on.
pub const REFERENCE_MS: f64 = 1.78;

/// One timing of the yardstick, in milliseconds.
pub fn yardstick_ms() -> f64 {
    let t = Instant::now();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut values: Vec<f64> = (0..LEN)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64
        })
        .collect();
    values.sort_by(f64::total_cmp);
    black_box(values);
    t.elapsed().as_secs_f64() * 1e3
}

/// The host's slowdown against the reference speed over an interval,
/// from the yardstick timings on either side of it: their geometric mean
/// over [`REFERENCE_MS`].
pub fn slowdown(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms * after_ms).sqrt() / REFERENCE_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_over_the_reference() {
        let s = slowdown(REFERENCE_MS * 2.0, REFERENCE_MS * 8.0);
        assert!((s - 4.0).abs() < 1e-12, "{s}");
        assert!((slowdown(REFERENCE_MS, REFERENCE_MS) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_yardstick_takes_measurable_time() {
        let ms = yardstick_ms();
        assert!(ms > 0.0 && ms.is_finite(), "{ms}");
    }
}
