//! Random variates shared by the workload generators: the VM arrivals
//! of `vb-cluster` and the application arrivals of `vb-sched` draw from
//! one Poisson sampler and one rounded log-normal sampler.
//!
//! * [`poisson`] draws arrival counts: Knuth's product of uniforms, or
//!   a rounded normal approximation for large rates.
//! * [`lognormal_steps`] draws lifetimes in whole steps:
//!   `round(median·e^{σz})`, clamped to `[1, max]`.
//! * `standard_normal` (private) is the Box–Muller transform both use:
//!   `z = r·cos(2πu₂)` with `r = √(−2 ln u₁)`.
//!
//! # The fast lifetime path is exact
//!
//! [`lognormal_steps`] returns the integer the libm expression
//! `round(median·exp(σ·r·cos(2πu₂)))` gives, but takes the cosine from
//! a 256-point table plus a short Taylor correction instead of libm's
//! `cos`, the dearest call in a VM request's draw. Both paths run
//! the same `ln`, `sqrt`, `exp` and multiplications on the same two
//! uniforms; only the cosine differs, by at most `ε = 2⁻⁴⁹` (the tests
//! check the table against libm over a dense grid and random
//! uniforms). Since `u₁ ≥ 1e-12`, `r ≤ √(−2 ln 1e-12) < 7.44`, so the
//! two values `v_fast` and `v_libm` differ by at most
//!
//! ```text
//! |v_fast − v_libm| ≤ v·(|σ|·r·(ε + 4·2⁻⁵³) + 6·2⁻⁵³)
//!                   < v·(1 + |σ|)·2e-14,
//! ```
//!
//! the last terms being the roundings of the products and of `exp`.
//! The fast value is used unless it lies within `1e-9·(1 + |σ|)·v` of
//! a rounding edge (a half-integer), a band some 5·10⁴ times wider than
//! that bound. Outside the band both values round, and clamp, to the
//! same integer; inside it, the libm expression decides. At the two
//! shipped lifetime mixes the band sends fewer than one draw in a
//! million to the libm path.

use rand::Rng;
use std::sync::LazyLock;

/// Rates above this use the normal approximation: Knuth's product of
/// uniforms needs about `rate` draws per sample, and its threshold
/// `e^{-rate}` underflows to zero near a rate of 745, after which the
/// loop only stops when the product itself underflows.
const KNUTH_MAX_RATE: f64 = 500.0;

/// A Poisson sample with mean `rate`: Knuth's multiplication method for
/// rates up to 500, the rounded normal approximation
/// `rate + √rate·z` (clamped at 0) above. A rate that is not finite and
/// positive — zero, negative, NaN or infinite — draws nothing and
/// returns 0, so no rate can make the sampler spin or return an
/// unbounded count.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> usize {
    if !(rate > 0.0 && rate.is_finite()) {
        return 0;
    }
    if rate > KNUTH_MAX_RATE {
        let z = standard_normal(rng);
        return (rate + rate.sqrt() * z).round().max(0.0) as usize;
    }
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// A log-normal lifetime in whole steps: `median·e^{σz}` for a standard
/// normal `z`, rounded half away from zero and clamped to `[1, max]` (a
/// `max` of 0 reads as 1). Draws two uniforms, as `standard_normal`
/// does, and returns the integer its libm expression gives: a fast
/// cosine decides every draw outside a guard band around the rounding
/// edges (see the module doc for the bound that makes this exact). A
/// NaN `median` or `sigma` gives 1.
pub fn lognormal_steps<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64, max: u32) -> u32 {
    let (r, u2) = polar(rng);
    let max = max.max(1);
    fast_steps(r, u2, median, sigma, max).unwrap_or_else(|| {
        let v = median * (sigma * (r * libm_cos_2pi(u2))).exp();
        (v.round() as u32).clamp(1, max)
    })
}

/// The guard band's half-width around each rounding edge, relative to
/// `(1 + |σ|)·v`.
const GUARD: f64 = 1e-9;

/// The fast path: the value `v` from the fast cosine, rounded and
/// clamped to `[1, max]` (`max ≥ 1`) if every value within the guard
/// band of `v` rounds and clamps to the same integer; `None` inside the
/// band, or for a negative or NaN `v`. Truncates instead of calling
/// `f64::round`, which is a libm call on the baseline x86-64 target.
fn fast_steps(r: f64, u2: f64, median: f64, sigma: f64, max: u32) -> Option<u32> {
    let v = median * (sigma * (r * cos_2pi(u2))).exp();
    let band = GUARD * (1.0 + sigma.abs()) * v;
    // Everything at or above `max − 0.5` rounds to at least `max`.
    let top = f64::from(max) - 0.5;
    if v - band >= top {
        return Some(max);
    }
    if v.is_nan() || v < 0.0 {
        return None;
    }
    // `v < top + band` here: the cast saturates only for an infinite
    // `v` or a band wider than 0.5, and then no `v` clears the band.
    let shifted = v + 0.5;
    let n = shifted as u32;
    // `v`'s distance above the edge `n − 0.5`; `1 − above` is its
    // distance below `n + 0.5`.
    let above = shifted - f64::from(n);
    (above > band && 1.0 - above > band).then_some(n.max(1))
}

/// A standard normal sample by the Box–Muller transform (two uniform
/// draws, the first floored at `1e-12` so its logarithm stays finite).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (r, u2) = polar(rng);
    r * libm_cos_2pi(u2)
}

/// The Box–Muller radius `√(−2 ln u₁)` and the angle's uniform `u₂`,
/// drawn in that order.
fn polar<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt(), u2)
}

/// `cos(2πu)` by libm, the reference the fast cosine is held to.
fn libm_cos_2pi(u: f64) -> f64 {
    (2.0 * std::f64::consts::PI * u).cos()
}

/// Table points per turn of [`cos_2pi`]: a power of two, so `u·256` and
/// its distance to the nearest table point are exact.
const TABLE_POINTS: usize = 256;

/// The angle between two table points, `2π/256`, in radians.
const TABLE_STEP: f64 = std::f64::consts::TAU * (1.0 / 256.0);

/// `(cos, sin)` of `2πk/256` for `k` in `0..256`, built once from libm
/// at first-quadrant angles and rotated into the other three quadrants,
/// so every entry carries the accuracy of an angle below `π/2`.
static COS_SIN: LazyLock<[(f64, f64); TABLE_POINTS]> = LazyLock::new(|| {
    let quarter = TABLE_POINTS / 4;
    let mut table = [(1.0, 0.0); TABLE_POINTS];
    for j in 0..quarter {
        let angle = j as f64 * TABLE_STEP;
        let (mut c, mut s) = (angle.cos(), angle.sin());
        for q in 0..4 {
            table[q * quarter + j] = (c, s);
            // A quarter turn on, exactly: (cos, sin) → (−sin, cos).
            (c, s) = (-s, c);
        }
    }
    table
});

/// `cos(2πu)` for `u` in `[0, 1)`, within `2⁻⁴⁹` of [`libm_cos_2pi`]:
/// the nearest table point plus the rotation by the remaining angle
/// `d`, `|d| ≤ π/256`, whose cosine and sine come from their Taylor
/// series to `d⁶` and `d⁵` (the next terms are below `1e-17`).
fn cos_2pi(u: f64) -> f64 {
    let t = u * TABLE_POINTS as f64;
    let k = (t + 0.5) as usize;
    let d = (t - k as f64) * TABLE_STEP;
    // `k` reaches 256 only for `u` within half a step of 1, where the
    // angle wraps to table point 0.
    let (c, s) = COS_SIN[k % TABLE_POINTS];
    let d2 = d * d;
    let cos_d_minus_1 = -d2 * (0.5 - d2 * (1.0 / 24.0 - d2 * (1.0 / 720.0)));
    let sin_d = d * (1.0 - d2 * (1.0 / 6.0 - d2 * (1.0 / 120.0)));
    c + (c * cos_d_minus_1 - s * sin_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The largest `|cos_2pi − libm_cos_2pi|` the guard band assumes
    /// (the module doc's `ε`).
    const COS_ERR: f64 = 1.0 / (1u64 << 49) as f64;

    /// The shipped lifetime mixes: VM lifetimes (`WorkloadConfig`) and
    /// application lifetimes (`AppGenConfig`), both capped at two weeks.
    const VM_MIX: (f64, f64, u32) = (4.0, 2.0, 1_344);
    const APP_MIX: (f64, f64, u32) = (144.0, 0.8, 1_344);

    /// The expression the lifetime samplers evaluated before the fast
    /// path, libm throughout, on the draws `(r, u2)`.
    fn libm_steps(r: f64, u2: f64, (median, sigma, max): (f64, f64, u32)) -> u32 {
        let z = r * (2.0 * std::f64::consts::PI * u2).cos();
        ((median * (sigma * z).exp()).round() as u32).clamp(1, max)
    }

    /// The fast value rounded without the guard: what
    /// [`lognormal_steps`] would return with its fallback deleted.
    fn unguarded_steps(r: f64, u2: f64, (median, sigma, max): (f64, f64, u32)) -> u32 {
        let v = median * (sigma * (r * cos_2pi(u2))).exp();
        (v.round() as u32).clamp(1, max)
    }

    /// Replays fixed 64-bit words: `(m << 11)` yields the uniform
    /// `m·2⁻⁵³`.
    struct Replay(std::vec::IntoIter<u64>);

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the test supplies every word drawn")
        }
    }

    const GRID: f64 = 1.0 / (1u64 << 53) as f64;

    fn uniform(m: u64) -> f64 {
        m as f64 * GRID
    }

    fn radius(m: u64) -> f64 {
        (-2.0 * uniform(m).max(1e-12).ln()).sqrt()
    }

    #[test]
    fn small_rates_match_their_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn large_rates_use_the_normal_approximation() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = poisson(&mut rng, 10_000.0);
        assert!((9_000..11_000).contains(&n), "n {n}");
        // Past Knuth's underflow point the count still tracks the rate.
        let total: usize = (0..200).map(|_| poisson(&mut rng, 2_000.0)).sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 2_000.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn rates_that_are_not_finite_and_positive_draw_nothing() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut fresh = StdRng::seed_from_u64(3);
            assert_eq!(poisson(&mut rng, rate), 0, "rate {rate}");
            assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "rate {rate} drew");
        }
    }

    /// The bound the guard band is sized from: over every `2⁻²²`-th
    /// point of the turn, each table point and its neighbours on the
    /// `2⁻⁵³` grid, and a million random uniforms.
    #[test]
    fn fast_cosine_stays_within_the_guarded_error() {
        let dense = (0..1u64 << 22).map(|i| i << 31);
        let table = (0..TABLE_POINTS as u64)
            .flat_map(|k| [k << 45, (k << 45) + 1, (k << 45).saturating_sub(1)]);
        let mut rng = StdRng::seed_from_u64(17);
        let random = (0..1_000_000).map(|_| rng.next_u64() >> 11);
        let mut worst = (0.0f64, 0u64);
        for m in dense.chain(table).chain(random) {
            let err = (cos_2pi(uniform(m)) - libm_cos_2pi(uniform(m))).abs();
            if err > worst.0 {
                worst = (err, m);
            }
        }
        assert!(
            worst.0 < COS_ERR,
            "error {:e} at u = {} exceeds {COS_ERR:e}",
            worst.0,
            uniform(worst.1)
        );
        println!("fast cosine: largest error {:e}", worst.0);
    }

    /// The guarded sampler returns the libm integer for ten million draws
    /// at each shipped mix and a thousand at each point of a
    /// `(median, σ, max)` grid, drawing what the libm expression draws;
    /// the libm path stays rare.
    #[test]
    fn lognormal_steps_equals_the_libm_expression() {
        for (name, mix @ (median, sigma, max)) in [("vm", VM_MIX), ("app", APP_MIX)] {
            let mut rng = StdRng::seed_from_u64(23);
            let mut reference = rng.clone();
            let draws = 10_000_000;
            let mut exact = 0u64;
            for _ in 0..draws {
                let (r, u2) = polar(&mut reference);
                exact += fast_steps(r, u2, median, sigma, max).is_none() as u64;
                assert_eq!(
                    lognormal_steps(&mut rng, median, sigma, max),
                    libm_steps(r, u2, mix),
                    "{name} mix, r {r}, u2 {u2}"
                );
            }
            println!("{name} mix: {exact} of {draws} draws took the libm path");
        }
        let mut rng = StdRng::seed_from_u64(29);
        let mut reference = rng.clone();
        for median in [0.0, 0.3, 1.0, 4.0, 37.5, 144.0, 1_000.0, 1e6] {
            for sigma in [-1.5, 0.0, 0.25, 0.8, 2.0, 4.0, 30.0] {
                for max in [1, 7, 1_344, u32::MAX] {
                    let mix = (median, sigma, max);
                    for _ in 0..1_000 {
                        let (r, u2) = polar(&mut reference);
                        assert_eq!(
                            lognormal_steps(&mut rng, median, sigma, max),
                            libm_steps(r, u2, mix),
                            "mix {mix:?}, r {r}, u2 {u2}"
                        );
                    }
                }
            }
        }
    }

    /// Draws whose fast and libm values fall on either side of a
    /// rounding edge, found by bisecting `u₁` on the `2⁻⁵³` grid for the
    /// edge crossing at angles where the two cosines differ. The sampler
    /// must return the libm integer for each, so deleting its fallback
    /// fails here.
    #[test]
    fn draws_straddling_a_rounding_edge_take_the_libm_value() {
        for mix @ (median, sigma, max) in [VM_MIX, APP_MIX] {
            let mut rng = StdRng::seed_from_u64(37);
            let (mut found, mut angles, mut tried) = (0, 0, 0);
            while angles < 8 && tried < 20_000 {
                tried += 1;
                let m2 = rng.next_u64() >> 11;
                let u2 = uniform(m2);
                let c = libm_cos_2pi(u2);
                if cos_2pi(u2) == c || c.abs() < 0.05 {
                    continue;
                }
                let value = |m1: u64| median * (sigma * (radius(m1) * c)).exp();
                // Aim at the edge nearest the value at u₁ = 1/e, where a
                // grid step moves r least relative to the cosine's error.
                let edge = (value((1u64 << 53) / 1_000 * 368) - 0.5).round() + 0.5;
                if !(1.0..f64::from(max) - 1.0).contains(&edge) {
                    continue;
                }
                // `value` is monotone in m1: bisect for the first grid
                // point on the other side of the edge from m1 = 1.
                let below = |m1: u64| value(m1) < edge;
                let (mut lo, mut hi) = (1u64, (1u64 << 53) - 1);
                if below(hi) == below(lo) {
                    continue;
                }
                while hi - lo > 1 {
                    let m = lo + (hi - lo) / 2;
                    if below(m) == below(1) {
                        lo = m;
                    } else {
                        hi = m;
                    }
                }
                let before = found;
                for m1 in hi - 16..hi + 16 {
                    let r = radius(m1);
                    let want = libm_steps(r, u2, mix);
                    if unguarded_steps(r, u2, mix) == want {
                        continue;
                    }
                    let mut replay = Replay(vec![m1 << 11, m2 << 11].into_iter());
                    assert_eq!(
                        lognormal_steps(&mut replay, median, sigma, max),
                        want,
                        "{mix:?}: u1 = {m1}·2⁻⁵³, u2 = {m2}·2⁻⁵³"
                    );
                    found += 1;
                }
                angles += (found > before) as usize;
            }
            assert_eq!(
                angles, 8,
                "{mix:?}: {found} straddling draws in {tried} angles"
            );
            println!("{mix:?}: {found} straddling draws at 8 of {tried} angles");
        }
    }

    #[test]
    fn degenerate_lifetime_parameters_clamp() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..1_000 {
            for (median, sigma) in [(f64::NAN, 1.0), (4.0, f64::NAN), (-3.0, 1.0)] {
                assert_eq!(lognormal_steps(&mut rng, median, sigma, 10), 1);
            }
            assert_eq!(lognormal_steps(&mut rng, f64::INFINITY, 1.0, 10), 10);
            assert_eq!(lognormal_steps(&mut rng, 50.0, 2.0, 0), 1);
        }
    }
}
