//! Random variates shared by the workload generators: the VM arrivals
//! of `vb-cluster` and the application arrivals of `vb-sched` draw from
//! one Poisson sampler and one normal sampler.

use rand::Rng;

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

/// A standard normal sample by the Box–Muller transform (two uniform
/// draws, the first floored at `1e-12` so its logarithm stays finite).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
