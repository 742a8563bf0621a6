//! Synthetic Azure-like VM arrival workload.
//!
//! The paper replays a proprietary "Azure production VM arrival trace".
//! We substitute a generator matched to the published statistics of that
//! trace family (the Azure Public Dataset and the Protean paper):
//!
//! * **Shapes** — a discrete core-size mix dominated by small VMs
//!   (1–4 cores) with a tail up to 32 cores; memory is a few GB per core.
//! * **Lifetimes** — heavy-tailed: most VMs live under an hour, a
//!   minority for days (log-normal).
//! * **Rate** — Poisson arrivals whose rate is derived from the target
//!   steady-state utilization via Little's law, so a fresh cluster
//!   settles near the 70 % utilization the paper simulates at.

use crate::vm::{VmKind, VmRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vb_stats::sample::{lognormal_steps, poisson};

/// Discrete VM shape mix: (cores, memory GB per core, probability).
/// Small VMs dominate, as in the Azure trace.
const SHAPES: [(u32, f64, f64); 7] = [
    (1, 4.0, 0.38),
    (2, 4.0, 0.25),
    (4, 4.0, 0.18),
    (8, 4.0, 0.10),
    (16, 4.0, 0.05),
    (24, 5.33, 0.025),
    (32, 4.0, 0.015),
];

/// The shape a uniform `u` picks by the subtract-and-compare scan: the
/// first shape whose probability exceeds what is left of `u` after
/// subtracting the shapes before it, else the last. Each subtraction is
/// monotone in `u`, so the pick is too.
const fn scan_shape(mut u: f64) -> usize {
    let mut i = 0;
    while i + 1 < SHAPES.len() {
        if u < SHAPES[i].2 {
            return i;
        }
        u -= SHAPES[i].2;
        i += 1;
    }
    SHAPES.len() - 1
}

/// The spacing of the uniforms `Rng::gen::<f64>` draws: `m·2⁻⁵³`.
const UNIFORM_GRID: f64 = 1.0 / (1u64 << 53) as f64;

/// `SHAPE_EDGES[i]` is the least uniform on the `2⁻⁵³` grid that
/// [`scan_shape`] maps past shape `i`, found at compile time by
/// bisecting the scan over the grid. As the scan is monotone, it picks
/// for every uniform the number of edges the uniform reaches.
const SHAPE_EDGES: [f64; SHAPES.len() - 1] = {
    let mut edges = [1.0; SHAPES.len() - 1];
    let mut i = 0;
    while i < edges.len() {
        // The scan maps `lo` to at most `i` and `hi` (or the grid's end)
        // past it.
        let (mut lo, mut hi) = (0u64, 1u64 << 53);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if scan_shape(mid as f64 * UNIFORM_GRID) > i {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        edges[i] = hi as f64 * UNIFORM_GRID;
        i += 1;
    }
    edges
};

/// Workload generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Mean arrivals per 15-minute step.
    pub arrivals_per_step: f64,
    /// Fraction of requests that are [`VmKind::Degradable`].
    pub degradable_fraction: f64,
    /// Median lifetime in steps (log-normal location).
    pub median_lifetime_steps: f64,
    /// Log-normal shape parameter of the lifetime distribution.
    pub lifetime_sigma: f64,
    /// Hard cap on lifetimes, in steps.
    pub max_lifetime_steps: u32,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            arrivals_per_step: 120.0,
            degradable_fraction: 0.0,
            // Median 1 h; sigma 2.0 gives a mean of ~7.4× the median —
            // most VMs are short-lived, a heavy tail runs for days, as
            // in the published Azure trace statistics.
            median_lifetime_steps: 4.0,
            lifetime_sigma: 2.0,
            max_lifetime_steps: vb_trace::STEPS_PER_DAY as u32 * 14, // two weeks
        }
    }
}

/// A [`WorkloadConfig`] field holds a value no workload can be drawn
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadError {
    /// The field's name.
    pub field: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid WorkloadConfig::{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for WorkloadError {}

impl WorkloadConfig {
    /// Check every field a draw reads. Unchecked, each rejected value
    /// runs on a silent substitute: a NaN lifetime median or σ gives
    /// every VM a one-step lifetime, a non-finite arrival rate draws no
    /// arrivals, and a zero lifetime cap reads as one step.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let bad = |field, reason: String| Err(WorkloadError { field, reason });
        let rate = self.arrivals_per_step;
        if !(rate.is_finite() && rate >= 0.0) {
            return bad(
                "arrivals_per_step",
                format!("must be a finite, non-negative rate, not {rate}"),
            );
        }
        let fraction = self.degradable_fraction;
        if !(0.0..=1.0).contains(&fraction) {
            return bad(
                "degradable_fraction",
                format!("must be a fraction in [0, 1], not {fraction}"),
            );
        }
        let median = self.median_lifetime_steps;
        if !(median.is_finite() && median > 0.0) {
            return bad(
                "median_lifetime_steps",
                format!("must be a finite, positive step count, not {median}"),
            );
        }
        if !self.lifetime_sigma.is_finite() {
            return bad(
                "lifetime_sigma",
                format!("must be finite, not {}", self.lifetime_sigma),
            );
        }
        if self.max_lifetime_steps == 0 {
            return bad(
                "max_lifetime_steps",
                "the lifetime cap must be at least one step".into(),
            );
        }
        Ok(())
    }

    /// Expected cores per arrival under the shape mix.
    pub fn mean_cores(&self) -> f64 {
        SHAPES.iter().map(|&(c, _, p)| c as f64 * p).sum()
    }

    /// Expected lifetime (in steps) of the truncated log-normal.
    pub fn mean_lifetime_steps(&self) -> f64 {
        // E[lognormal] = median * exp(sigma^2 / 2); truncation shaves a
        // little off, which the calibration constructor absorbs.
        self.median_lifetime_steps * (self.lifetime_sigma * self.lifetime_sigma / 2.0).exp()
    }

    /// Derive the arrival rate that holds a cluster of `total_cores` at
    /// `target_util` utilization in steady state (Little's law:
    /// `rate × E[lifetime] × E[cores] = target cores`).
    pub fn for_cluster(total_cores: u32, target_util: f64) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::default();
        let target_cores = total_cores as f64 * target_util;
        cfg.arrivals_per_step = target_cores / (cfg.mean_lifetime_steps() * cfg.mean_cores());
        cfg
    }

    /// Builder: set the degradable fraction.
    pub fn with_degradable_fraction(mut self, f: f64) -> WorkloadConfig {
        self.degradable_fraction = f;
        self
    }
}

/// The shape [`scan_shape`] picks for `u`, without its branches: the
/// number of edges `u` reaches.
fn pick_shape(u: f64) -> usize {
    SHAPE_EDGES.iter().map(|&e| usize::from(u >= e)).sum()
}

/// A seeded stream of VM arrival batches.
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadConfig,
    rng: StdRng,
}

impl Workload {
    /// Create a generator from a config and seed.
    pub fn new(cfg: WorkloadConfig, seed: u64) -> Workload {
        Workload {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Draw the arrivals for one step.
    pub fn step(&mut self) -> Vec<VmRequest> {
        let n = poisson(&mut self.rng, self.cfg.arrivals_per_step);
        (0..n).map(|_| self.draw_request()).collect()
    }

    fn draw_request(&mut self) -> VmRequest {
        let (cores, mem_per_core) = self.draw_shape();
        let lifetime = self.draw_lifetime();
        let kind = if self.rng.gen::<f64>() < self.cfg.degradable_fraction {
            VmKind::Degradable
        } else {
            VmKind::Stable
        };
        VmRequest {
            cores,
            mem_gb: cores as f64 * mem_per_core,
            kind,
            lifetime_steps: lifetime,
        }
    }

    /// Draw the steady-state resident population of the M/G/∞ system
    /// this workload feeds: the VM count is Poisson with mean
    /// `rate × E[lifetime]`, lifetimes are *length-biased* (long-lived
    /// VMs are over-represented among residents), and each VM's
    /// remaining lifetime is uniform over its total lifetime.
    ///
    /// Used to pre-fill a cluster so a simulation starts at its
    /// steady-state utilization instead of waiting weeks of simulated
    /// warm-up for the heavy lifetime tail to accumulate.
    pub fn steady_state_population(&mut self) -> Vec<(VmRequest, u32)> {
        let mean_pop = self.cfg.arrivals_per_step * self.cfg.mean_lifetime_steps();
        let n = poisson(&mut self.rng, mean_pop);
        (0..n)
            .map(|_| {
                // Length-biased lifetime via rejection against the cap.
                let req = loop {
                    let r = self.draw_request();
                    let accept = r.lifetime_steps as f64 / self.cfg.max_lifetime_steps as f64;
                    if self.rng.gen::<f64>() < accept {
                        break r;
                    }
                };
                let residual = self.rng.gen_range(1..=req.lifetime_steps);
                (req, residual)
            })
            .collect()
    }

    fn draw_shape(&mut self) -> (u32, f64) {
        let (cores, mem, _) = SHAPES[pick_shape(self.rng.gen::<f64>())];
        (cores, mem)
    }

    fn draw_lifetime(&mut self) -> u32 {
        lognormal_steps(
            &mut self.rng,
            self.cfg.median_lifetime_steps,
            self.cfg.lifetime_sigma,
            self.cfg.max_lifetime_steps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_probabilities_sum_to_one() {
        let total: f64 = SHAPES.iter().map(|&(_, _, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    /// Each edge and the grid point below it pick the shape the scan
    /// picks, so the count agrees with the scan on both sides of every
    /// step; so do a million random uniforms.
    #[test]
    fn edge_count_picks_the_shape_the_scan_picks() {
        for (i, &edge) in SHAPE_EDGES.iter().enumerate() {
            let below = edge - UNIFORM_GRID;
            assert_eq!(scan_shape(below), i, "below edge {i}");
            assert_eq!(scan_shape(edge), i + 1, "edge {i} at {edge}");
            assert_eq!(pick_shape(below), i, "below edge {i}");
            assert_eq!(pick_shape(edge), i + 1, "edge {i} at {edge}");
        }
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_000_000 {
            let u = rng.gen::<f64>();
            assert_eq!(pick_shape(u), scan_shape(u), "u = {u}");
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = Workload::new(WorkloadConfig::default(), 1);
        let mut b = Workload::new(WorkloadConfig::default(), 1);
        for _ in 0..5 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn arrival_rate_matches_config() {
        let cfg = WorkloadConfig {
            arrivals_per_step: 50.0,
            ..WorkloadConfig::default()
        };
        let mut w = Workload::new(cfg, 2);
        let total: usize = (0..200).map(|_| w.step().len()).sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 50.0).abs() < 3.0, "mean arrivals {mean}");
    }

    #[test]
    fn shapes_are_from_the_mix_and_small_dominate() {
        let mut w = Workload::new(WorkloadConfig::default(), 3);
        let mut small = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            for r in w.step() {
                assert!(
                    SHAPES.iter().any(|&(c, _, _)| c == r.cores),
                    "core size {}",
                    r.cores
                );
                assert!(r.mem_gb > 0.0);
                assert!(r.lifetime_steps >= 1);
                if r.cores <= 4 {
                    small += 1;
                }
                total += 1;
            }
        }
        assert!(total > 100);
        assert!(
            small as f64 / total as f64 > 0.7,
            "small VMs should dominate: {small}/{total}"
        );
    }

    #[test]
    fn lifetimes_are_heavy_tailed() {
        let mut w = Workload::new(WorkloadConfig::default(), 4);
        let lifetimes: Vec<f64> = (0..200)
            .flat_map(|_| w.step())
            .map(|r| r.lifetime_steps as f64)
            .collect();
        let s = vb_stats::Summary::of(&lifetimes);
        assert!(s.mean > s.p50 * 1.5, "mean {} vs median {}", s.mean, s.p50);
        assert!(s.max <= WorkloadConfig::default().max_lifetime_steps as f64);
    }

    #[test]
    fn degradable_fraction_is_respected() {
        let cfg = WorkloadConfig::default().with_degradable_fraction(0.5);
        let mut w = Workload::new(cfg, 5);
        let reqs: Vec<VmRequest> = (0..100).flat_map(|_| w.step()).collect();
        let deg = reqs.iter().filter(|r| r.kind == VmKind::Degradable).count();
        let frac = deg as f64 / reqs.len() as f64;
        assert!((frac - 0.5).abs() < 0.08, "degradable fraction {frac}");
    }

    #[test]
    fn invalid_fields_are_typed_errors() {
        type Spoil = fn(&mut WorkloadConfig);
        let cases: [(&str, Spoil); 9] = [
            ("median_lifetime_steps", |c| {
                c.median_lifetime_steps = f64::NAN
            }),
            ("median_lifetime_steps", |c| c.median_lifetime_steps = 0.0),
            ("median_lifetime_steps", |c| {
                c.median_lifetime_steps = f64::INFINITY
            }),
            ("lifetime_sigma", |c| c.lifetime_sigma = f64::NAN),
            ("max_lifetime_steps", |c| c.max_lifetime_steps = 0),
            ("arrivals_per_step", |c| c.arrivals_per_step = f64::INFINITY),
            ("arrivals_per_step", |c| c.arrivals_per_step = -1.0),
            ("degradable_fraction", |c| c.degradable_fraction = 1.5),
            ("degradable_fraction", |c| c.degradable_fraction = f64::NAN),
        ];
        for (field, spoil) in cases {
            let mut cfg = WorkloadConfig::default();
            spoil(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.field, field, "{err}");
        }
        assert_eq!(WorkloadConfig::default().validate(), Ok(()));
        let edges = WorkloadConfig {
            arrivals_per_step: 0.0,
            degradable_fraction: 1.0,
            lifetime_sigma: 0.0,
            max_lifetime_steps: 1,
            ..WorkloadConfig::for_cluster(28_000, 0.7)
        };
        assert_eq!(edges.validate(), Ok(()));
    }

    #[test]
    fn for_cluster_hits_littles_law() {
        // rate * E[cores] * E[lifetime] ≈ target cores.
        let cfg = WorkloadConfig::for_cluster(28_000, 0.7);
        let implied = cfg.arrivals_per_step * cfg.mean_cores() * cfg.mean_lifetime_steps();
        assert!((implied - 19_600.0).abs() < 1.0, "implied cores {implied}");
    }
}
