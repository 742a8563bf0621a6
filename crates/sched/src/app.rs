//! Applications: the scheduling unit of §3.1.
//!
//! "For each application, with a number of requested VMs, the scheduler
//! needs to find a group of VB sites …". An application here is an
//! atomic bundle of identical VMs (stable or degradable) with a
//! lifetime; the co-scheduler assigns whole applications to sites, and
//! the group runtime migrates them between sites when power forces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vb_cluster::VmKind;
use vb_stats::sample::{poisson, standard_normal};

/// An application request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Number of identical VMs.
    pub n_vms: u32,
    /// Cores per VM.
    pub cores_per_vm: u32,
    /// Memory per VM, GB (also its per-VM migration cost).
    pub mem_per_vm_gb: f64,
    /// Stable (must stay available → migrates) or degradable
    /// (hibernates in place).
    pub kind: VmKind,
    /// Lifetime in 15-minute steps.
    pub lifetime_steps: u32,
}

impl AppSpec {
    /// Total cores requested.
    pub fn cores(&self) -> u32 {
        self.n_vms * self.cores_per_vm
    }

    /// Total memory (= migration volume when the app moves), GB.
    pub fn mem_gb(&self) -> f64 {
        self.n_vms as f64 * self.mem_per_vm_gb
    }

    /// Memory per core — the conversion the MIP uses to express core
    /// displacement in GB of migration traffic.
    pub fn gb_per_core(&self) -> f64 {
        self.mem_gb() / self.cores() as f64
    }
}

/// Application arrival generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppGenConfig {
    /// Mean app arrivals per 15-minute step.
    pub arrivals_per_step: f64,
    /// Minimum VMs per app (inclusive).
    pub vms_min: u32,
    /// Maximum VMs per app (inclusive).
    pub vms_max: u32,
    /// Cores per VM.
    pub cores_per_vm: u32,
    /// Memory per VM, GB.
    pub mem_per_vm_gb: f64,
    /// Fraction of apps that are degradable.
    pub degradable_fraction: f64,
    /// Median lifetime in steps (log-normal).
    pub median_lifetime_steps: f64,
    /// Log-normal sigma of the lifetime.
    pub lifetime_sigma: f64,
    /// Lifetime cap, steps.
    pub max_lifetime_steps: u32,
}

impl Default for AppGenConfig {
    fn default() -> AppGenConfig {
        AppGenConfig {
            arrivals_per_step: 0.6,
            vms_min: 5,
            vms_max: 50,
            cores_per_vm: 4,
            mem_per_vm_gb: 16.0,
            // §2.3's mix: most capacity should be stable (high-value),
            // with enough degradable apps to absorb power dips.
            degradable_fraction: 0.3,
            // Median 1.5 days; apps are much longer-lived than single
            // VMs — they are services, not tasks.
            median_lifetime_steps: 144.0,
            lifetime_sigma: 0.8,
            max_lifetime_steps: vb_trace::STEPS_PER_DAY as u32 * 14,
        }
    }
}

impl AppGenConfig {
    /// Expected cores per arrival.
    pub fn mean_cores(&self) -> f64 {
        (self.vms_min + self.vms_max) as f64 / 2.0 * self.cores_per_vm as f64
    }

    /// Expected lifetime in steps.
    pub fn mean_lifetime_steps(&self) -> f64 {
        self.median_lifetime_steps * (self.lifetime_sigma * self.lifetime_sigma / 2.0).exp()
    }

    /// Size the arrival rate so steady-state demand occupies
    /// `target_cores` cores (Little's law).
    pub fn sized_for(target_cores: f64) -> AppGenConfig {
        let mut cfg = AppGenConfig::default();
        cfg.arrivals_per_step = target_cores / (cfg.mean_lifetime_steps() * cfg.mean_cores());
        cfg
    }
}

/// Seeded stream of application arrivals.
#[derive(Debug, Clone)]
pub struct AppGen {
    cfg: AppGenConfig,
    rng: StdRng,
}

impl AppGen {
    /// Create a generator.
    pub fn new(cfg: AppGenConfig, seed: u64) -> AppGen {
        AppGen {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AppGenConfig {
        &self.cfg
    }

    /// Draw the arrivals for one 15-minute step.
    pub fn step(&mut self) -> Vec<AppSpec> {
        let n = poisson(&mut self.rng, self.cfg.arrivals_per_step);
        (0..n).map(|_| self.draw()).collect()
    }

    fn draw(&mut self) -> AppSpec {
        let n_vms = self.rng.gen_range(self.cfg.vms_min..=self.cfg.vms_max);
        let kind = if self.rng.gen::<f64>() < self.cfg.degradable_fraction {
            VmKind::Degradable
        } else {
            VmKind::Stable
        };
        let z = standard_normal(&mut self.rng);
        let lifetime = (self.cfg.median_lifetime_steps * (self.cfg.lifetime_sigma * z).exp())
            .round()
            .clamp(1.0, self.cfg.max_lifetime_steps as f64) as u32;
        AppSpec {
            n_vms,
            cores_per_vm: self.cfg.cores_per_vm,
            mem_per_vm_gb: self.cfg.mem_per_vm_gb,
            kind,
            lifetime_steps: lifetime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_aggregates() {
        let a = AppSpec {
            n_vms: 10,
            cores_per_vm: 4,
            mem_per_vm_gb: 16.0,
            kind: VmKind::Stable,
            lifetime_steps: 100,
        };
        assert_eq!(a.cores(), 40);
        assert_eq!(a.mem_gb(), 160.0);
        assert_eq!(a.gb_per_core(), 4.0);
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = AppGen::new(AppGenConfig::default(), 5);
        let mut b = AppGen::new(AppGenConfig::default(), 5);
        for _ in 0..20 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn draws_respect_config_ranges() {
        let cfg = AppGenConfig::default();
        let mut g = AppGen::new(cfg.clone(), 6);
        let apps: Vec<AppSpec> = (0..500).flat_map(|_| g.step()).collect();
        assert!(!apps.is_empty());
        for a in &apps {
            assert!((cfg.vms_min..=cfg.vms_max).contains(&a.n_vms));
            assert!(a.lifetime_steps >= 1 && a.lifetime_steps <= cfg.max_lifetime_steps);
        }
        let deg = apps.iter().filter(|a| a.kind == VmKind::Degradable).count();
        let frac = deg as f64 / apps.len() as f64;
        assert!(
            (frac - cfg.degradable_fraction).abs() < 0.1,
            "degradable {frac}"
        );
    }

    #[test]
    fn sized_for_matches_littles_law() {
        let cfg = AppGenConfig::sized_for(10_000.0);
        let implied = cfg.arrivals_per_step * cfg.mean_cores() * cfg.mean_lifetime_steps();
        assert!((implied - 10_000.0).abs() < 1.0);
    }
}
