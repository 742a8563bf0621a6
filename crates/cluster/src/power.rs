//! Server power model and energy accounting.
//!
//! §4 of the paper points at the mechanisms a VB site uses to track its
//! power budget — "frequency scaling, powering down cores/caches/memory
//! units" (RAPL-style capping) — and §5 argues the migration energy VB
//! adds is "negligible compared to up to 50 % energy loss in power
//! transmission". This module quantifies both: it maps the cluster
//! simulator's per-step core counts to watts, integrates energy over a
//! run, and reports how much of the farm's energy the site actually used
//! versus left unharvested.

use crate::cluster::StepStats;

/// A linear server power model (idle/active per core + base).
///
/// Defaults approximate a dual-socket 40-core server: ~150 W platform
/// base (fans, disks, NIC), ~2.5 W per powered-but-idle core, and ~7.5 W
/// of additional draw per busy core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Platform base draw per server with any core powered, W.
    pub server_base_w: f64,
    /// Draw per powered core (idle), W.
    pub idle_w_per_core: f64,
    /// Additional draw per allocated (busy) core, W.
    pub active_w_per_core: f64,
    /// Cores per server (for apportioning the base draw).
    pub cores_per_server: u32,
}

impl Default for PowerModel {
    fn default() -> PowerModel {
        PowerModel {
            server_base_w: 150.0,
            idle_w_per_core: 2.5,
            active_w_per_core: 7.5,
            cores_per_server: 40,
        }
    }
}

impl PowerModel {
    /// Site draw in MW for a given number of powered and busy cores.
    /// Powered-down cores (and fully dark servers) draw nothing — the
    /// §3 "power down unallocated cores" mechanism.
    pub fn draw_mw(&self, powered_cores: u32, busy_cores: u32) -> f64 {
        let busy = busy_cores.min(powered_cores);
        // Base draw scales with the number of servers that have any core
        // powered; approximate by ceiling division.
        let servers_on = powered_cores.div_ceil(self.cores_per_server.max(1));
        let watts = servers_on as f64 * self.server_base_w
            + powered_cores as f64 * self.idle_w_per_core
            + busy as f64 * self.active_w_per_core;
        watts / 1e6
    }

    /// Full-cluster draw at nameplate (everything powered and busy), MW.
    pub fn max_draw_mw(&self, total_cores: u32) -> f64 {
        self.draw_mw(total_cores, total_cores)
    }
}

/// Energy accounting over one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Energy the site's power budget made available, MWh.
    pub available_mwh: f64,
    /// Energy actually drawn by powered/busy cores, MWh.
    pub used_mwh: f64,
    /// Energy available but not drawn (unharvested renewable), MWh.
    pub unused_mwh: f64,
    /// used / available, in [0, 1].
    pub utilization: f64,
}

/// Integrate a run's energy picture. The site's available power per step
/// is `power_frac × max_draw`; the drawn power follows the allocated
/// cores (busy) and budgeted cores (powered).
pub fn energy_report(
    model: &PowerModel,
    steps: &[StepStats],
    total_cores: u32,
    interval_secs: f64,
) -> EnergyReport {
    let hours = interval_secs / 3_600.0;
    let max_draw = model.max_draw_mw(total_cores);
    let mut available = 0.0;
    let mut used = 0.0;
    for s in steps {
        available += s.power_frac.clamp(0.0, 1.0) * max_draw * hours;
        // Powered cores = what the budget allows, but never more than
        // needed: idle unallocated cores are powered down immediately.
        let powered = s.allocated_cores.min(s.budget_cores);
        used += model.draw_mw(powered, s.allocated_cores) * hours;
    }
    EnergyReport {
        available_mwh: available,
        used_mwh: used,
        unused_mwh: (available - used).max(0.0),
        utilization: if available > 0.0 {
            (used / available).min(1.0)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_monotone_in_cores() {
        let m = PowerModel::default();
        assert_eq!(m.draw_mw(0, 0), 0.0, "dark site draws nothing");
        let idle = m.draw_mw(1_000, 0);
        let half = m.draw_mw(1_000, 500);
        let busy = m.draw_mw(1_000, 1_000);
        assert!(idle < half && half < busy);
    }

    #[test]
    fn busy_cores_never_exceed_powered() {
        let m = PowerModel::default();
        assert_eq!(m.draw_mw(100, 1_000), m.draw_mw(100, 100));
    }

    #[test]
    fn paper_scale_site_draws_single_digit_mw() {
        // 700 servers × 40 cores at full blast: representative of the
        // small edge DCs the paper pairs with 400 MW farms.
        let m = PowerModel::default();
        let mw = m.max_draw_mw(28_000);
        assert!((0.1..10.0).contains(&mw), "draw {mw} MW");
    }

    #[test]
    fn energy_report_balances() {
        let m = PowerModel::default();
        let steps = vec![
            StepStats {
                power_frac: 1.0,
                budget_cores: 28_000,
                allocated_cores: 14_000,
                ..StepStats::default()
            },
            StepStats {
                power_frac: 0.5,
                budget_cores: 14_000,
                allocated_cores: 14_000,
                ..StepStats::default()
            },
        ];
        let r = energy_report(&m, &steps, 28_000, 900.0);
        assert!(r.available_mwh > 0.0);
        assert!(r.used_mwh > 0.0);
        assert!((r.available_mwh - r.used_mwh - r.unused_mwh).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&r.utilization));
    }

    #[test]
    fn zero_power_run_reports_zero_utilization() {
        let m = PowerModel::default();
        let steps = vec![StepStats::default()];
        let r = energy_report(&m, &steps, 28_000, 900.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.used_mwh, 0.0);
    }
}
