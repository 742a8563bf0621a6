//! Physical (chemical) battery baseline.
//!
//! The paper's opening argument (§1) is that the classical alternatives
//! to the Virtual Battery fall short: "penetration of grid-scale Li-ion
//! and other chemical batteries are minuscule in scale, e.g., in the US
//! battery capacity is ≈0.4 % of the overall solar and wind capacity".
//! This module implements that baseline so the claim can be *measured*:
//! a [`Battery`] smooths a generation trace subject to capacity, power
//! and round-trip-efficiency limits, and
//! [`required_capacity_for_stable_fraction`] computes how many MWh of
//! storage a single site would need to reach the stable-energy share
//! that multi-VB aggregation delivers for free.

use crate::energy::{decompose, EnergyBreakdown};
use vb_stats::TimeSeries;

/// A grid-scale battery co-located with one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Usable energy capacity, MWh.
    pub capacity_mwh: f64,
    /// Maximum charge/discharge power, MW.
    pub max_power_mw: f64,
    /// Round-trip efficiency in (0, 1] (applied on discharge).
    pub round_trip_efficiency: f64,
}

impl Battery {
    /// A Li-ion-like battery: 4-hour duration, 90 % round-trip.
    pub fn li_ion(capacity_mwh: f64) -> Battery {
        Battery {
            capacity_mwh,
            max_power_mw: capacity_mwh / 4.0,
            round_trip_efficiency: 0.90,
        }
    }
}

/// Result of smoothing a trace through a battery.
#[derive(Debug, Clone)]
pub struct SmoothedOutput {
    /// Power delivered to the data center, MW per sample.
    pub delivered: TimeSeries,
    /// Battery state of charge after each sample, MWh.
    pub soc_mwh: Vec<f64>,
    /// Energy lost to round-trip inefficiency, MWh.
    pub losses_mwh: f64,
}

impl Battery {
    /// Operate the battery against a generation trace, targeting the
    /// trace's mean as the delivery level: charge surplus, discharge
    /// deficit, within power/capacity/efficiency limits. Starts half
    /// charged.
    pub fn smooth(&self, generation_mw: &TimeSeries) -> SmoothedOutput {
        let hours = generation_mw.interval_secs as f64 / 3_600.0;
        let target = vb_stats::mean(&generation_mw.values);
        let mut soc = self.capacity_mwh / 2.0;
        let mut delivered = Vec::with_capacity(generation_mw.len());
        let mut soc_series = Vec::with_capacity(generation_mw.len());
        let mut losses = 0.0;

        for &gen in &generation_mw.values {
            if gen >= target {
                // Charge the surplus, limited by power and headroom.
                let surplus = gen - target;
                let charge_mw = surplus
                    .min(self.max_power_mw)
                    .min((self.capacity_mwh - soc) / hours);
                soc += charge_mw * hours;
                delivered.push(gen - charge_mw);
            } else {
                // Discharge toward the target; efficiency is paid here.
                let deficit = target - gen;
                let discharge_mw = deficit
                    .min(self.max_power_mw)
                    .min(soc * self.round_trip_efficiency / hours);
                let drawn_mwh = discharge_mw * hours / self.round_trip_efficiency;
                soc -= drawn_mwh;
                losses += drawn_mwh - discharge_mw * hours;
                delivered.push(gen + discharge_mw);
            }
            soc_series.push(soc);
        }
        SmoothedOutput {
            delivered: TimeSeries {
                start_secs: generation_mw.start_secs,
                interval_secs: generation_mw.interval_secs,
                values: delivered,
            },
            soc_mwh: soc_series,
            losses_mwh: losses,
        }
    }

    /// The §2.3 stable/variable split of the battery-smoothed output.
    pub fn smoothed_breakdown(
        &self,
        generation_mw: &TimeSeries,
        window_samples: usize,
    ) -> EnergyBreakdown {
        decompose(&self.smooth(generation_mw).delivered, window_samples)
    }
}

/// Smallest Li-ion battery (binary search on capacity, MWh) that lifts a
/// site's stable-energy share to `target_fraction` of its total energy.
/// Returns `None` when even a huge battery (10× the trace's total
/// energy) cannot reach the target.
pub fn required_capacity_for_stable_fraction(
    generation_mw: &TimeSeries,
    window_samples: usize,
    target_fraction: f64,
) -> Option<f64> {
    let total = generation_mw.energy();
    if total <= 0.0 {
        return None;
    }
    let reaches = |capacity: f64| {
        let b = Battery::li_ion(capacity);
        // Compare against the *generated* total: losses mean delivered
        // totals shrink, but the target is a share of the site's energy.
        b.smoothed_breakdown(generation_mw, window_samples)
            .stable_mwh
            / total
            >= target_fraction
    };
    let mut hi = total * 10.0;
    if !reaches(hi) {
        return None;
    }
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(3_600, vals.to_vec()) // hourly: MW == MWh
    }

    #[test]
    fn constant_generation_needs_no_battery_action() {
        let b = Battery::li_ion(100.0);
        let out = b.smooth(&ts(&[50.0; 8]));
        assert_eq!(out.delivered.values, vec![50.0; 8]);
        assert_eq!(out.losses_mwh, 0.0);
    }

    #[test]
    fn battery_flattens_an_alternating_trace() {
        let b = Battery::li_ion(1_000.0);
        let raw = ts(&[100.0, 0.0, 100.0, 0.0, 100.0, 0.0]);
        let out = b.smooth(&raw);
        let raw_cov = vb_stats::coefficient_of_variation(&raw.values);
        let smooth_cov = vb_stats::coefficient_of_variation(&out.delivered.values);
        assert!(smooth_cov < raw_cov * 0.5, "{smooth_cov} vs {raw_cov}");
    }

    #[test]
    fn efficiency_losses_accrue_on_discharge() {
        let b = Battery {
            capacity_mwh: 100.0,
            max_power_mw: 100.0,
            round_trip_efficiency: 0.5,
        };
        let out = b.smooth(&ts(&[100.0, 0.0])); // target 50: charge 50, discharge 50
        assert!(out.losses_mwh > 0.0);
        // Delivering 50 MWh at 50% efficiency draws 100 MWh — but only
        // 50 were stored (start half-charged = 50). Energy conservation:
        let delivered: f64 = out.delivered.values.iter().sum();
        let generated: f64 = 100.0;
        let soc_delta = out.soc_mwh.last().unwrap() - 50.0;
        assert!(
            (generated - delivered - soc_delta - out.losses_mwh).abs() < 1e-9,
            "conservation"
        );
    }

    #[test]
    fn soc_respects_capacity_bounds() {
        let b = Battery::li_ion(10.0);
        let out = b.smooth(&ts(&[100.0, 100.0, 0.0, 0.0, 100.0, 0.0]));
        for &soc in &out.soc_mwh {
            assert!((-1e-9..=10.0 + 1e-9).contains(&soc), "soc {soc}");
        }
    }

    #[test]
    fn power_limit_caps_the_smoothing() {
        let weak = Battery {
            capacity_mwh: 1_000.0,
            max_power_mw: 5.0,
            round_trip_efficiency: 1.0,
        };
        let out = weak.smooth(&ts(&[100.0, 0.0, 100.0, 0.0]));
        // Can only move 5 MW toward the 50 MW target.
        assert_eq!(out.delivered.values[0], 95.0);
        assert_eq!(out.delivered.values[1], 5.0);
    }

    #[test]
    fn bigger_batteries_give_more_stable_energy() {
        let raw = ts(&[80.0, 10.0, 90.0, 5.0, 70.0, 20.0, 85.0, 10.0]);
        let small = Battery::li_ion(10.0).smoothed_breakdown(&raw, 8);
        let big = Battery::li_ion(200.0).smoothed_breakdown(&raw, 8);
        assert!(big.stable_mwh > small.stable_mwh);
    }

    #[test]
    fn required_capacity_search_is_monotone_and_achievable() {
        let raw = ts(&[80.0, 10.0, 90.0, 5.0, 70.0, 20.0, 85.0, 10.0]);
        let base = decompose(&raw, 8).stable_fraction();
        let c1 = required_capacity_for_stable_fraction(&raw, 8, base + 0.1)
            .expect("modest target achievable");
        let c2 = required_capacity_for_stable_fraction(&raw, 8, base + 0.3)
            .expect("higher target achievable");
        assert!(c2 > c1, "higher targets need bigger batteries");
        // The found capacity actually achieves the target.
        let achieved = Battery::li_ion(c2).smoothed_breakdown(&raw, 8).stable_mwh / raw.energy();
        assert!(achieved >= base + 0.3 - 1e-6);
    }

    #[test]
    fn impossible_targets_return_none() {
        assert!(required_capacity_for_stable_fraction(&ts(&[0.0, 0.0]), 2, 0.5).is_none());
    }
}
