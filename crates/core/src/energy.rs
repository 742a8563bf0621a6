//! Stable vs variable energy (§2.3).
//!
//! "We quantify the amount of stable energy generated over a time window
//! as: the minimum power level in the window multiplied by the size of a
//! window. Since this energy is guaranteed to be available in that time
//! window, it can reliably be used for stable VMs, and all remaining
//! energy (called as variable energy) for degradable VMs."

use vb_stats::TimeSeries;

/// The §2.3 energy split over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Guaranteed (window-min) energy, MWh.
    pub stable_mwh: f64,
    /// Everything above the window minimum, MWh.
    pub variable_mwh: f64,
}

impl EnergyBreakdown {
    /// Total energy, MWh.
    pub fn total_mwh(&self) -> f64 {
        self.stable_mwh + self.variable_mwh
    }

    /// Share of energy that is stable, in [0, 1].
    pub fn stable_fraction(&self) -> f64 {
        let total = self.total_mwh();
        if total <= 0.0 {
            0.0
        } else {
            self.stable_mwh / total
        }
    }

    /// Share of energy that is variable, in [0, 1] — the percentages
    /// printed above the bars of Figure 3b.
    pub fn variable_fraction(&self) -> f64 {
        let total = self.total_mwh();
        if total <= 0.0 {
            0.0
        } else {
            self.variable_mwh / total
        }
    }
}

/// Decompose a power trace (MW) into stable and variable energy using
/// non-overlapping windows of `window_samples`.
///
/// # Panics
/// Panics if `window_samples` is zero.
pub fn decompose(power_mw: &TimeSeries, window_samples: usize) -> EnergyBreakdown {
    assert!(window_samples > 0, "window must be positive");
    let total = power_mw.energy();
    // Computed per chunk (not via `window_min(..).energy()`) so a
    // trailing partial window is weighted by its actual length.
    let hours = power_mw.interval_secs as f64 / 3_600.0;
    let stable: f64 = power_mw
        .values
        .chunks(window_samples)
        .map(|c| {
            let min = c.iter().copied().fold(f64::INFINITY, f64::min);
            min * c.len() as f64 * hours
        })
        .sum();
    EnergyBreakdown {
        stable_mwh: stable,
        variable_mwh: (total - stable).max(0.0),
    }
}

/// The paper's window: it evaluates stable energy over 3-day intervals
/// at 15-minute samples.
pub const WINDOW_3_DAYS: usize = 3 * vb_trace::STEPS_PER_DAY;

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(900, vals.to_vec())
    }

    #[test]
    fn constant_power_is_fully_stable() {
        let b = decompose(&ts(&[100.0; 8]), 4);
        assert!((b.stable_mwh - 200.0).abs() < 1e-9, "8 × 15min × 100MW");
        assert_eq!(b.variable_mwh, 0.0);
        assert_eq!(b.stable_fraction(), 1.0);
    }

    #[test]
    fn zero_touching_windows_have_no_stable_energy() {
        // Solar-like: any window touching night (0 MW) guarantees nothing.
        let b = decompose(&ts(&[0.0, 100.0, 200.0, 0.0]), 4);
        assert_eq!(b.stable_mwh, 0.0);
        assert!((b.variable_mwh - 75.0).abs() < 1e-9);
        assert_eq!(b.variable_fraction(), 1.0);
    }

    #[test]
    fn split_is_window_min_times_window() {
        // Window of 2: minima are [50, 100] -> stable = (50+100)*0.5h?
        // Each window covers 2×15min = 0.5 h.
        let b = decompose(&ts(&[50.0, 150.0, 100.0, 300.0]), 2);
        assert!((b.stable_mwh - (50.0 + 100.0) * 0.5).abs() < 1e-9);
        let total = (50.0 + 150.0 + 100.0 + 300.0) * 0.25;
        assert!((b.total_mwh() - total).abs() < 1e-9);
    }

    #[test]
    fn smaller_windows_never_reduce_stable_energy() {
        let series = ts(&[10.0, 80.0, 40.0, 60.0, 5.0, 90.0, 70.0, 30.0]);
        let coarse = decompose(&series, 8).stable_mwh;
        let fine = decompose(&series, 2).stable_mwh;
        assert!(fine >= coarse - 1e-12, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn fractions_handle_zero_total() {
        let b = decompose(&ts(&[0.0, 0.0]), 2);
        assert_eq!(b.stable_fraction(), 0.0);
        assert_eq!(b.variable_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        decompose(&ts(&[1.0]), 0);
    }
}
