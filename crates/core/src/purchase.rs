//! Grid-purchase optimization (§2.3).
//!
//! "Using these techniques in small scales, just enough to cope with
//! minor variability, can be a beneficial option economically. … by
//! purchasing an additional 4,000 MWhr energy from the grid, we can
//! stabilize 8,000 MWhr of variable energy and achieve a total
//! additional 12,000 MWhr of stable energy."
//!
//! The mechanics: stable energy in a window is `window-min × length`.
//! Buying grid power during the dips raises the window minimum; each
//! unit of purchased energy during the *worst gaps* can promote several
//! units of already-generated (but variable) energy to stable. The
//! optimizer below performs exact greedy water-filling: the marginal
//! cost of raising a window's floor is `(# samples below the floor)`,
//! so it always spends the next MWh where that count is smallest —
//! optimal because each window's cost curve is convex.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vb_stats::TimeSeries;

/// Result of a purchase optimization.
#[derive(Debug, Clone)]
pub struct PurchasePlan {
    /// Energy bought from the grid, MWh (≤ the budget).
    pub purchased_mwh: f64,
    /// New guaranteed floor per window, MW.
    pub floor_mw: Vec<f64>,
    /// Stable energy before the purchase, MWh.
    pub stable_before_mwh: f64,
    /// Stable energy after the purchase, MWh.
    pub stable_after_mwh: f64,
    /// Purchased power per sample, MW (aligned with the input trace).
    pub purchased_mw: Vec<f64>,
}

impl PurchasePlan {
    /// Total stable energy gained, MWh.
    pub fn stable_gain_mwh(&self) -> f64 {
        self.stable_after_mwh - self.stable_before_mwh
    }

    /// Variable energy promoted to stable (gain beyond what was bought):
    /// the paper's "stabilize 8 000 MWh of variable energy".
    pub fn stabilized_variable_mwh(&self) -> f64 {
        (self.stable_gain_mwh() - self.purchased_mwh).max(0.0)
    }

    /// Leverage: stable MWh gained per purchased MWh (≥1 whenever the
    /// purchase is spent on real gaps).
    pub fn leverage(&self) -> f64 {
        if self.purchased_mwh <= 0.0 {
            0.0
        } else {
            self.stable_gain_mwh() / self.purchased_mwh
        }
    }
}

/// One raisable segment of a window's cost curve.
#[derive(Debug, Clone, Copy)]
struct Segment {
    window: usize,
    /// Samples currently below the floor (the marginal cost in
    /// sample-intervals per MW of floor raise).
    deficit_count: usize,
    /// Floor can rise from here …
    from_mw: f64,
    /// … to here before the deficit count increases.
    to_mw: f64,
}

impl PartialEq for Segment {
    fn eq(&self, other: &Self) -> bool {
        self.deficit_count == other.deficit_count
    }
}
impl Eq for Segment {}
impl PartialOrd for Segment {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Segment {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on deficit count: cheapest marginal cost first.
        other.deficit_count.cmp(&self.deficit_count)
    }
}

/// Spend up to `budget_mwh` of grid energy on a power trace (MW) to
/// maximise stable energy over non-overlapping windows of
/// `window_samples`.
///
/// # Panics
/// Panics if `window_samples` is zero or the budget is negative.
pub fn optimize_purchase(
    power_mw: &TimeSeries,
    window_samples: usize,
    budget_mwh: f64,
) -> PurchasePlan {
    assert!(window_samples > 0, "window must be positive");
    assert!(budget_mwh >= 0.0, "budget must be non-negative");
    let interval_h = power_mw.interval_secs as f64 / 3_600.0;

    // Per window: sorted samples, current floor = min.
    let windows: Vec<Vec<f64>> = power_mw
        .values
        .chunks(window_samples)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_by(|a, b| a.total_cmp(b));
            v
        })
        .collect();
    let stable_before: f64 = windows
        .iter()
        .map(|w| w[0] * w.len() as f64 * interval_h)
        .sum();

    let mut floor: Vec<f64> = windows.iter().map(|w| w[0]).collect();
    let mut heap = BinaryHeap::new();
    for (i, w) in windows.iter().enumerate() {
        if let Some(mut seg) = next_segment(w, floor[i]) {
            seg.window = i;
            heap.push(seg);
        }
    }

    let mut remaining = budget_mwh;
    while remaining > 1e-12 {
        let Some(seg) = heap.pop() else {
            break;
        };
        // Cost of raising this window's floor across the segment.
        let full_raise = seg.to_mw - seg.from_mw;
        let cost_per_mw = seg.deficit_count as f64 * interval_h;
        if cost_per_mw <= 0.0 {
            continue;
        }
        let affordable = remaining / cost_per_mw;
        let raise = affordable.min(full_raise);
        floor[seg.window] = seg.from_mw + raise;
        remaining -= raise * cost_per_mw;
        if raise >= full_raise - 1e-12 {
            if let Some(mut next) = next_segment(&windows[seg.window], floor[seg.window]) {
                next.window = seg.window;
                heap.push(next);
            }
        }
    }

    // Materialise the purchase per sample and the final stable energy.
    let mut purchased_mw = vec![0.0; power_mw.len()];
    for (i, chunk) in power_mw.values.chunks(window_samples).enumerate() {
        for (k, &p) in chunk.iter().enumerate() {
            purchased_mw[i * window_samples + k] = (floor[i] - p).max(0.0);
        }
    }
    let purchased_mwh: f64 = purchased_mw.iter().sum::<f64>() * interval_h;
    let stable_after: f64 = windows
        .iter()
        .zip(&floor)
        .map(|(w, &f)| f * w.len() as f64 * interval_h)
        .sum();

    PurchasePlan {
        purchased_mwh,
        floor_mw: floor,
        stable_before_mwh: stable_before,
        stable_after_mwh: stable_after,
        purchased_mw,
    }
}

/// The next constant-cost segment of a window's (sorted) cost curve
/// above the current floor; `None` once the floor reaches the window
/// maximum (raising further would buy energy 1:1 with no leverage —
/// still allowed, but never profitable before every cheaper segment).
fn next_segment(sorted: &[f64], floor: f64) -> Option<Segment> {
    let deficit_count = sorted.partition_point(|&v| v <= floor);
    let next_level = sorted[deficit_count.min(sorted.len() - 1)];
    if deficit_count >= sorted.len() || next_level <= floor {
        return None;
    }
    Some(Segment {
        window: usize::MAX, // fixed up by the caller
        deficit_count,
        from_mw: floor,
        to_mw: next_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(3_600, vals.to_vec()) // 1-hour samples: MWh = MW
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let p = optimize_purchase(&ts(&[5.0, 1.0, 4.0, 2.0]), 4, 0.0);
        assert_eq!(p.purchased_mwh, 0.0);
        assert_eq!(p.stable_gain_mwh(), 0.0);
        assert_eq!(p.leverage(), 0.0);
    }

    #[test]
    fn filling_a_single_dip_has_high_leverage() {
        // One 0-MW sample in an otherwise 10-MW window: buying 10 MWh
        // raises the floor from 0 to 10, making all 4 samples stable.
        let p = optimize_purchase(&ts(&[10.0, 0.0, 10.0, 10.0]), 4, 10.0);
        assert!((p.purchased_mwh - 10.0).abs() < 1e-9);
        assert!((p.stable_after_mwh - 40.0).abs() < 1e-9);
        // Gain = 40 MWh stable from 10 MWh bought: leverage 4.
        assert!((p.leverage() - 4.0).abs() < 1e-9);
        assert!((p.stabilized_variable_mwh() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn partial_budget_fills_partially() {
        let p = optimize_purchase(&ts(&[10.0, 0.0, 10.0, 10.0]), 4, 4.0);
        assert!((p.purchased_mwh - 4.0).abs() < 1e-9);
        assert!((p.floor_mw[0] - 4.0).abs() < 1e-9);
        assert!((p.stable_after_mwh - 16.0).abs() < 1e-9);
    }

    #[test]
    fn spends_where_marginal_cost_is_lowest() {
        // Window A has one dip (cheap to fill); window B has three
        // (expensive). The first MWh must go to A.
        let p = optimize_purchase(
            &ts(&[9.0, 0.0, 9.0, 9.0, /* B: */ 9.0, 0.0, 0.0, 0.0]),
            4,
            3.0,
        );
        assert!(
            p.floor_mw[0] > p.floor_mw[1],
            "fills the cheap window first"
        );
        assert!((p.floor_mw[0] - 3.0).abs() < 1e-9);
        assert_eq!(p.floor_mw[1], 0.0);
    }

    #[test]
    fn equal_cost_windows_share_the_budget() {
        // Both windows have one dip each; greedy fills them alternately
        // (segment by segment), ending at equal floors.
        let p = optimize_purchase(&ts(&[5.0, 0.0, 5.0, 5.0, 5.0, 0.0, 5.0, 5.0]), 4, 10.0);
        assert!((p.floor_mw[0] - 5.0).abs() < 1e-9);
        assert!((p.floor_mw[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn purchase_never_exceeds_budget() {
        let trace = ts(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        for budget in [0.5, 2.0, 7.0, 100.0] {
            let p = optimize_purchase(&trace, 4, budget);
            assert!(p.purchased_mwh <= budget + 1e-9, "budget {budget}");
            assert!(p.stable_after_mwh >= p.stable_before_mwh - 1e-9);
        }
    }

    #[test]
    fn saturated_budget_caps_at_window_maxima() {
        // Unlimited budget: floors reach each window's max, and no
        // further (leverage beyond that is 1:1 — not modelled as a gap).
        let p = optimize_purchase(&ts(&[4.0, 2.0, 8.0, 6.0]), 2, 1e9);
        assert!((p.floor_mw[0] - 4.0).abs() < 1e-9);
        assert!((p.floor_mw[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn paper_leverage_regime_reproduced() {
        // §2.3's example gains 12 000 MWh of stable energy from a
        // 4 000 MWh purchase (leverage 3). On the NO+UK+PT combination,
        // a small budget should show leverage well above 1.
        let catalog = vb_trace::Catalog::europe(42);
        let g = crate::multivb::MultiVb::from_catalog(&catalog, &vb_trace::TRIO, 120, 3);
        let combined = g.combined();
        let total = combined.energy();
        let p = optimize_purchase(&combined, combined.len(), total * 0.15);
        assert!(p.leverage() > 1.5, "leverage {}", p.leverage());
    }
}
