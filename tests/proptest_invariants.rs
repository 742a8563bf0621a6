//! Property-based invariants spanning the workspace's core data
//! structures: time-series algebra, energy decomposition, the purchase
//! optimizer, CDFs, and the WAN site-link queue.

use proptest::prelude::*;
use virtual_battery::vb_core::{decompose, optimize_purchase};
use virtual_battery::vb_net::WanModel;
use virtual_battery::vb_stats::{Cdf, Summary, TimeSeries};

fn power_series() -> impl Strategy<Value = TimeSeries> {
    proptest::collection::vec(0.0..500.0f64, 4..96).prop_map(|v| TimeSeries::new(900, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- TimeSeries algebra ---

    #[test]
    fn energy_is_linear_in_scaling(ts in power_series(), k in 0.0..10.0f64) {
        let direct = ts.scale(k).energy();
        prop_assert!((direct - ts.energy() * k).abs() < 1e-6 * (1.0 + direct.abs()));
    }

    #[test]
    fn downsample_preserves_energy_for_divisible_lengths(ts in power_series()) {
        let n = ts.len() - ts.len() % 4;
        let trimmed = ts.slice(0, n);
        if n > 0 {
            let coarse = trimmed.downsample(4);
            prop_assert!((coarse.energy() - trimmed.energy()).abs() < 1e-6);
        }
    }

    #[test]
    fn upsample_then_downsample_is_identity(ts in power_series(), f in 1usize..5) {
        // Interval must be divisible by the factor for upsample.
        let ts = TimeSeries::new(900 * f as u64, ts.values);
        let round = ts.upsample(f).downsample(f);
        for (a, b) in ts.values.iter().zip(&round.values) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn window_min_is_a_lower_envelope(ts in power_series(), w in 1usize..20) {
        let mins = ts.window_min(w);
        for (i, &v) in ts.values.iter().enumerate() {
            let win = i / w;
            prop_assert!(mins.values[win] <= v + 1e-12);
        }
    }

    // --- Energy decomposition ---

    #[test]
    fn decomposition_conserves_energy(ts in power_series(), w in 1usize..30) {
        let b = decompose(&ts, w);
        prop_assert!((b.total_mwh() - ts.energy()).abs() < 1e-6);
        prop_assert!(b.stable_mwh >= -1e-12);
        prop_assert!(b.variable_mwh >= -1e-12);
        let f = b.stable_fraction() + b.variable_fraction();
        prop_assert!(f < 1.0 + 1e-9);
    }

    #[test]
    fn finer_windows_never_lose_stable_energy(ts in power_series()) {
        let coarse = decompose(&ts, ts.len().max(1)).stable_mwh;
        let fine = decompose(&ts, 2).stable_mwh;
        prop_assert!(fine >= coarse - 1e-9);
    }

    // --- Purchase optimizer ---

    #[test]
    fn purchase_respects_budget_and_improves_stable(
        ts in power_series(),
        budget in 0.0..2_000.0f64,
        w in 2usize..30,
    ) {
        let plan = optimize_purchase(&ts, w, budget);
        prop_assert!(plan.purchased_mwh <= budget + 1e-6);
        prop_assert!(plan.stable_after_mwh >= plan.stable_before_mwh - 1e-9);
        // The reported floors must dominate the window minima.
        let mins = ts.window_min(w);
        for (f, m) in plan.floor_mw.iter().zip(&mins.values) {
            prop_assert!(*f >= *m - 1e-9);
        }
        // Purchase per sample is exactly floor deficit.
        for (i, &p) in plan.purchased_mw.iter().enumerate() {
            prop_assert!(p >= -1e-12);
            let win = i / w;
            let expect = (plan.floor_mw[win] - ts.values[i]).max(0.0);
            prop_assert!((p - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn purchase_leverage_is_at_least_one_when_buying(ts in power_series(), w in 2usize..20) {
        let plan = optimize_purchase(&ts, w, 500.0);
        if plan.purchased_mwh > 1e-9 {
            // Raising the floor by delta gains at least window_len × delta
            // of stable energy while costing at most that much purchase.
            prop_assert!(plan.leverage() >= 1.0 - 1e-9, "leverage {}", plan.leverage());
        }
    }

    // --- CDFs and summaries ---

    #[test]
    fn cdf_quantiles_are_monotone_and_bracketed(
        values in proptest::collection::vec(0.0..100.0f64, 1..200),
    ) {
        let cdf = Cdf::of(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let x = cdf.quantile(q);
            prop_assert!(x >= prev - 1e-12, "quantiles must be monotone");
            prop_assert!((min - 1e-12..=max + 1e-12).contains(&x));
            prev = x;
        }
        // The extremes are exact, and everything is at or below the max.
        prop_assert!((cdf.quantile(0.0) - min).abs() < 1e-12);
        prop_assert!((cdf.quantile(1.0) - max).abs() < 1e-12);
        prop_assert!((cdf.eval(max) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_orderings_hold(values in proptest::collection::vec(-50.0..50.0f64, 2..200)) {
        let s = Summary::of(&values);
        prop_assert!(s.min <= s.p25 + 1e-12);
        prop_assert!(s.p25 <= s.p50 + 1e-12);
        prop_assert!(s.p50 <= s.p75 + 1e-12);
        prop_assert!(s.p75 <= s.p99 + 1e-12);
        prop_assert!(s.p99 <= s.max + 1e-12);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
    }

    // --- Site link ---

    #[test]
    fn link_conserves_volume_and_respects_capacity(
        offered in proptest::collection::vec(0.0..50_000.0f64, 1..100),
        gbps in 1.0..500.0f64,
    ) {
        let wan = WanModel { site_link_gbps: gbps, ..WanModel::default() };
        let steps = wan.queue(&offered, 900.0);
        let (busy, _leftover) = wan.busy_profile(&offered, 900.0);
        let capacity_gb = gbps * 900.0 / 8.0;
        let mut before = 0.0;
        let mut drained = 0.0;
        for ((&gb, &secs), step) in offered.iter().zip(&busy).zip(&steps) {
            let drained_gb = secs * gbps / 8.0;
            prop_assert!((0.0..=capacity_gb + 1e-9).contains(&drained_gb));
            prop_assert!(step.backlog_gb >= 0.0);
            prop_assert!((before + gb - drained_gb - step.backlog_gb).abs() < 1e-3);
            before = step.backlog_gb;
            drained += drained_gb;
        }
        let total: f64 = offered.iter().sum();
        prop_assert!((drained + before - total).abs() < 1e-3);
    }
}

// --- Pinned regression cases ---
//
// These inputs were shrunk counterexamples recorded in
// `proptest_invariants.proptest-regressions` by upstream proptest. The
// offline proptest stand-in does not read that file, so the cases are
// pinned explicitly here.

#[test]
fn regression_cdf_quantiles_with_leading_zeros() {
    // Majority-zero sample: quantile interpolation must stay monotone
    // and bracketed when most of the mass sits at the minimum.
    let values = [0.0, 0.0, 0.0, 0.0, 74.85499421882521, 74.26177988174805];
    let cdf = Cdf::of(&values);
    let mut prev = f64::NEG_INFINITY;
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let x = cdf.quantile(q);
        assert!(x >= prev - 1e-12, "quantiles must be monotone");
        assert!((-1e-12..=74.85499421882521 + 1e-12).contains(&x));
        prev = x;
    }
    assert!((cdf.quantile(0.0) - 0.0).abs() < 1e-12);
    assert!((cdf.quantile(1.0) - 74.85499421882521).abs() < 1e-12);
    assert!((cdf.eval(74.85499421882521) - 1.0).abs() < 1e-12);
}

#[test]
fn regression_window_larger_than_series() {
    // Window length exceeding the series length: the single partial
    // window must still lower-bound every sample, and decomposition must
    // still conserve energy.
    let ts = TimeSeries::new(
        900,
        vec![
            95.21315253770746,
            120.98829288615414,
            230.79385986162924,
            244.94192233598193,
        ],
    );
    let w = 8;
    let mins = ts.window_min(w);
    for (i, &v) in ts.values.iter().enumerate() {
        assert!(mins.values[i / w] <= v + 1e-12);
    }
    let b = decompose(&ts, w);
    assert!((b.total_mwh() - ts.energy()).abs() < 1e-6);
    assert!(b.stable_mwh >= -1e-12);
    assert!(b.variable_mwh >= -1e-12);
}
