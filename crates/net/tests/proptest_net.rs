//! Property tests for the site graph, clique enumeration and link model.

use proptest::prelude::*;
use vb_net::{k_cliques, SiteGraph, WanModel};
use vb_trace::Site;

/// A per-transfer FIFO link: each interval's burst joins the back of the
/// queue, and the link drains `capacity_gb` per interval from the front.
/// Returns the backlog after each interval and, for each interval that
/// offered a burst and saw it drain, how many intervals it waited.
fn fifo_reference(offered_gb: &[f64], capacity_gb: f64) -> (Vec<f64>, Vec<Option<u64>>) {
    // (remaining GB, interval enqueued)
    let mut queue: std::collections::VecDeque<(f64, usize)> = Default::default();
    let mut backlog = Vec::new();
    let mut delay = vec![None; offered_gb.len()];
    for (k, &gb) in offered_gb.iter().enumerate() {
        if gb > 0.0 {
            queue.push_back((gb, k));
        }
        let mut budget = capacity_gb;
        while budget > 1e-12 {
            let Some(front) = queue.front_mut() else {
                break;
            };
            let take = front.0.min(budget);
            front.0 -= take;
            budget -= take;
            if front.0 <= 1e-12 {
                delay[front.1] = Some((k - front.1) as u64);
                queue.pop_front();
            }
        }
        backlog.push(queue.iter().map(|t| t.0).sum());
    }
    (backlog, delay)
}

fn arb_sites(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Site>> {
    proptest::collection::vec((36.0..66.0f64, -10.0..26.0f64), n).prop_map(|coords| {
        coords
            .into_iter()
            .enumerate()
            .map(|(i, (lat, lon))| {
                if i % 2 == 0 {
                    Site::solar(&format!("s{i}"), lat, lon)
                } else {
                    Site::wind(&format!("w{i}"), lat, lon)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adjacency_is_symmetric_and_irreflexive(sites in arb_sites(2..12), thr in 5.0..60.0f64) {
        let g = SiteGraph::build(sites, thr);
        for i in 0..g.len() {
            prop_assert!(!g.is_edge(i, i));
            for j in 0..g.len() {
                prop_assert_eq!(g.is_edge(i, j), g.is_edge(j, i));
                if g.is_edge(i, j) {
                    prop_assert!(g.rtt_ms(i, j) < thr);
                }
            }
        }
    }

    #[test]
    fn every_k_clique_is_a_clique_and_unique(sites in arb_sites(3..12), k in 2usize..5) {
        let g = SiteGraph::build(sites, 40.0);
        let cliques = k_cliques(&g, k);
        let mut seen = std::collections::HashSet::new();
        for c in &cliques {
            prop_assert_eq!(c.len(), k);
            prop_assert!(g.is_clique(c));
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted");
            prop_assert!(seen.insert(c.clone()), "duplicate clique {c:?}");
        }
    }

    #[test]
    fn clique_counts_are_consistent_across_k(sites in arb_sites(4..10)) {
        // Every (k+1)-clique contains k+1 distinct k-cliques, so the
        // count can't jump from zero.
        let g = SiteGraph::build(sites, 40.0);
        for k in 2..4 {
            let small = k_cliques(&g, k).len();
            let big = k_cliques(&g, k + 1).len();
            if big > 0 {
                prop_assert!(small > 0, "a {}-clique implies {}-cliques", k + 1, k);
            }
        }
    }

    #[test]
    fn diameter_bounds_member_rtts(sites in arb_sites(3..10)) {
        let g = SiteGraph::build(sites, 45.0);
        for c in k_cliques(&g, 3) {
            let d = g.diameter_ms(&c);
            for (a, &i) in c.iter().enumerate() {
                for &j in &c[a + 1..] {
                    prop_assert!(g.rtt_ms(i, j) <= d + 1e-9);
                }
            }
            prop_assert!(d < 45.0);
        }
    }

    #[test]
    fn link_drains_everything_eventually(
        bursts in proptest::collection::vec(0.0..30_000.0f64, 1..30),
        gbps in 50.0..400.0f64,
    ) {
        // Idle long enough: the backlog must reach zero, and every burst
        // must have drained.
        let wan = WanModel { site_link_gbps: gbps, ..WanModel::default() };
        let total: f64 = bursts.iter().sum();
        let capacity_gb = gbps * 900.0 / 8.0;
        let intervals_needed = (total / capacity_gb).ceil() as usize + 1;
        let mut offered = bursts.clone();
        offered.resize(bursts.len() + intervals_needed, 0.0);
        let steps = wan.queue(&offered, 900.0);
        let last = steps[steps.len() - 1];
        prop_assert_eq!(last.backlog_gb, 0.0);
        for (gb, step) in offered.iter().zip(&steps) {
            prop_assert_eq!(step.delay_intervals.is_some(), *gb > 0.0);
        }
    }

    #[test]
    fn queue_matches_a_per_transfer_fifo(
        gbps in 1u32..800,
        interval in 60u32..3_600,
        // (kind, whole intervals, volume): kind 0 offers nothing, kind 1
        // a burst of exactly `whole` intervals' capacity, kind 2 `volume`.
        bursts in proptest::collection::vec((0u8..3, 1u32..4, 0.0..1.0f64), 1..60),
    ) {
        // Whole-number rates and intervals keep a whole-interval burst
        // exact in GB and in seconds, so both models see it end on the
        // interval boundary.
        let (gbps, interval) = (f64::from(gbps), f64::from(interval));
        let capacity_gb = gbps * interval / 8.0;
        let offered: Vec<f64> = bursts
            .iter()
            .map(|&(kind, whole, volume)| match kind {
                0 => 0.0,
                1 => f64::from(whole) * capacity_gb,
                _ => volume * 3.0 * capacity_gb,
            })
            .collect();
        let wan = WanModel { site_link_gbps: gbps, ..WanModel::default() };
        let steps = wan.queue(&offered, interval);
        let (backlog, delay) = fifo_reference(&offered, capacity_gb);
        prop_assert_eq!(steps.len(), offered.len());
        for (k, step) in steps.iter().enumerate() {
            prop_assert_eq!(step.delay_intervals, delay[k], "delay of burst {}", k);
            prop_assert!(
                (step.backlog_gb - backlog[k]).abs() <= 1e-6 * backlog[k].max(1.0),
                "backlog after {k}: {} vs {}", step.backlog_gb, backlog[k]
            );
        }
    }

    #[test]
    fn busy_fraction_stays_in_unit_interval(
        volumes in proptest::collection::vec(0.0..100_000.0f64, 0..40),
        interval in 1.0..3_600.0f64,
        gbps in 10.0..1_000.0f64,
    ) {
        let wan = WanModel { site_link_gbps: gbps, ..WanModel::default() };
        let frac = wan.busy_fraction(&volumes, interval);
        prop_assert!((0.0..=1.0).contains(&frac), "fraction {frac} out of [0,1]");
        prop_assert!(frac.is_finite());
    }

    #[test]
    fn busy_profile_conserves_drain_seconds(
        volumes in proptest::collection::vec(0.0..100_000.0f64, 1..40),
        interval in 1.0..3_600.0f64,
    ) {
        let wan = WanModel::default();
        let (busy, leftover) = wan.busy_profile(&volumes, interval);
        prop_assert_eq!(busy.len(), volumes.len());
        let total_drain: f64 = volumes.iter().map(|&gb| wan.drain_secs(gb)).sum();
        let accounted: f64 = busy.iter().sum::<f64>() + leftover;
        prop_assert!(
            (accounted - total_drain).abs() < 1e-6 * total_drain.max(1.0),
            "busy+leftover {accounted} != drain {total_drain}"
        );
        prop_assert!(leftover >= 0.0);
        for &b in &busy {
            prop_assert!((0.0..=interval + 1e-9).contains(&b));
        }
    }

    #[test]
    fn busy_fraction_never_below_old_clamped_estimate(
        volumes in proptest::collection::vec(0.0..100_000.0f64, 1..40),
        interval in 1.0..3_600.0f64,
    ) {
        // The carry-over fix can only *increase* the busy estimate: the
        // old per-interval clamp discarded excess drain work.
        let wan = WanModel::default();
        let clamped: f64 = volumes
            .iter()
            .map(|&gb| wan.drain_secs(gb).min(interval))
            .sum::<f64>()
            / (volumes.len() as f64 * interval);
        let carried = wan.busy_fraction(&volumes, interval);
        prop_assert!(carried >= clamped - 1e-12, "carried {carried} < clamped {clamped}");
    }
}
