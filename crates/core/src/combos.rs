//! The §2.3 combination search.
//!
//! "We searched for complimentary groups of sites, all in close
//! proximity of each other (<50 ms ping latency), over 3 day intervals …
//! even when combining just two sites, > 52 % of possible 2-site
//! combinations improved cov by > 50 %."
//!
//! The catalog's traces come from one group synthesis, which draws the
//! weather the sites share once; that synthesis is nearly all of the
//! sweep's cost. The per-pair cov computations then run on the calling
//! thread, in pair order: each takes under a microsecond, too little to
//! pay for a fan-out (the determinism tests in `vb-bench` still compare
//! the sweep across thread counts).

use vb_stats::{coefficient_of_variation, TimeSeries};
use vb_trace::Catalog;

/// cov improvement of one site pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairImprovement {
    /// First site name.
    pub a: String,
    /// Second site name.
    pub b: String,
    /// cov of the better (lower-cov) member alone.
    pub best_single_cov: f64,
    /// cov of the worse (higher-cov) member alone.
    pub worst_single_cov: f64,
    /// cov of the combined generation.
    pub combined_cov: f64,
    /// `worst_single_cov / combined_cov`: how much steadier the
    /// combination is than the member it rescues. Figure 3a quotes this
    /// convention — "the solar pattern in Norway when complemented with
    /// just one additional wind site (UK wind) reduces cov by 3.7×" is
    /// measured against the solar site.
    pub improvement: f64,
    /// Worst pairwise RTT, ms.
    pub rtt_ms: f64,
}

/// Aggregate statistics of a pair sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ComboStats {
    /// Pairs examined (within the latency threshold).
    pub pairs: usize,
    /// Fraction of pairs whose cov improved by more than 50 %
    /// (improvement factor > 2), the paper's headline statistic.
    pub improved_50pct_fraction: f64,
    /// Fraction of pairs with any improvement at all.
    pub improved_fraction: f64,
    /// Median improvement factor.
    pub median_improvement: f64,
    /// The best pair found.
    pub best: Option<PairImprovement>,
}

/// Sweep all site pairs within `latency_threshold_ms`, measuring cov
/// improvement over `days` days starting at `start_day` (the paper uses
/// 3-day intervals and a 50 ms threshold).
///
/// # Panics
/// Panics if a site's measured data does not cover the window.
pub fn search_pairs(
    catalog: &Catalog,
    start_day: u32,
    days: u32,
    latency_threshold_ms: f64,
) -> (Vec<PairImprovement>, ComboStats) {
    let sites = catalog.sites();
    let n = sites.len();

    // One group call: the sites share most of their weather draws.
    let traces: Vec<TimeSeries> = catalog
        .traces(start_day, days)
        .iter()
        .zip(sites)
        .map(|(t, s)| t.scale(s.capacity_mw))
        .collect();
    let covs: Vec<f64> = traces
        .iter()
        .map(|t| coefficient_of_variation(&t.values))
        .collect();

    // Enumerate the in-range pairs, then score each (combined series +
    // cov per pair). One thread: a score takes under a microsecond, so
    // the Europe catalog's 300 pairs took longer fanned out over two
    // workers than on one.
    let mut in_range = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let rtt = sites[i].rtt_ms(&sites[j]);
            if rtt < latency_threshold_ms {
                in_range.push((i, j, rtt));
            }
        }
    }
    let score = |(i, j, rtt): (usize, usize, f64)| {
        let combined = traces[i].add(&traces[j]);
        let combined_cov = coefficient_of_variation(&combined.values);
        let best_single = covs[i].min(covs[j]);
        let worst_single = covs[i].max(covs[j]);
        PairImprovement {
            a: sites[i].name.clone(),
            b: sites[j].name.clone(),
            best_single_cov: best_single,
            worst_single_cov: worst_single,
            combined_cov,
            improvement: if combined_cov > 0.0 {
                worst_single / combined_cov
            } else {
                f64::INFINITY
            },
            rtt_ms: rtt,
        }
    };
    let pairs: Vec<PairImprovement> = in_range.into_iter().map(score).collect();

    let stats = summarize(&pairs);
    (pairs, stats)
}

fn summarize(pairs: &[PairImprovement]) -> ComboStats {
    if pairs.is_empty() {
        return ComboStats {
            pairs: 0,
            improved_50pct_fraction: 0.0,
            improved_fraction: 0.0,
            median_improvement: 0.0,
            best: None,
        };
    }
    // "Improved cov by > 50%" = combined cov is less than half the best
    // single cov, i.e. improvement factor > 2.
    let improved_50 = pairs.iter().filter(|p| p.improvement > 2.0).count();
    let improved = pairs.iter().filter(|p| p.improvement > 1.0).count();
    let mut improvements: Vec<f64> = pairs.iter().map(|p| p.improvement).collect();
    improvements.sort_by(|a, b| a.total_cmp(b));
    let best = pairs
        .iter()
        .max_by(|a, b| a.improvement.total_cmp(&b.improvement))
        .cloned();
    ComboStats {
        pairs: pairs.len(),
        improved_50pct_fraction: improved_50 as f64 / pairs.len() as f64,
        improved_fraction: improved as f64 / pairs.len() as f64,
        median_improvement: vb_stats::percentile(&improvements, 50.0),
        best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_in_range_pairs() {
        let catalog = Catalog::europe(42);
        let (pairs, stats) = search_pairs(&catalog, 120, 3, 50.0);
        // 25 sites -> at most C(25,2) = 300 pairs; the latency threshold
        // removes some.
        assert!(stats.pairs == pairs.len());
        assert!(stats.pairs > 100, "Europe is mostly within 50 ms");
        assert!(stats.pairs <= 300);
        for p in &pairs {
            assert!(p.rtt_ms < 50.0);
            assert!(p.improvement > 0.0);
        }
    }

    #[test]
    fn majority_of_pairs_improve() {
        // §2.3: complementary patterns are the rule, not the exception.
        let catalog = Catalog::europe(42);
        let (_, stats) = search_pairs(&catalog, 120, 3, 50.0);
        assert!(
            stats.improved_fraction > 0.8,
            "improved fraction {}",
            stats.improved_fraction
        );
        assert!(stats.median_improvement > 1.0);
        assert!(stats.best.is_some());
    }

    #[test]
    fn paper_headline_band_for_50pct_improvement() {
        // ">52% of possible 2-site combinations improved cov by >50%".
        // Synthetic catalog: accept a generous band around it.
        let catalog = Catalog::europe(42);
        let (_, stats) = search_pairs(&catalog, 120, 3, 50.0);
        assert!(
            (0.30..0.95).contains(&stats.improved_50pct_fraction),
            "50%-improvement fraction {}",
            stats.improved_50pct_fraction
        );
    }

    #[test]
    fn empty_catalog_yields_empty_stats() {
        let catalog = Catalog::new(1);
        let (pairs, stats) = search_pairs(&catalog, 0, 1, 50.0);
        assert!(pairs.is_empty());
        assert_eq!(stats.pairs, 0);
        assert!(stats.best.is_none());
    }

    #[test]
    fn sweep_is_identical_across_thread_counts() {
        let catalog = Catalog::europe(42);
        let (base, base_stats) = vb_par::with_threads(1, || search_pairs(&catalog, 120, 3, 50.0));
        let (par, par_stats) = vb_par::with_threads(4, || search_pairs(&catalog, 120, 3, 50.0));
        assert_eq!(base, par);
        assert_eq!(base_stats, par_stats);
    }
}
