//! The four-step scheduling pipeline of Figure 6.
//!
//! 1. **Subgraph identification** — enumerate the k-cliques of the 50 ms
//!    site graph and rank them by the coefficient of variation of their
//!    combined generation (steadiest first). Delegates to `vb-net`.
//! 2. **Subgraph selection** — keep a short candidate list; the
//!    experiments operate on the top-ranked clique (the paper likewise
//!    evaluates one multi-VB group).
//! 3. **Site selection** — per-application assignment inside the chosen
//!    subgraph, done by a [`crate::policy::Policy`] (greedy or MIP).
//! 4. **VM placement** — packing VMs onto servers within a site;
//!    "any state-of-the-art approach can be used for this step" — the
//!    workspace uses `vb-cluster`'s Protean-style best-fit.

use vb_net::{k_cliques, rank_cliques_by_cov, CliqueScore, SiteGraph};
use vb_stats::TimeSeries;
use vb_trace::Catalog;

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Clique size (paper: k = 2 to 5).
    pub k: usize,
    /// RTT threshold for graph edges, ms (paper: 50).
    pub latency_threshold_ms: f64,
    /// How many candidate subgraphs to keep after ranking.
    pub candidates: usize,
    /// Day-of-year the ranking window starts at.
    pub start_day: u32,
    /// Length of the ranking window in days (the paper ranks over 3-day
    /// intervals).
    pub window_days: u32,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            k: 3,
            latency_threshold_ms: 50.0,
            candidates: 10,
            start_day: 120,
            window_days: 3,
        }
    }
}

/// Step 1 + 2: enumerate k-cliques of the latency graph and return the
/// `candidates` steadiest ones (lowest combined cov first), ranked on
/// the catalog's traces: measured data where a site has it.
///
/// # Panics
/// Panics if a site's measured data does not cover the ranking window.
pub fn identify_subgraphs(catalog: &Catalog, cfg: &PipelineConfig) -> Vec<CliqueScore> {
    let graph = SiteGraph::build(catalog.sites().to_vec(), cfg.latency_threshold_ms);
    let cliques = k_cliques(&graph, cfg.k);
    let traces: Vec<TimeSeries> = catalog
        .traces(cfg.start_day, cfg.window_days)
        .iter()
        .zip(catalog.sites())
        .map(|(t, s)| t.scale(s.capacity_mw))
        .collect();
    let mut ranked = rank_cliques_by_cov(&graph, &cliques, &traces);
    ranked.truncate(cfg.candidates);
    ranked
}

/// Convenience: the names of the sites in the top-ranked k-clique — the
/// multi-VB group the experiments run on.
///
/// # Panics
/// Panics if the graph has no k-clique at all, or if a site's measured
/// data does not cover the ranking window.
pub fn select_group(catalog: &Catalog, cfg: &PipelineConfig) -> Vec<String> {
    let ranked = identify_subgraphs(catalog, cfg);
    // vb-audit: allow(no-panic, documented `# Panics` contract of this convenience API)
    let best = ranked.first().expect("no k-clique in the site graph");
    best.nodes
        .iter()
        .map(|&i| catalog.sites()[i].name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifies_and_ranks_candidates() {
        let catalog = Catalog::europe(42);
        let cfg = PipelineConfig {
            candidates: 5,
            ..PipelineConfig::default()
        };
        let ranked = identify_subgraphs(&catalog, &cfg);
        assert_eq!(ranked.len(), 5);
        // Ascending cov, all within the latency threshold.
        for w in ranked.windows(2) {
            assert!(w[0].cov <= w[1].cov + 1e-12);
        }
        for c in &ranked {
            assert_eq!(c.nodes.len(), 3);
            assert!(c.diameter_ms < 50.0);
        }
    }

    #[test]
    fn top_group_is_steadier_than_typical_singles() {
        let catalog = Catalog::europe(42);
        let cfg = PipelineConfig::default();
        let ranked = identify_subgraphs(&catalog, &cfg);
        let best = &ranked[0];
        // The best 3-clique's combined cov must beat the median single
        // site's cov (that's the whole point of aggregation).
        let singles: Vec<f64> = catalog
            .sites()
            .iter()
            .map(|s| {
                let t = vb_trace::generate_in(s, cfg.start_day, cfg.window_days, catalog.field());
                vb_stats::coefficient_of_variation(&t.values)
            })
            .collect();
        let median_single = vb_stats::percentile(&singles, 50.0);
        assert!(
            best.cov < median_single,
            "best clique cov {} vs median single {}",
            best.cov,
            median_single
        );
    }

    #[test]
    fn measured_constant_clique_ranks_first() {
        // Three Europe sites carry measured constant output: their
        // combined cov is zero, so they must be the top clique. Ranking
        // on synthetic weather instead would bury them.
        let europe = Catalog::europe(42);
        let cfg = PipelineConfig::default();
        let flat = ["BE-wind", "NL-wind", "DE-solar"];
        let mut catalog = Catalog::new(42);
        for site in europe.sites() {
            if flat.contains(&site.name.as_str()) {
                let values = vec![0.4; cfg.window_days as usize * vb_trace::STEPS_PER_DAY];
                let start = cfg.start_day as u64 * 86_400;
                let data = TimeSeries::with_start(start, vb_trace::INTERVAL_15M, values);
                catalog.push_measured(site.clone(), data);
            } else {
                catalog.push(site.clone());
            }
        }
        let best = &identify_subgraphs(&catalog, &cfg)[0];
        let names: Vec<&str> = best
            .nodes
            .iter()
            .map(|&i| catalog.sites()[i].name.as_str())
            .collect();
        assert_eq!(names, flat);
        assert_eq!(best.cov, 0.0);
    }

    #[test]
    fn select_group_returns_k_site_names() {
        let catalog = Catalog::europe(42);
        let names = select_group(&catalog, &PipelineConfig::default());
        assert_eq!(names.len(), 3);
        for n in &names {
            assert!(catalog.get(n).is_some());
        }
    }

    #[test]
    fn larger_k_gives_steadier_or_equal_best_groups() {
        // More sites to average over cannot hurt the best cov much; in
        // practice k=4's best is steadier than k=2's best.
        let catalog = Catalog::europe(42);
        let cov_for = |k: usize| {
            let cfg = PipelineConfig {
                k,
                ..PipelineConfig::default()
            };
            identify_subgraphs(&catalog, &cfg)[0].cov
        };
        assert!(cov_for(4) <= cov_for(2) + 0.05);
    }
}
