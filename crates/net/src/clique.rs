//! Subgraph identification (Fig 6, step 1).
//!
//! "First, we find all cliques (fully connected sub-graphs) of a given
//! size k (k = 2 to 5). … Then, for each k, we sort all subgraphs based
//! on the total coefficient of variability."
//!
//! Exact enumeration is fine at fleet scale: the paper's graphs have
//! tens of nodes (ELIA has 25 sites), and enumeration only extends
//! cliques through ascending node ids, so each clique is produced once.

use crate::graph::SiteGraph;
use vb_stats::{coefficient_of_variation, TimeSeries};

/// Enumerate all cliques of exactly `k` nodes, each sorted ascending.
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_cliques(graph: &SiteGraph, k: usize) -> Vec<Vec<usize>> {
    assert!(k > 0, "k must be positive");
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    extend_cliques(graph, k, 0, &mut current, &mut out);
    out
}

fn extend_cliques(
    graph: &SiteGraph,
    k: usize,
    from: usize,
    current: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if current.len() == k {
        out.push(current.clone());
        return;
    }
    // Prune: not enough nodes left to finish the clique.
    let needed = k - current.len();
    if graph.len() < needed || from > graph.len() - needed {
        return;
    }
    for v in from..graph.len() {
        if current.iter().all(|&u| graph.is_edge(u, v)) {
            current.push(v);
            extend_cliques(graph, k, v + 1, current, out);
            current.pop();
        }
    }
}

/// A clique scored for scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct CliqueScore {
    /// Node ids, ascending.
    pub nodes: Vec<usize>,
    /// Coefficient of variation of the clique's *combined* power (lower
    /// is better: steadier aggregate energy).
    pub cov: f64,
    /// Worst pairwise RTT inside the clique, in ms.
    pub diameter_ms: f64,
}

/// Score and sort cliques by the cov of their combined generation
/// (ascending — steadiest groups first), tie-broken by diameter.
///
/// `traces[i]` must be the generation series of graph node `i` in
/// *absolute* power units (MW), so that combining sites with different
/// capacities weighs them correctly.
///
/// # Panics
/// Panics if `traces.len() != graph.len()` or the traces are misaligned.
pub fn rank_cliques_by_cov(
    graph: &SiteGraph,
    cliques: &[Vec<usize>],
    traces: &[TimeSeries],
) -> Vec<CliqueScore> {
    assert_eq!(graph.len(), traces.len(), "one trace per node");
    // Per-clique scoring (combined series + cov) fans out over cores.
    // The final sort is a stable total order on the deterministic
    // per-index scores, so the ranking is identical at any thread count.
    let mut scored: Vec<CliqueScore> = vb_par::par_map(cliques, |nodes| {
        let refs: Vec<&TimeSeries> = nodes.iter().map(|&i| &traces[i]).collect();
        let combined = TimeSeries::sum_of(&refs);
        CliqueScore {
            nodes: nodes.clone(),
            cov: coefficient_of_variation(&combined.values),
            diameter_ms: graph.diameter_ms(nodes),
        }
    });
    scored.sort_by(|a, b| {
        a.cov
            .total_cmp(&b.cov)
            .then(a.diameter_ms.total_cmp(&b.diameter_ms))
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_trace::Site;

    /// 4 nearby sites (complete graph) plus one outlier connected to
    /// nothing.
    fn dense_graph() -> SiteGraph {
        let sites = vec![
            Site::wind("a", 50.0, 4.0),
            Site::solar("b", 50.4, 4.4),
            Site::wind("c", 50.8, 3.8),
            Site::solar("d", 50.2, 3.4),
            Site::solar("far", 38.0, 24.0),
        ];
        SiteGraph::build(sites, 20.0)
    }

    #[test]
    fn counts_match_binomials_on_the_complete_part() {
        let g = dense_graph();
        // The 4 nearby sites are fully connected: C(4,k) cliques.
        assert_eq!(k_cliques(&g, 2).len(), 6);
        assert_eq!(k_cliques(&g, 3).len(), 4);
        assert_eq!(k_cliques(&g, 4).len(), 1);
        assert_eq!(k_cliques(&g, 5).len(), 0, "outlier breaks the 5-clique");
    }

    #[test]
    fn k1_cliques_are_the_nodes() {
        let g = dense_graph();
        assert_eq!(k_cliques(&g, 1).len(), g.len());
    }

    #[test]
    fn every_enumerated_clique_is_a_clique() {
        let g = dense_graph();
        for k in 2..=4 {
            for c in k_cliques(&g, k) {
                assert!(g.is_clique(&c), "{c:?} is not a clique");
                assert_eq!(c.len(), k);
                assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            }
        }
    }

    #[test]
    fn ranking_prefers_complementary_pairs() {
        let g = dense_graph();
        // Hand-built traces: node 0 and node 1 perfectly complementary
        // (sum constant), node 2 correlated with node 0.
        let mk = |vals: &[f64]| TimeSeries::new(900, vals.to_vec());
        let traces = vec![
            mk(&[1.0, 0.0, 1.0, 0.0]),
            mk(&[0.0, 1.0, 0.0, 1.0]),
            mk(&[1.0, 0.0, 1.0, 0.0]),
            mk(&[0.5, 0.5, 0.5, 0.5]),
            mk(&[0.2, 0.9, 0.1, 0.8]),
        ];
        let pairs = k_cliques(&g, 2);
        let ranked = rank_cliques_by_cov(&g, &pairs, &traces);
        // Best pair must have cov 0: {0,1} (sum constant 1.0) — or
        // {3, anything constant}? node 3 alone is constant but its pairs
        // with 0/1/2 vary; {0,1} is the unique zero-cov pair.
        assert_eq!(ranked[0].nodes, vec![0, 1]);
        assert!(ranked[0].cov < 1e-12);
        // cov must be non-decreasing down the ranking.
        for w in ranked.windows(2) {
            assert!(w[0].cov <= w[1].cov + 1e-12);
        }
    }

    #[test]
    fn ranking_reports_diameters() {
        let g = dense_graph();
        let traces: Vec<TimeSeries> = (0..5)
            .map(|i| TimeSeries::new(900, vec![i as f64 + 1.0; 4]))
            .collect();
        let ranked = rank_cliques_by_cov(&g, &k_cliques(&g, 2), &traces);
        for s in &ranked {
            assert!(s.diameter_ms > 0.0);
            assert!(s.diameter_ms < 20.0, "edges respect the threshold");
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn k0_panics() {
        k_cliques(&dense_graph(), 0);
    }
}
