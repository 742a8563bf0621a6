//! The latency-thresholded VB site graph (Fig 6's input graph).

use vb_trace::Site;

/// The paper's multi-VB proximity threshold: 50 ms RTT.
pub const DEFAULT_LATENCY_THRESHOLD_MS: f64 = 50.0;

/// An undirected graph over VB sites with edges between pairs whose RTT
/// is below a threshold.
#[derive(Debug, Clone)]
pub struct SiteGraph {
    sites: Vec<Site>,
    /// Dense symmetric adjacency, `adj[i][j] == true` iff edge (i, j).
    adj: Vec<Vec<bool>>,
    /// Pairwise RTT matrix in ms.
    rtt: Vec<Vec<f64>>,
    threshold_ms: f64,
}

impl SiteGraph {
    /// Build the graph from sites using the geographic latency model and
    /// the given RTT threshold in milliseconds.
    pub fn build(sites: Vec<Site>, threshold_ms: f64) -> SiteGraph {
        let n = sites.len();
        let mut adj = vec![vec![false; n]; n];
        let mut rtt = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let ms = sites[i].rtt_ms(&sites[j]);
                rtt[i][j] = ms;
                rtt[j][i] = ms;
                let edge = ms < threshold_ms;
                adj[i][j] = edge;
                adj[j][i] = edge;
            }
        }
        SiteGraph {
            sites,
            adj,
            rtt,
            threshold_ms,
        }
    }

    /// Build with the paper's 50 ms threshold.
    pub fn with_default_threshold(sites: Vec<Site>) -> SiteGraph {
        SiteGraph::build(sites, DEFAULT_LATENCY_THRESHOLD_MS)
    }

    /// Number of sites (nodes).
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The sites, indexed by node id.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The site at a node.
    pub fn site(&self, i: usize) -> &Site {
        &self.sites[i]
    }

    /// The RTT threshold used to build the graph.
    pub fn threshold_ms(&self) -> f64 {
        self.threshold_ms
    }

    /// Is there an edge between nodes `i` and `j`?
    pub fn is_edge(&self, i: usize, j: usize) -> bool {
        self.adj[i][j]
    }

    /// RTT between two nodes in milliseconds.
    pub fn rtt_ms(&self, i: usize, j: usize) -> f64 {
        self.rtt[i][j]
    }

    /// Do the given nodes form a clique (pairwise connected)?
    pub fn is_clique(&self, nodes: &[usize]) -> bool {
        for (a, &i) in nodes.iter().enumerate() {
            for &j in &nodes[a + 1..] {
                if !self.adj[i][j] {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum RTT between any pair in a node set — the latency an
    /// application split across those sites would experience.
    pub fn diameter_ms(&self, nodes: &[usize]) -> f64 {
        let mut worst: f64 = 0.0;
        for (a, &i) in nodes.iter().enumerate() {
            for &j in &nodes[a + 1..] {
                worst = worst.max(self.rtt[i][j]);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_outlier() -> SiteGraph {
        // Three nearby sites and one across the continent.
        let sites = vec![
            Site::wind("a", 50.0, 4.0),
            Site::solar("b", 50.5, 4.5),
            Site::wind("c", 51.0, 3.5),
            Site::solar("far", 38.0, 24.0), // Greece: ~2 300 km away
        ];
        SiteGraph::build(sites, 20.0)
    }

    #[test]
    fn edges_respect_the_threshold() {
        let g = triangle_plus_outlier();
        assert!(g.is_edge(0, 1));
        assert!(g.is_edge(1, 2));
        assert!(g.is_edge(0, 2));
        assert!(!g.is_edge(0, 3), "the outlier exceeds the threshold");
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let g = triangle_plus_outlier();
        for i in 0..g.len() {
            assert!(!g.is_edge(i, i));
            for j in 0..g.len() {
                assert_eq!(g.is_edge(i, j), g.is_edge(j, i));
            }
        }
    }

    #[test]
    fn is_clique_checks_every_pair() {
        let g = triangle_plus_outlier();
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_clique(&[2]), "singletons are trivially cliques");
        assert!(g.is_clique(&[]), "the empty set is trivially a clique");
    }

    #[test]
    fn diameter_is_the_worst_pairwise_rtt() {
        let g = triangle_plus_outlier();
        let d = g.diameter_ms(&[0, 1, 2]);
        assert!(d > 0.0 && d < 20.0);
        assert!(g.diameter_ms(&[0, 3]) > d);
        assert_eq!(g.diameter_ms(&[1]), 0.0);
    }

    #[test]
    fn default_threshold_is_50ms() {
        let g = SiteGraph::with_default_threshold(vec![
            Site::wind("a", 50.0, 4.0),
            Site::wind("b", 52.0, 0.0),
        ]);
        assert_eq!(g.threshold_ms(), 50.0);
        assert!(g.is_edge(0, 1), "London–Brussels scale is well under 50 ms");
    }
}
