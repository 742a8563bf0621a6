//! Multi-VB groups: aggregating complementary sites (§2.3, Figure 3).
//!
//! "Despite the variability in a single renewable site, across different
//! (nearby) locations, times of the day, and sources …, renewable
//! sources often exhibit uncorrelated and complementary patterns of
//! energy production and can reduce overall variability by 3.7×."

use crate::energy::{decompose, EnergyBreakdown};
use vb_stats::{coefficient_of_variation, TimeSeries};
use vb_trace::{Catalog, Site};

/// A group of VB sites analysed jointly.
#[derive(Debug, Clone)]
pub struct MultiVb {
    sites: Vec<Site>,
    /// Per-site generation, MW, aligned.
    traces: Vec<TimeSeries>,
}

/// One Figure 3b bar: a site combination with its energy split.
#[derive(Debug, Clone)]
pub struct ComboBreakdown {
    /// `+`-joined site names, e.g. `"NO+UK+PT"`.
    pub label: String,
    /// Stable/variable energy split of the combination.
    pub breakdown: EnergyBreakdown,
    /// Coefficient of variation of the combined power.
    pub cov: f64,
}

impl MultiVb {
    /// Build a group from catalog site names over a day window, with the
    /// catalog's traces (measured data where a site has it) drawn in one
    /// group call.
    ///
    /// # Panics
    /// Panics if `names` is empty or contains an unknown site, or if a
    /// site's measured data does not cover the window.
    pub fn from_catalog(catalog: &Catalog, names: &[&str], start_day: u32, days: u32) -> MultiVb {
        assert!(!names.is_empty(), "need at least one site");
        let indices: Vec<usize> = names
            .iter()
            .map(|n| {
                catalog
                    .index_of(n)
                    // vb-audit: allow(no-panic, documented `# Panics` contract of the by-name constructor)
                    .unwrap_or_else(|| panic!("unknown site {n}"))
            })
            .collect();
        let series = catalog
            .group_series(&indices, start_day, days, [])
            // vb-audit: allow(no-panic, documented `# Panics` contract of the by-name constructor)
            .unwrap_or_else(|e| panic!("{e}"));
        let (sites, traces) = indices
            .iter()
            .zip(series)
            .map(|(&i, s)| {
                let site = catalog.sites()[i].clone();
                let mw = s.actual.scale(site.capacity_mw);
                (site, mw)
            })
            .unzip();
        MultiVb { sites, traces }
    }

    /// Build directly from sites and their MW traces.
    ///
    /// # Panics
    /// Panics if lengths differ or the group is empty.
    pub fn new(sites: Vec<Site>, traces: Vec<TimeSeries>) -> MultiVb {
        assert_eq!(sites.len(), traces.len(), "one trace per site");
        assert!(!sites.is_empty(), "need at least one site");
        MultiVb { sites, traces }
    }

    /// The sites in the group.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Per-site MW traces.
    pub fn traces(&self) -> &[TimeSeries] {
        &self.traces
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the group is empty (unreachable via constructors).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Combined generation of the whole group, MW.
    pub fn combined(&self) -> TimeSeries {
        let refs: Vec<&TimeSeries> = self.traces.iter().collect();
        TimeSeries::sum_of(&refs)
    }

    /// Coefficient of variation of the combined generation.
    pub fn cov(&self) -> f64 {
        coefficient_of_variation(&self.combined().values)
    }

    /// cov of a single member site.
    pub fn site_cov(&self, i: usize) -> f64 {
        coefficient_of_variation(&self.traces[i].values)
    }

    /// Factor by which aggregation reduces variability relative to the
    /// best (lowest-cov) member — Figure 3a's "reduces cov by 3.7×" is
    /// this number for NO-solar + UK-wind.
    pub fn cov_improvement(&self) -> f64 {
        let best_single = (0..self.len())
            .map(|i| self.site_cov(i))
            .fold(f64::INFINITY, f64::min);
        let combined = self.cov();
        if combined <= 0.0 {
            f64::INFINITY
        } else {
            best_single / combined
        }
    }

    /// Stable/variable split of the combined generation.
    pub fn breakdown(&self, window_samples: usize) -> EnergyBreakdown {
        decompose(&self.combined(), window_samples)
    }

    /// Figure 3b: breakdowns of every non-empty subset of the group
    /// (2^n − 1 combinations; n is small).
    pub fn subset_breakdowns(&self, window_samples: usize) -> Vec<ComboBreakdown> {
        let n = self.len();
        let mut out = Vec::with_capacity((1 << n) - 1);
        for mask in 1u32..(1 << n) {
            let members: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let refs: Vec<&TimeSeries> = members.iter().map(|&i| &self.traces[i]).collect();
            let combined = TimeSeries::sum_of(&refs);
            let label = members
                .iter()
                .map(|&i| short_name(&self.sites[i].name))
                .collect::<Vec<_>>()
                .join("+");
            out.push(ComboBreakdown {
                label,
                breakdown: decompose(&combined, window_samples),
                cov: coefficient_of_variation(&combined.values),
            });
        }
        out
    }
}

/// "NO-solar" → "NO": the prefix labels of Figure 3.
fn short_name(name: &str) -> String {
    name.split('-').next().unwrap_or(name).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::WINDOW_3_DAYS;

    fn group() -> MultiVb {
        let catalog = Catalog::europe(42);
        MultiVb::from_catalog(&catalog, &vb_trace::TRIO, 120, 3)
    }

    #[test]
    fn combined_sums_member_traces() {
        let g = group();
        let combined = g.combined();
        for t in 0..combined.len() {
            let sum: f64 = g.traces().iter().map(|tr| tr.values[t]).sum();
            assert!((combined.values[t] - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregation_reduces_cov() {
        // The core §2.3 claim.
        let g = group();
        let combined_cov = g.cov();
        for i in 0..g.len() {
            assert!(
                combined_cov < g.site_cov(i),
                "combined {combined_cov} vs site {} {}",
                i,
                g.site_cov(i)
            );
        }
        assert!(g.cov_improvement() > 1.0);
    }

    #[test]
    fn aggregation_increases_stable_fraction() {
        // Fig 3b: combining sites turns variable energy into stable.
        let g = group();
        let solo = MultiVb::new(vec![g.sites()[0].clone()], vec![g.traces()[0].clone()]);
        let combined = g.breakdown(WINDOW_3_DAYS);
        let single = solo.breakdown(WINDOW_3_DAYS);
        assert!(
            combined.stable_fraction() > single.stable_fraction(),
            "combined {} vs single {}",
            combined.stable_fraction(),
            single.stable_fraction()
        );
    }

    #[test]
    fn subset_breakdowns_cover_all_combinations() {
        let g = group();
        let subsets = g.subset_breakdowns(WINDOW_3_DAYS);
        assert_eq!(subsets.len(), 7, "2^3 − 1 combinations");
        let labels: Vec<&str> = subsets.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"NO"));
        assert!(labels.contains(&"NO+UK+PT"));
        // Energy is conserved within each subset.
        for c in &subsets {
            assert!(c.breakdown.total_mwh() > 0.0);
            assert!(c.breakdown.stable_mwh >= 0.0);
        }
    }

    #[test]
    fn short_names_strip_source_suffix() {
        assert_eq!(short_name("NO-solar"), "NO");
        assert_eq!(short_name("UK-wind"), "UK");
        assert_eq!(short_name("plain"), "plain");
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn unknown_site_panics() {
        let catalog = Catalog::europe(1);
        MultiVb::from_catalog(&catalog, &["nowhere"], 0, 1);
    }
}
