//! A single Virtual Battery: renewable farm + co-located edge data
//! center (Figure 1's proposed architecture).
//!
//! The `VirtualBattery` couples a [`vb_trace::Site`] with its generation
//! trace and the §2.3 energy analysis, providing the one-site view that
//! multi-VB groups and the co-scheduler build upon.

use crate::energy::{decompose, EnergyBreakdown};
use vb_stats::{coefficient_of_variation, Summary, TimeSeries};
use vb_trace::{forecast_for, Catalog, Horizon, Site};

/// One renewable farm with its co-located data center.
#[derive(Debug, Clone)]
pub struct VirtualBattery {
    site: Site,
    /// Normalized generation (fraction of nameplate capacity).
    normalized: TimeSeries,
}

impl VirtualBattery {
    /// Build a VB for a catalog site over a day window.
    ///
    /// # Panics
    /// Panics if the site is unknown.
    pub fn from_catalog(
        catalog: &Catalog,
        name: &str,
        start_day: u32,
        days: u32,
    ) -> VirtualBattery {
        let site = catalog
            .get(name)
            // vb-audit: allow(no-panic, documented `# Panics` contract of the by-name constructor)
            .unwrap_or_else(|| panic!("unknown site {name}"))
            .clone();
        let normalized = catalog.trace(name, start_day, days);
        VirtualBattery { site, normalized }
    }

    /// Build from an explicit site and normalized trace.
    pub fn new(site: Site, normalized: TimeSeries) -> VirtualBattery {
        VirtualBattery { site, normalized }
    }

    /// The site.
    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Normalized generation (0..=1 of capacity).
    pub fn normalized(&self) -> &TimeSeries {
        &self.normalized
    }

    /// Generation in MW.
    pub fn power_mw(&self) -> TimeSeries {
        self.normalized.scale(self.site.capacity_mw)
    }

    /// Coefficient of variation of this site's generation — the §2.2
    /// variability metric.
    pub fn cov(&self) -> f64 {
        coefficient_of_variation(&self.normalized.values)
    }

    /// Descriptive statistics of the normalized generation (Fig 2b).
    pub fn summary(&self) -> Summary {
        Summary::of(&self.normalized.values)
    }

    /// Stable/variable energy split (§2.3).
    pub fn breakdown(&self, window_samples: usize) -> EnergyBreakdown {
        decompose(&self.power_mw(), window_samples)
    }

    /// A power forecast for this site at the given horizon (Fig 5),
    /// drawn from the catalog's weather field.
    pub fn forecast(&self, catalog: &Catalog, horizon: Horizon) -> TimeSeries {
        forecast_for(&self.normalized, &self.site, horizon, catalog.field())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vb() -> (Catalog, VirtualBattery) {
        let catalog = Catalog::europe(42);
        let vb = VirtualBattery::from_catalog(&catalog, "UK-wind", 120, 3);
        (catalog, vb)
    }

    #[test]
    fn power_scales_with_capacity() {
        let (_, vb) = vb();
        let mw = vb.power_mw();
        for (n, m) in vb.normalized().values.iter().zip(&mw.values) {
            assert!((n * 400.0 - m).abs() < 1e-9);
        }
    }

    #[test]
    fn cov_matches_direct_computation() {
        let (_, vb) = vb();
        let direct = coefficient_of_variation(&vb.normalized().values);
        assert_eq!(vb.cov(), direct);
        assert!(vb.cov() > 0.0, "renewables are variable");
    }

    #[test]
    fn breakdown_conserves_energy() {
        let (_, vb) = vb();
        let b = vb.breakdown(96);
        let total = vb.power_mw().energy();
        assert!((b.total_mwh() - total).abs() < 1e-6);
    }

    #[test]
    fn forecast_is_aligned_with_the_trace() {
        let (catalog, vb) = vb();
        let f = vb.forecast(&catalog, Horizon::Hours3);
        assert_eq!(f.len(), vb.normalized().len());
    }
}
