//! The economic case for Virtual Batteries (§2.1).
//!
//! The paper gives four economic arguments; this module turns the
//! quantitative ones into code:
//!
//! 1. **Transmission savings** — "20 % of data center operating cost is
//!    due to power, and 50 % of power expense is due to transmission.
//!    Co-locating data centers obviates this transmission expense",
//!    i.e. ≈10 % of total operating cost.
//! 2. **Curtailment capture** — grid operators force renewable farms to
//!    curtail "as high as 6 % of the overall renewable generation", or
//!    drop wholesale prices to zero/negative; a co-located VB can turn
//!    that otherwise-wasted energy into compute value.
//! 3. **The stable-VM premium** — "spot instances are 60-90 % cheaper
//!    than stable VMs": energy that hosts stable VMs earns several times
//!    what the same energy earns hosting degradable VMs. This is why the
//!    paper's goal is to *maximize stable capacity*, and it is how we
//!    price the value of multi-VB aggregation.

use crate::energy::EnergyBreakdown;

/// §2.1 cost/price parameters. Defaults are the paper's numbers.
#[derive(Debug, Clone)]
pub struct EconomicModel {
    /// Share of data-center operating cost that is power (paper: 20 %).
    pub power_share_of_opex: f64,
    /// Share of power expense that is transmission & distribution
    /// (paper: 50 %).
    pub transmission_share_of_power: f64,
    /// Fraction of renewable generation lost to curtailment when selling
    /// to the grid (paper: up to 6 % and rising).
    pub curtailment_fraction: f64,
    /// Relative price of degradable (spot-like) capacity vs stable
    /// capacity (paper: spot is 60-90 % cheaper → 0.1–0.4; default the
    /// midpoint 0.25).
    pub spot_price_ratio: f64,
    /// Revenue per stable MWh of hosted compute, in arbitrary currency
    /// units (only ratios matter in the reproduction).
    pub stable_value_per_mwh: f64,
}

impl Default for EconomicModel {
    fn default() -> EconomicModel {
        EconomicModel {
            power_share_of_opex: 0.20,
            transmission_share_of_power: 0.50,
            curtailment_fraction: 0.06,
            spot_price_ratio: 0.25,
            stable_value_per_mwh: 100.0,
        }
    }
}

/// The value of a site's energy under the stable/degradable price split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyValue {
    /// Revenue from energy hosting stable VMs.
    pub stable_revenue: f64,
    /// Revenue from energy hosting degradable/spot VMs.
    pub variable_revenue: f64,
}

impl EnergyValue {
    /// Total revenue.
    pub fn total(&self) -> f64 {
        self.stable_revenue + self.variable_revenue
    }
}

impl EconomicModel {
    /// Fraction of total operating cost saved by co-location
    /// (the paper's "total datacenter cost can be reduced by ≈10 %
    /// (= 20 % × 50 %)").
    pub fn transmission_savings_fraction(&self) -> f64 {
        self.power_share_of_opex * self.transmission_share_of_power
    }

    /// Extra energy a VB captures per MWh generated, relative to selling
    /// to a curtailing grid: the curtailed share is free fuel for
    /// compute.
    pub fn curtailment_capture_mwh(&self, generated_mwh: f64) -> f64 {
        generated_mwh * self.curtailment_fraction
    }

    /// Price the stable/variable energy split of a site or group.
    pub fn value_of(&self, breakdown: &EnergyBreakdown) -> EnergyValue {
        EnergyValue {
            stable_revenue: breakdown.stable_mwh * self.stable_value_per_mwh,
            variable_revenue: breakdown.variable_mwh
                * self.stable_value_per_mwh
                * self.spot_price_ratio,
        }
    }

    /// Revenue uplift of an aggregated group over operating the same
    /// sites independently: the §2.3 "does aggregation increase the
    /// stable capacity?" question, priced. Values > 1 mean aggregation
    /// pays even though the total energy is identical.
    pub fn aggregation_uplift(
        &self,
        members: &[EnergyBreakdown],
        combined: &EnergyBreakdown,
    ) -> f64 {
        let solo: f64 = members.iter().map(|b| self.value_of(b).total()).sum();
        if solo <= 0.0 {
            return 1.0;
        }
        self.value_of(combined).total() / solo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(stable: f64, variable: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            stable_mwh: stable,
            variable_mwh: variable,
        }
    }

    #[test]
    fn paper_transmission_savings_is_ten_percent() {
        let m = EconomicModel::default();
        assert!((m.transmission_savings_fraction() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn curtailment_capture_matches_fraction() {
        let m = EconomicModel::default();
        assert!((m.curtailment_capture_mwh(1_000.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn stable_energy_is_worth_several_times_variable() {
        let m = EconomicModel::default();
        let all_stable = m.value_of(&split(100.0, 0.0));
        let all_variable = m.value_of(&split(0.0, 100.0));
        assert!((all_stable.total() / all_variable.total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spot_discount_band_covers_the_papers_range() {
        // "60-90% cheaper" -> ratio between 0.1 and 0.4.
        for ratio in [0.1, 0.25, 0.4] {
            let m = EconomicModel {
                spot_price_ratio: ratio,
                ..EconomicModel::default()
            };
            let v = m.value_of(&split(50.0, 50.0));
            assert!(v.stable_revenue > v.variable_revenue);
        }
    }

    #[test]
    fn aggregation_uplift_rewards_stable_conversion() {
        let m = EconomicModel::default();
        // Two solo sites: 10 stable + 90 variable each.
        let members = [split(10.0, 90.0), split(10.0, 90.0)];
        // Combined: same 200 MWh total, but 80 stable.
        let combined = split(80.0, 120.0);
        let uplift = m.aggregation_uplift(&members, &combined);
        assert!(uplift > 1.0, "uplift {uplift}");
        // Identical split -> no uplift.
        let same = m.aggregation_uplift(&members, &split(20.0, 180.0));
        assert!((same - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_zero_energy_uplift_is_neutral() {
        let m = EconomicModel::default();
        assert_eq!(m.aggregation_uplift(&[], &split(0.0, 0.0)), 1.0);
    }
}
