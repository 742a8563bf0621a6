//! Tolerances shared by the simplex engine ([`crate::revised`]) and
//! its basis factorization ([`crate::factor`], [`crate::ftran`]).

/// Pivot / ratio-test tolerance.
pub(crate) const EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
pub(crate) const COST_EPS: f64 = 1e-7;
/// Primal feasibility tolerance (phase 1 and dual-simplex repair).
pub(crate) const FEAS_EPS: f64 = 1e-6;
/// Primal iterations of steepest-edge pricing before switching to
/// Bland's rule.
pub(crate) const BLAND_AFTER: usize = 2_000;
/// Entries whose magnitude falls to or below this during sparse updates
/// are dropped (numerical zeros would otherwise accumulate and densify
/// the factors and eta file).
pub(crate) const DROP_EPS: f64 = 1e-12;
