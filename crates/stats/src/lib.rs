#![warn(missing_docs)]

//! # vb-stats — time-series and statistics kernel
//!
//! Foundation crate for the Virtual Battery workspace. Every other crate
//! manipulates power and traffic signals through the [`TimeSeries`]
//! container and summarises them with the statistics in [`summary`],
//! [`cdf`] and [`error`].
//!
//! The paper's evaluation is built almost entirely out of a handful of
//! statistical primitives:
//!
//! * **Coefficient of variation** (`cov = std / mean`) — the metric used in
//!   §2.3 to rank site combinations ("combining NO solar with UK wind
//!   reduces cov by 3.7×").
//! * **Empirical CDFs** — Figures 2b, 4b and 7 are all CDFs of power or
//!   migration volume.
//! * **Percentile ratios** — the paper reports tail/median ratios such as
//!   "99th divided by 50th percentile values as high as 18–30×".
//! * **MAPE** — forecast quality in Figure 5.
//! * **Windowed minima** — the stable/variable energy decomposition of
//!   §2.3 ("minimum power level in the window multiplied by the size of a
//!   window").
//!
//! [`sample`] holds the Poisson and normal samplers that the VM and
//! application arrival generators share.
//!
//! All of those live here so the higher layers can share one tested
//! implementation.

pub mod cdf;
pub mod error;
pub mod hist;
pub mod report;
pub mod sample;
pub mod series;
pub mod summary;

pub use cdf::Cdf;
pub use error::{mae, mape, mape_above, rmse};
pub use hist::{autocorrelation, Histogram};
pub use series::TimeSeries;
pub use summary::{coefficient_of_variation, mean, percentile, std_dev, Summary};
