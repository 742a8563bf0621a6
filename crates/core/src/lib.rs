#![warn(missing_docs)]

//! # vb-core — the Virtual Battery
//!
//! The paper's primary contribution, as a library:
//!
//! > "Instead of using techniques that adapt the availability of power to
//! > match the computation demand, we shift computational demand to meet
//! > the availability of power. We call this Virtual Battery (VB)."
//!
//! * [`battery`] — [`battery::VirtualBattery`]: one renewable farm
//!   coupled with an edge data center whose computation scales with the
//!   farm's output (Figure 1's proposed architecture).
//! * [`energy`] — the §2.3 stable/variable energy decomposition: within
//!   a window, `min power × window length` is guaranteed and can host
//!   stable VMs; everything above it is variable energy for degradable
//!   VMs.
//! * [`multivb`] — [`multivb::MultiVb`]: a group of VB sites analysed
//!   jointly — combined generation, cov reduction, stable-energy uplift
//!   (Figure 3).
//! * [`combos`] — the §2.3 combination search over a site catalog
//!   ("> 52 % of possible 2-site combinations improved cov by > 50 %"),
//!   parallelised across CPU cores.
//! * [`purchase`] — the grid-purchase optimizer: spend a small energy
//!   budget on the worst gaps to convert variable energy into stable
//!   energy at better than 1:1 ("purchasing 4 000 MWh … achieve a total
//!   additional 12 000 MWh of stable energy").
//! * [`economics`] — the §2.1 economic case: transmission savings,
//!   curtailment capture, and the stable-vs-spot price split that makes
//!   maximizing stable capacity the objective.
//! * [`storage`] — the chemical-battery baseline the paper argues
//!   against: how many MWh of Li-ion would match what aggregation gives
//!   for free.
//! * [`fleet`] — the fleet regime of the follow-up study (arXiv
//!   2406.02252): the one shard driver. [`build_fleet`] builds one
//!   `GroupSim` per 3-site shard of a catalog, and [`run_fleet`] runs
//!   them all under one of the four [`FleetPolicy`] variants and sums
//!   the shards into a [`FleetRun`], bit-identical at any thread count.
//!
//! The substrates live in their own crates and are re-exported here:
//! traces ([`vb_trace`]), statistics ([`vb_stats`]), the LP/MIP solver
//! ([`vb_solver`]), the cluster simulator ([`vb_cluster`]), the network
//! layer ([`vb_net`]), the co-scheduler ([`vb_sched`]), the
//! observability layer ([`vb_telemetry`]) and the deterministic
//! parallel executor ([`vb_par`]).

pub mod battery;
pub mod combos;
pub mod economics;
pub mod energy;
pub mod fleet;
pub mod multivb;
pub mod purchase;
pub mod storage;

pub use battery::VirtualBattery;
pub use combos::{search_pairs, ComboStats, PairImprovement};
pub use economics::{EconomicModel, EnergyValue};
pub use energy::{decompose, EnergyBreakdown};
pub use fleet::{
    build_fleet, run_fleet, shard_names, FleetPolicy, FleetRun, FleetShard, ShardResult, SHARD_SIZE,
};
pub use multivb::MultiVb;
pub use purchase::{optimize_purchase, PurchasePlan};
pub use storage::{required_capacity_for_stable_fraction, Battery};

pub use vb_cluster;
pub use vb_net;
pub use vb_par;
pub use vb_sched;
pub use vb_solver;
pub use vb_stats;
pub use vb_telemetry;
pub use vb_trace;
