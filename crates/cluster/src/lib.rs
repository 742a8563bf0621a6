#![warn(missing_docs)]

//! # vb-cluster — renewable-powered data-center simulator
//!
//! Reproduces the trace-driven simulation of §3 of the paper, which
//! quantifies the network overhead of the multi-VB design:
//!
//! > "We instantiate a site with ≈700 servers each with 40 cores and
//! > 512 GB memory. We use an Azure production VM arrival trace and
//! > Azure's VM allocation policy to assign VMs to servers. We scale the
//! > ELIA dataset such that the cluster is fully powered at the max
//! > power capacity of the farm. When power decreases, we first power
//! > down unallocated cores, then if needed, we migrate out VMs from
//! > servers (in a round-robin order). We use an admission control
//! > policy that rejects VMs to maintain 70 % utilization. When power
//! > increases, we launch previously rejected VMs and consider these as
//! > VMs migrated into the site. We use the memory allocated to a VM for
//! > estimating migration traffic."
//!
//! * [`vm`] — VM specs (cores, memory), stable vs degradable kinds, and
//!   lifetimes.
//! * [`workload`] — a synthetic arrival process standing in for the
//!   proprietary Azure trace, matched to its published statistics
//!   (discrete core-size mix, heavy-tailed lifetimes, ~70 % steady-state
//!   utilization).
//! * [`cluster`] — the site simulator itself: Protean-style best-fit
//!   placement, the power-capping cascade (power down idle cores →
//!   hibernate degradable VMs → migrate out stable VMs round-robin),
//!   admission control, and pending-VM relaunch on power recovery.
//! * [`sim`] — a driver that runs a cluster against a power trace and
//!   collects the per-interval migration-traffic series of Figure 4.
//! * [`power`] — a linear server power model (§4's capping mechanisms)
//!   and run-level energy accounting (§5's energy-overhead argument).

pub mod cluster;
pub mod power;
pub mod sim;
pub mod vm;
pub mod workload;

pub use cluster::{Cluster, ClusterConfig, StepStats};
pub use power::{energy_report, EnergyReport, PowerModel};
pub use sim::{simulate, simulate_paper_site, SimOutput};
pub use vm::{VmKind, VmRequest};
pub use workload::{Workload, WorkloadConfig, WorkloadError};
