#![warn(missing_docs)]

//! # vb-sched — the power- and network-aware multi-VB co-scheduler
//!
//! Implements §3.1 of the paper: scheduling applications "across
//! highly-variable but predictable capacity locations in a way that
//! i) ensures high level of availability, ii) introduces low & non-bursty
//! network overheads, and iii) minimizes energy usage".
//!
//! The scheduling pipeline of Fig 6 maps to modules as follows:
//!
//! 1. **Subgraph identification** — [`pipeline`]: k-clique enumeration of
//!    the 50 ms site graph and coefficient-of-variation ranking
//!    (delegating to `vb-net`).
//! 2. **Subgraph selection** — [`pipeline`]: a short list of candidate
//!    cliques, steadiest first.
//! 3. **Site selection** — [`policy`]: per-application site assignment.
//!    [`greedy`] is the paper's baseline ("always assigns VMs to the site
//!    with the most available power"); [`mip`] formulates the choice as a
//!    mixed-integer program over forecast capacity with objective O1
//!    (total migration bytes) and optionally O2 (peak migration bytes),
//!    solved exactly by `vb-solver`. The three paper variants — MIP,
//!    MIP-24h and MIP-peak — are horizon/objective configurations of the
//!    same model.
//! 4. **VM placement** — within a site, delegated to the packing
//!    machinery of `vb-cluster` ("any state-of-the-art approach can be
//!    used for this step").
//!
//! [`sim`] runs the whole thing: a multi-site group simulation where
//! sites evict applications when power drops, the runtime re-routes
//! evicted apps to sibling sites (the WAN traffic of Fig 4), and the
//! policies' placement quality shows up as Table 1 / Fig 7 differences.

pub mod app;
pub mod greedy;
pub mod mip;
pub mod pipeline;
pub mod policy;
pub mod replication;
pub mod sim;

pub use app::{AppGen, AppGenConfig, AppSpec};
pub use greedy::GreedyPolicy;
pub use mip::{MipConfig, MipPolicy, MipStats};
pub use pipeline::{identify_subgraphs, select_group, PipelineConfig};
pub use policy::{Assignment, PlanContext, Policy, SitePlanInfo};
pub use replication::{ReplicationModel, ReplicationReport, StandbyMode};
pub use sim::{
    DetailedRun, GroupSim, GroupSimConfig, GroupStepStats, PolicySummary, SimError,
    DAY_AHEAD_STEPS, STEPS_PER_DAY,
};
