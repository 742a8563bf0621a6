#![warn(missing_docs)]

//! # vb-net — the multi-VB network substrate
//!
//! §3.1 of the paper models the fleet of VB sites as a graph: "Each node
//! represents a VB site … Two nodes are connected via an edge if their
//! latency is below a fixed threshold, 50 ms in our case", and the first
//! scheduling step finds low-latency, complementary site groups as
//! *k-cliques* of that graph (k = 2..5).
//!
//! This crate provides:
//!
//! * [`graph`] — the latency-thresholded site graph.
//! * [`clique`] — exact k-clique enumeration plus coefficient-of-
//!   variation ranking of cliques (subgraph identification, Fig 6 step 1).
//! * [`wan`] — the WAN-capacity model behind the paper's headroom
//!   arguments: "a 10 terabyte spike requires ≈200 Gbps network capacity
//!   … roughly 40 % of the share of WAN capacity per site" (§3) and
//!   "migration occurs only 2–4 % of the time assuming 200 Gbps WAN link
//!   per VB site" (§5). Its one site-link queue gives the link's busy
//!   time, and per interval its backlog and each migration burst's
//!   first-in-first-out delay.

pub mod clique;
pub mod graph;
pub mod wan;

pub use clique::{k_cliques, rank_cliques_by_cov, CliqueScore};
pub use graph::SiteGraph;
pub use wan::{QueueStep, WanModel};
