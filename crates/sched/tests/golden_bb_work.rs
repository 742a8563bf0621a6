//! Branch-and-bound work pinned next to the plan digests.
//!
//! `golden_mip.rs` pins what the six MIP-planned runs decide; this test
//! pins how much search it took them: the deltas of
//! `solver.mip_nodes_expanded`, `solver.lp_solves`, `solver.pivots` and
//! `solver.bb_cutoffs` over each run. The sums are deterministic at any
//! `VB_THREADS`: batch membership is chosen sequentially, so the set of
//! LP solves is fixed, and each solve's pivots are a pure function of
//! its inputs (the cutoff a batch expands under is the incumbent held
//! when the batch was chosen).
//!
//! A change that removes work without moving a plan shows here as
//! fewer pivots under unchanged nodes and LP solves; a change that
//! moves a plan moves these pins too, with `golden_mip.rs`'s. Record
//! old → new values and the cause in `CHANGES.md`.
//!
//! The pivots were recorded when children that cannot beat the
//! incumbent began stopping at the cutoff (nodes and LP solves held):
//!
//! | run | pivots before | after |
//! |---|---|---|
//! | Table 1 MIP-24h | 4,602 | 3,944 |
//! | Table 1 MIP | 4,351 | 3,617 |
//! | Table 1 MIP-peak | 7,007 | 6,112 |
//! | fleet MIP-24h | 4,747 | 4,488 |
//! | fleet MIP | 10,418 | 9,758 |
//! | fleet MIP-peak | 7,939 | 7,787 |
//!
//! One `#[test]` only: the telemetry counters are process-global, so a
//! second test running concurrently would add to the deltas.

mod common;

use vb_sched::{MipConfig, MipPolicy, Policy, PolicySummary};

/// Search work of one run: counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    nodes: u64,
    lp_solves: u64,
    pivots: u64,
    cutoffs: u64,
}

const COUNTERS: [&str; 4] = [
    "solver.mip_nodes_expanded",
    "solver.lp_solves",
    "solver.pivots",
    "solver.bb_cutoffs",
];

/// The four counters now; a counter that never fired reads 0.
fn counters() -> [u64; 4] {
    let snap = vb_telemetry::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn work_of(run: fn(&mut dyn Policy) -> PolicySummary, mip: MipConfig) -> Work {
    let before = counters();
    run(&mut MipPolicy::new(mip));
    let after = counters();
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    Work {
        nodes: d[0],
        lp_solves: d[1],
        pivots: d[2],
        cutoffs: d[3],
    }
}

#[test]
fn branch_and_bound_work_matches_pins() {
    type Run = fn(&mut dyn Policy) -> PolicySummary;
    let table1: Run = common::run_table1;
    let fleet: Run = common::run_fleet_shard;
    let pins: [(&str, Run, MipConfig, Work); 6] = [
        (
            "Table 1 MIP-24h",
            table1,
            MipConfig::mip_24h(),
            Work {
                nodes: 737,
                lp_solves: 1_498,
                pivots: 3_944,
                cutoffs: 246,
            },
        ),
        (
            "Table 1 MIP",
            table1,
            MipConfig::mip(),
            Work {
                nodes: 235,
                lp_solves: 525,
                pivots: 3_617,
                cutoffs: 122,
            },
        ),
        (
            "Table 1 MIP-peak",
            table1,
            MipConfig::mip_peak(),
            Work {
                nodes: 538,
                lp_solves: 1_057,
                pivots: 6_112,
                cutoffs: 220,
            },
        ),
        (
            "fleet MIP-24h",
            fleet,
            MipConfig::mip_24h(),
            Work {
                nodes: 1_452,
                lp_solves: 2_735,
                pivots: 4_488,
                cutoffs: 144,
            },
        ),
        (
            "fleet MIP",
            fleet,
            MipConfig::mip(),
            Work {
                nodes: 2_071,
                lp_solves: 4_169,
                pivots: 9_758,
                cutoffs: 248,
            },
        ),
        (
            "fleet MIP-peak",
            fleet,
            MipConfig::mip_peak(),
            Work {
                nodes: 1_807,
                lp_solves: 3_708,
                pivots: 7_787,
                cutoffs: 89,
            },
        ),
    ];
    let got: Vec<Work> = pins
        .iter()
        .map(|(_, run, mip, _)| work_of(*run, mip.clone()))
        .collect();
    for ((what, _, _, _), w) in pins.iter().zip(&got) {
        println!("{what}: {w:?}");
    }
    for ((what, _, _, want), w) in pins.iter().zip(&got) {
        assert_eq!(w, want, "{what}: branch-and-bound work moved");
    }
}
