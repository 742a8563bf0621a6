//! # vb-bench — the experiment harness
//!
//! One module per paper artifact; each has a `run(seed) -> …Report`
//! function returning the numbers and a `print` routine emitting the
//! same rows/series the paper's figure or table shows. The `benches/`
//! targets are thin wrappers, so `cargo bench -p vb-bench` regenerates
//! every figure and table:
//!
//! | Target                  | Paper artifact                            |
//! |-------------------------|-------------------------------------------|
//! | `fig2_variability`      | Fig 2a/2b — solar & wind variability      |
//! | `fig3_aggregation`      | Fig 3a/3b + §2.3 pair & purchase stats    |
//! | `fig4_network_overhead` | Fig 4a/4b + §3/§5 WAN statistics          |
//! | `fig5_forecast`         | Fig 5 — forecast MAPE by horizon          |
//! | `table1_policies`       | Table 1 + Fig 7 — scheduler comparison    |
//! | `ablations`             | design-choice sweeps (k, horizon, util…)  |
//! | `extensions`            | §1–§3 arguments: storage, economics, …    |
//! | `solver_perf`           | solver scaling rows (`BENCH_solver.json`) |
//! | `fleet_perf`            | fleet step-core rows (`BENCH_fleet.json`) |
//!
//! Every run is deterministic for a given seed; `EXPERIMENTS.md` records
//! the seed-42 outputs against the paper's numbers.

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod report;
pub mod scales;
pub mod table1;

/// The default seed used by EXPERIMENTS.md.
pub const DEFAULT_SEED: u64 = 42;
