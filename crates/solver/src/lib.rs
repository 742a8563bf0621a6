#![warn(missing_docs)]

//! # vb-solver — linear and mixed-integer programming from scratch
//!
//! §3.1 of the paper formulates subgraph and site selection as
//! Mixed-Integer Programs with two objectives — total migration overhead
//! (O1) and peak migration overhead (O2). The authors presumably used a
//! commercial solver; to keep the reproduction self-contained this crate
//! implements the needed machinery from scratch:
//!
//! * [`model`] — a small modelling layer: variables with bounds and
//!   integrality, linear expressions, `≤ / ≥ / =` constraints, and a
//!   minimise/maximise objective.
//! * [`revised`] — the LP engine: a bounded-variable revised simplex on
//!   a sparse Markowitz-ordered LU basis with eta-file updates and
//!   periodic refactorization (variable bounds never become rows),
//!   exact steepest-edge pricing with a Bland-rule fallback for
//!   anti-cycling, and a dual-simplex warm-start path.
//! * [`branch`] — best-first branch & bound on fractional integer
//!   variables, exact when the search finishes within its node budget
//!   (a search cut short reports its gap, [`Solution::budget_gap`]);
//!   child nodes warm-start from their parent's optimal basis, sharing
//!   its LU factors and eta entries rather than copying them, and node
//!   batches expand in deterministic parallel. [`solve_mip_kernel`],
//!   run for every co-scheduler epoch, adds presolve; a fractional
//!   root is refactorized once so that no node replays the root
//!   solve's eta file.
//! * [`presolve`] — fixed-variable elimination, singleton-row
//!   substitution, bound tightening, implied-row removal and dual
//!   fixing of dominated columns that shrink a model before the search
//!   sees it, with a deterministic postsolve back to the original
//!   variable space.
//! * [`dense`] — the original row-expansion two-phase simplex, kept as
//!   an independent oracle for differential testing.
//!
//! The scheduler's MIPs are small (tens to a few hundred variables) and
//! are built afresh every epoch, so the hot path is the sparse cold
//! root plus warm-started branch and bound below it.
//!
//! ```
//! use vb_solver::{Model, Sense};
//!
//! // max x + 2y  s.t.  x + y <= 4,  x,y in {0..3} integer
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.int_var("x", 0.0, 3.0);
//! let y = m.int_var("y", 0.0, 3.0);
//! let budget = m.expr(&[(x, 1.0), (y, 1.0)]);
//! m.add_le(budget, 4.0);
//! let objective = m.expr(&[(x, 1.0), (y, 2.0)]);
//! m.set_objective(objective);
//! let sol = m.solve().unwrap();
//! assert_eq!(sol.objective.round(), 7.0); // x=1, y=3
//! ```

pub mod branch;
pub mod dense;
pub(crate) mod factor;
pub(crate) mod ftran;
pub mod model;
pub mod presolve;
pub mod revised;
pub(crate) mod tolerance;

pub use branch::solve_mip_kernel;
pub use model::{Cmp, LinExpr, Model, Sense, Solution, SolveError, VarId};
pub use presolve::{PresolveStats, Presolved};
