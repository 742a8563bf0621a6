//! Revised simplex on a factorized LU basis — the production LP engine.
//!
//! The explicit-tableau engine ([`crate::simplex`]) pays for every pivot
//! by rewriting all tableau rows (a sparse Gauss–Jordan sweep); on the
//! fleet-shaped 100×+ models the rows densify and that sweep dominates
//! the solve. This engine keeps the basis as a sparse LU factorization
//! ([`crate::factor`]) plus a product-form eta file ([`crate::ftran`])
//! instead, and reconstructs per-iteration data on demand:
//!
//! * the entering column `d̂ = B⁻¹a_q` by one **FTRAN**,
//! * the pricing row `α = eᵣᵀB⁻¹A` by one **BTRAN** plus a sweep of the
//!   constraint rows, and
//! * reduced costs by the classic `d = c − (B⁻ᵀc_B)ᵀA` once per basis a
//!   solve starts from — per phase in a cold solve, once per parent for
//!   all of a branch-and-bound node's children (`Siblings`); between
//!   pivots `d` is updated from the pricing row.
//!
//! Each pivot appends one eta. The factorization is rebuilt — and the
//! basic values recomputed from the model data, shedding accumulated
//! drift — when the eta file reaches [`Params::refactor_after`] updates
//! or when a **stability trigger** fires: the pivot element reached via
//! FTRAN and via BTRAN must agree to [`STAB_EPS`], otherwise the factors
//! have degraded and the iteration is retried on fresh ones. Branch and
//! bound also rebuilds a fractional root's factors once
//! (`RevisedState::refresh_factors`), because every solve below the
//! root would otherwise replay the root solve's eta file.
//!
//! Because reduced costs and norms are exact per-iteration quantities
//! here, **steepest-edge pricing** ([`Pricing::SteepestEdge`]) becomes
//! affordable: the exact reference weights `γ_j = 1 + ‖B⁻¹a_j‖²` are
//! maintained by the Forrest–Goldfarb recurrence (one extra BTRAN per
//! pivot), with a reset to the unit framework whenever the maintained
//! entering weight drifts a factor [`SE_DRIFT`] from its exact value.
//! Devex and Dantzig remain available and share the Bland anti-cycling
//! fallback.
//!
//! The state mirrors [`crate::simplex::SimplexState`]'s warm-start
//! surface — bound overrides with dual-simplex repair — so branch &
//! bound uses either engine interchangeably. Column layout, tolerances,
//! tie-break rules, and the two-phase construction are identical to the
//! tableau engine; in exact arithmetic the two produce the same pivots,
//! and both are deterministic functions of the model.
//!
//! Branch and bound re-solves a node's two children through one
//! `Siblings` rather than two independent warm starts: each child
//! changes one bound of a clone of the same parent, so the children
//! share the parent's reduced costs and, when both leave on the same
//! row, the first dual pricing row, and each applies only its one
//! changed bound. Every shared value is what each clone would compute
//! itself, so the pivots match independent warm starts bit for bit.

use crate::factor::LuFactors;
use crate::ftran::BasisFactor;
use crate::model::{Cmp, Model, Sense, Solution, SolveError, VarId};
use crate::simplex::{Pricing, BLAND_AFTER, COST_EPS, DEVEX_RESET, DROP_EPS, EPS, FEAS_EPS};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// FTRAN-vs-BTRAN pivot agreement tolerance (relative): worse than this
/// means the factors + eta file have degraded and trigger an immediate
/// refactorization.
const STAB_EPS: f64 = 1e-7;
/// Relative pivot tolerance of both ratio tests: a candidate pivot
/// `α` must exceed `PIVOT_REL · max|α|` over its column (primal) or
/// row (dual) as well as the absolute [`EPS`]. An absolute test alone
/// accepted a pivot of 6.5e-9 in a column whose largest entry was 1e6;
/// two pivots later the basis was near-singular and phase 1 moved
/// artificials below zero.
const PIVOT_REL: f64 = 1e-11;
/// Steepest-edge framework reset: when the maintained weight of the
/// entering column differs from its exact norm `1 + ‖B⁻¹a_q‖²` by more
/// than this factor either way, all weights restart at 1.
const SE_DRIFT: f64 = 4.0;
/// Eta updates between scheduled refactorizations. A Markowitz
/// refactorization plus the basic-value recompute costs ~80–120 µs on
/// the benchmark's placement MIPs, one eta carries ~20–30 nonzeros,
/// and a warm re-solve appends only about two etas, so the interval is
/// long; the stability trigger still forces an early rebuild the
/// moment the factors actually degrade.
const REFACTOR_AFTER: usize = 128;

/// Engine tuning knobs. The defaults are the production policy; tests
/// shrink them to force refactorizations and the Bland fallback onto
/// small instances.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Refactorize after this many eta updates.
    pub refactor_after: usize,
    /// Iterations before primal pricing falls back to Bland's rule.
    pub bland_after: usize,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            refactor_after: REFACTOR_AFTER,
            bland_after: BLAND_AFTER,
        }
    }
}

/// Constraint matrix in both row- and column-major sparse form, plus
/// the right-hand side, shared (via `Arc`) by every state cloned off
/// one solve — branch & bound clones states per node, and neither ever
/// changes.
#[derive(Debug)]
struct Mat {
    row_starts: Vec<u32>,
    row_cols: Vec<u32>,
    row_vals: Vec<f64>,
    col_starts: Vec<u32>,
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    /// Model right-hand side of each row.
    rhs_b: Vec<f64>,
}

/// A phase-1 artificial: the unit column `sign·e_row`.
#[derive(Debug, Clone, Copy)]
struct ArtCol {
    row: u32,
    sign: f64,
}

/// Dense pricing row plus its support list. `α` stays dense for O(1)
/// reads; the support records every column the sweep touched, so the
/// per-pivot consumers (reduced-cost update, steepest-edge cross terms,
/// devex weights) iterate the nonzeros instead of every column. An
/// epoch-marked scratch deduplicates the support without a clearing
/// pass.
#[derive(Default)]
struct PriceRow {
    alpha: Vec<f64>,
    support: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
}

impl PriceRow {
    /// Size the row for `cols` columns, all zero.
    fn fit(&mut self, cols: usize) {
        self.clear();
        self.alpha.resize(cols, 0.0);
        self.mark.resize(cols, 0);
    }

    /// Zero the previous row (via its support) and start a new one.
    fn clear(&mut self) {
        for &j in &self.support {
            self.alpha[j as usize] = 0.0;
        }
        self.support.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn add(&mut self, j: usize, v: f64) {
        if self.mark[j] != self.epoch {
            self.mark[j] = self.epoch;
            self.support.push(j as u32);
        }
        self.alpha[j] += v;
    }
}

/// The work vectors of one solve. Kept per thread and reused by every
/// solve on it, because branch and bound runs thousands of short warm
/// re-solves per MIP. Every reader re-initialises what it reads, so no
/// result depends on what an earlier solve left behind.
#[derive(Default)]
struct Scratch {
    /// The FTRAN'd entering column `d̂ = B⁻¹a_q`.
    ecol: Vec<f64>,
    /// The BTRAN'd unit row `ρ = eᵣᵀB⁻¹`, or the prices `B⁻ᵀc_B`.
    rho: Vec<f64>,
    /// Steepest-edge cross-term vector `τ = B⁻ᵀd̂`.
    tau: Vec<f64>,
    /// Basic-value shift of a bound retarget.
    shift: Vec<f64>,
    pr: PriceRow,
    /// Pricing reference weights (steepest-edge or devex).
    weights: Vec<f64>,
    /// Maintained entering violations (see [`RevisedState::iterate_with`]).
    viol: Vec<f64>,
    /// The current phase's cost vector and its reduced costs.
    cost: Vec<f64>,
    d: Vec<f64>,
    /// What the children of one parent share ([`Siblings`]).
    share: Share,
}

/// The parent preparation of a [`Siblings`] run, filled by whichever
/// child needs it first. Every clone of one parent holds the same
/// basis, factors and costs until its first pivot, so these are exactly
/// the values each child would compute itself.
#[derive(Default)]
struct Share {
    /// The parent basis's phase-2 reduced costs, once `d_ready`.
    d: Vec<f64>,
    d_ready: bool,
    /// The pricing row of leaving row `row` through the parent's
    /// factors: the first dual pricing row of the child that chose it.
    pr: PriceRow,
    row: Option<usize>,
}

impl Scratch {
    /// Size every buffer for a state with `m` rows and `cols` columns.
    fn fit(&mut self, m: usize, cols: usize) {
        for v in [
            &mut self.ecol,
            &mut self.rho,
            &mut self.tau,
            &mut self.shift,
        ] {
            v.resize(m, 0.0);
        }
        for v in [
            &mut self.weights,
            &mut self.viol,
            &mut self.cost,
            &mut self.d,
        ] {
            v.resize(cols, 0.0);
        }
        self.pr.fit(cols);
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` on this thread's [`Scratch`], sized for `m` rows and `cols`
/// columns.
fn with_scratch<T>(m: usize, cols: usize, f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|sc| {
        let mut sc = sc.borrow_mut();
        sc.fit(m, cols);
        f(&mut sc)
    })
}

/// Per-solve counters, flushed to `vb-telemetry` at loop and solve
/// boundaries (so a warm attempt that falls back still reports).
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    pivots: u64,
    dual_pivots: u64,
    flips: u64,
    degenerate: u64,
    scanned: u64,
    devex_pivots: u64,
    devex_resets: u64,
    ftran_nnz: u64,
    btran_nnz: u64,
    /// Eta-file nonzeros replayed by those FTRANs and BTRANs.
    eta_nnz: u64,
    refactorizations: u64,
    eta_updates: u64,
    steepest_resets: u64,
    /// First dual pricing rows taken from a sibling ([`Share`]).
    shared_rows: u64,
}

/// The work counts this thread's solves have flushed, so a caller can
/// attribute pivots to one solve without the process-wide telemetry
/// registry (which concurrent tests share).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    pub(crate) pivots: u64,
    pub(crate) eta_updates: u64,
    pub(crate) refactorizations: u64,
    pub(crate) shared_rows: u64,
}

impl Work {
    /// The work done since `before` was read.
    pub(crate) fn since(self, before: Work) -> Work {
        Work {
            pivots: self.pivots - before.pivots,
            eta_updates: self.eta_updates - before.eta_updates,
            refactorizations: self.refactorizations - before.refactorizations,
            shared_rows: self.shared_rows - before.shared_rows,
        }
    }
}

thread_local! {
    static FLUSHED: Cell<Work> = const {
        Cell::new(Work {
            pivots: 0,
            eta_updates: 0,
            refactorizations: 0,
            shared_rows: 0,
        })
    };
}

/// This thread's flushed [`Work`] so far.
pub(crate) fn thread_work() -> Work {
    FLUSHED.with(Cell::get)
}

/// Outcome of the primal ratio test (mirrors the tableau engine's).
enum Step {
    Flip,
    Pivot {
        row: usize,
        target: f64,
        leave_at_upper: bool,
    },
    Unbounded,
}

/// Revised-simplex state: basis, factorization, and bounds — the
/// factorized counterpart of [`crate::simplex::SimplexState`], reusable
/// as a warm-start basis under changed bounds or (structurally
/// identical) changed models. A clone shares the constraint matrix,
/// the LU factors and the eta file's entries with its source, and
/// copies only the per-column and per-row vectors.
#[derive(Debug, Clone)]
pub struct RevisedState {
    mat: Arc<Mat>,
    arts: Arc<Vec<ArtCol>>,
    /// Per-column bounds and bound side, laid out
    /// `[structural | logical | artificial]` like the tableau engine.
    lb: Vec<f64>,
    ub: Vec<f64>,
    at_upper: Vec<bool>,
    /// Basic column per row / row per column (`usize::MAX` = nonbasic).
    basis: Vec<usize>,
    basis_pos: Vec<usize>,
    /// Current value of each row's basic variable.
    xb: Vec<f64>,
    factor: BasisFactor,
    n: usize,
    m: usize,
    cols: usize,
    art_start: usize,
    params: Params,
    stats: Stats,
}

/// Solve a model's LP relaxation on the factorized engine and return the
/// optimal state alongside the solution. Semantics match
/// [`crate::simplex::solve_lp_state_priced`]: `bound_overrides` impose
/// branching bounds, and `warm` (a previous state of the *same* model)
/// starts from that basis with a dual-simplex repair, falling back to a
/// cold solve on numerical trouble.
pub fn solve_lp_state(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
    warm: Option<&RevisedState>,
    pricing: Pricing,
) -> Result<(Solution, RevisedState), SolveError> {
    solve_lp_state_params(model, bound_overrides, warm, pricing, Params::default())
}

/// [`solve_lp_state`] with explicit engine [`Params`] (test hook: small
/// `refactor_after`/`bland_after` force the update and fallback paths
/// onto small instances).
#[doc(hidden)]
pub fn solve_lp_state_params(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
    warm: Option<&RevisedState>,
    pricing: Pricing,
    params: Params,
) -> Result<(Solution, RevisedState), SolveError> {
    let _span = vb_telemetry::span!("solver.lp_solve");
    vb_telemetry::counter!("solver.lp_solves").inc();

    let (lb, ub) = structural_bounds(model, bound_overrides)?;
    if let Some(parent) = warm {
        if parent.n == lb.len() && parent.m == model.constraints.len() {
            let mut st = parent.clone();
            let bounds = BoundStep::All { lb: &lb, ub: &ub };
            let res = with_scratch(st.m, st.cols, |sc| {
                st.reoptimize(model, bounds, pricing, sc)
            });
            if let Some(done) = warm_outcome(res, st) {
                return done;
            }
        } else {
            vb_telemetry::counter!("solver.warm_start_misses").inc();
        }
    }

    let mut st = RevisedState::build(model, lb, ub, params)?;
    let sol = with_scratch(st.m, st.cols, |sc| st.solve_cold(model, pricing, sc))?;
    Ok((sol, st))
}

/// The structural bounds under `overrides` (the last entry for a column
/// wins), or the error a solve reports for them.
fn structural_bounds(
    model: &Model,
    overrides: &[(VarId, f64, f64)],
) -> Result<(Vec<f64>, Vec<f64>), SolveError> {
    let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
    for &(v, l, u) in overrides {
        lb[v.0] = l;
        ub[v.0] = u;
    }
    for j in 0..lb.len() {
        check_bounds(model, j, lb[j], ub[j])?;
    }
    Ok((lb, ub))
}

/// A crossed interval is an infeasible child; a solve needs a finite
/// lower bound on every structural.
fn check_bounds(model: &Model, j: usize, lb: f64, ub: f64) -> Result<(), SolveError> {
    if lb > ub + EPS {
        return Err(SolveError::Infeasible);
    }
    if !lb.is_finite() {
        return Err(SolveError::BadModel(format!(
            "variable {} must have a finite lower bound",
            model.vars[j].name
        )));
    }
    Ok(())
}

/// Count a warm re-solve's outcome. A proven-infeasible child is a
/// successful warm start; `None` is numerical trouble, after which the
/// caller re-solves from scratch.
fn warm_outcome(
    res: Result<Solution, SolveError>,
    st: RevisedState,
) -> Option<Result<(Solution, RevisedState), SolveError>> {
    match res {
        Ok(sol) => {
            vb_telemetry::counter!("solver.warm_start_hits").inc();
            Some(Ok((sol, st)))
        }
        Err(SolveError::Infeasible) => {
            vb_telemetry::counter!("solver.warm_start_hits").inc();
            Some(Err(SolveError::Infeasible))
        }
        Err(_) => {
            vb_telemetry::counter!("solver.warm_start_misses").inc();
            None
        }
    }
}

/// Re-solves of the children of one parent state — the two children of
/// a branch-and-bound node, or the candidate fixings of one rounding-dive
/// level. Each child clones the parent and changes one structural
/// column's bounds, so until its first pivot it holds the parent's
/// basis, factors and costs. The children therefore share:
///
/// * the parent basis's fresh reduced costs, computed by the first child
///   that needs them;
/// * the first dual pricing row `α = (eᵣᵀB⁻¹)A`, when a child's first
///   leave scan picks the row an earlier sibling's first scan picked
///   (the branching variable's row, in practice). The leave rule is
///   unchanged;
/// * no bound rebuild: a child applies only its one changed column.
///
/// Each shared value is bit-identical to what the child would compute,
/// so every child's pivots, basis, values and counters equal those of
/// an independent [`solve_lp_state`] warm start from the parent.
pub(crate) struct Siblings<'a> {
    model: &'a Model,
    parent: &'a RevisedState,
    pricing: Pricing,
    sc: &'a mut Scratch,
}

/// Run `f` over the [`Siblings`] of `parent`, on this thread's scratch.
pub(crate) fn with_siblings<T>(
    model: &Model,
    parent: &RevisedState,
    pricing: Pricing,
    f: impl FnOnce(&mut Siblings<'_>) -> T,
) -> T {
    SCRATCH.with(|sc| {
        let mut sc = sc.borrow_mut();
        sc.share.d_ready = false;
        sc.share.row = None;
        f(&mut Siblings {
            model,
            parent,
            pricing,
            sc: &mut sc,
        })
    })
}

impl Siblings<'_> {
    /// Solve the child whose structural bounds are `overrides`, which
    /// must differ from the bounds the parent was solved under (on this
    /// `model`) only at `var`. Same result, counters and cold fallback
    /// (under the parent's [`Params`]) as
    /// `solve_lp_state_params(model, overrides, Some(parent), ..)`.
    pub(crate) fn solve(
        &mut self,
        overrides: &[(VarId, f64, f64)],
        var: VarId,
    ) -> Result<(Solution, RevisedState), SolveError> {
        let _span = vb_telemetry::span!("solver.lp_solve");
        vb_telemetry::counter!("solver.lp_solves").inc();

        let (model, parent) = (self.model, self.parent);
        let col = var.0;
        let (lb, ub) = overrides
            .iter()
            .rev()
            .find(|&&(v, _, _)| v == var)
            .map_or((model.vars[col].lb, model.vars[col].ub), |&(_, l, u)| {
                (l, u)
            });
        check_bounds(model, col, lb, ub)?;
        let mut st = parent.clone();
        self.sc.fit(st.m, st.cols);
        let bounds = BoundStep::One { col, lb, ub };
        let res = st.reoptimize(model, bounds, self.pricing, self.sc);
        if let Some(done) = warm_outcome(res, st) {
            return done;
        }

        let (lb, ub) = structural_bounds(model, overrides)?;
        let mut st = RevisedState::build(model, lb, ub, parent.params)?;
        self.sc.fit(st.m, st.cols);
        let sol = st.solve_cold(model, self.pricing, self.sc)?;
        Ok((sol, st))
    }
}

/// The bounds a re-optimisation applies.
#[derive(Clone, Copy)]
enum BoundStep<'a> {
    /// Every structural column's bounds (the public warm start).
    All { lb: &'a [f64], ub: &'a [f64] },
    /// One structural column's new interval; every other column keeps
    /// the state's bounds. This is a [`Siblings`] re-solve, which also
    /// shares the parent preparation in the scratch's [`Share`].
    One { col: usize, lb: f64, ub: f64 },
}

impl RevisedState {
    /// Build the initial state: logicals basic where the residual fits
    /// their interval, artificials elsewhere — the same starting basis
    /// as the tableau engine (whose sign-flip normalisation is replaced
    /// here by signed artificial columns `σ·e_i`; the implied tableau is
    /// identical either way).
    fn build(
        model: &Model,
        mut lb: Vec<f64>,
        mut ub: Vec<f64>,
        params: Params,
    ) -> Result<RevisedState, SolveError> {
        let n = model.vars.len();
        let m = model.constraints.len();

        let mut nnz = 0usize;
        let mut resid = Vec::with_capacity(m);
        for c in &model.constraints {
            nnz += c.coefs.len();
            let dot: f64 = c.coefs.iter().map(|&(v, a)| a * lb[v.0]).sum();
            resid.push(c.rhs - dot);
        }
        vb_telemetry::histogram!("solver.nnz").observe(nnz as f64);
        let needs_art: Vec<bool> = model
            .constraints
            .iter()
            .zip(&resid)
            .map(|(c, &r)| match c.cmp {
                Cmp::Le => r < 0.0,
                Cmp::Ge => r > 0.0,
                Cmp::Eq => r.abs() > EPS,
            })
            .collect();
        let n_art = needs_art.iter().filter(|&&x| x).count();
        let art_start = n + m;
        let cols = art_start + n_art;

        // Row-major, then column-major (column entries arrive in row
        // order, so both are sorted and fully deterministic).
        let mut row_starts = Vec::with_capacity(m + 1);
        row_starts.push(0u32);
        let mut row_cols = Vec::with_capacity(nnz);
        let mut row_vals = Vec::with_capacity(nnz);
        for c in &model.constraints {
            for &(v, a) in &c.coefs {
                row_cols.push(v.0 as u32);
                row_vals.push(a);
            }
            row_starts.push(row_cols.len() as u32);
        }
        let mut col_counts = vec![0u32; n + 1];
        for &j in &row_cols {
            col_counts[j as usize + 1] += 1;
        }
        for j in 0..n {
            col_counts[j + 1] += col_counts[j];
        }
        let col_starts = col_counts.clone();
        let mut col_rows = vec![0u32; nnz];
        let mut col_vals = vec![0.0f64; nnz];
        let mut cursor = col_counts;
        for i in 0..m {
            let (a, b) = (row_starts[i] as usize, row_starts[i + 1] as usize);
            for e in a..b {
                let j = row_cols[e] as usize;
                let slot = cursor[j] as usize;
                col_rows[slot] = i as u32;
                col_vals[slot] = row_vals[e];
                cursor[j] += 1;
            }
        }

        // Logical bounds per constraint type, then artificials [0, ∞).
        for c in &model.constraints {
            match c.cmp {
                Cmp::Le => {
                    lb.push(0.0);
                    ub.push(f64::INFINITY);
                }
                Cmp::Ge => {
                    lb.push(f64::NEG_INFINITY);
                    ub.push(0.0);
                }
                Cmp::Eq => {
                    lb.push(0.0);
                    ub.push(0.0);
                }
            }
        }
        lb.resize(cols, 0.0);
        ub.resize(cols, f64::INFINITY);

        let mut xb = vec![0.0; m];
        let mut rhs_b = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut at_upper = vec![false; cols];
        let mut arts = Vec::with_capacity(n_art);
        for (i, c) in model.constraints.iter().enumerate() {
            rhs_b.push(c.rhs);
            if needs_art[i] {
                let sigma = if resid[i] >= 0.0 { 1.0 } else { -1.0 };
                basis[i] = art_start + arts.len();
                arts.push(ArtCol {
                    row: i as u32,
                    sign: sigma,
                });
                xb[i] = resid[i].abs();
                // The row's own logical stays nonbasic at 0: that is the
                // upper bound for `≥` logicals, the lower bound otherwise.
                at_upper[n + i] = matches!(c.cmp, Cmp::Ge);
            } else {
                basis[i] = n + i;
                xb[i] = resid[i];
            }
        }
        let mut basis_pos = vec![usize::MAX; cols];
        for (i, &b) in basis.iter().enumerate() {
            basis_pos[b] = i;
        }

        let mut st = RevisedState {
            mat: Arc::new(Mat {
                row_starts,
                row_cols,
                row_vals,
                col_starts,
                col_rows,
                col_vals,
                rhs_b,
            }),
            arts: Arc::new(arts),
            lb,
            ub,
            at_upper,
            basis,
            basis_pos,
            xb,
            factor: BasisFactor::default(),
            n,
            m,
            cols,
            art_start,
            params,
            stats: Stats::default(),
        };
        st.factorize_basis()?;
        #[cfg(feature = "check-invariants")]
        st.assert_invariants("build");
        Ok(st)
    }

    /// Both phases from the starting basis [`RevisedState::build`] set
    /// up. Telemetry is flushed once, on every exit.
    fn solve_cold(
        &mut self,
        model: &Model,
        pricing: Pricing,
        sc: &mut Scratch,
    ) -> Result<Solution, SolveError> {
        let result = (|| {
            // Phase 1: minimise the sum of artificials.
            if self.art_start < self.cols {
                for (j, c) in sc.cost.iter_mut().enumerate() {
                    *c = if j < self.art_start { 0.0 } else { 1.0 };
                }
                self.reduced_costs(sc);
                self.iterate_with(sc, self.cols, pricing)?; // artificials may pivot in phase 1
                let infeas: f64 = (0..self.m)
                    .filter(|&i| self.basis[i] >= self.art_start)
                    .map(|i| self.xb[i])
                    .sum();
                if infeas > FEAS_EPS {
                    return Err(SolveError::Infeasible);
                }
                self.expel_and_freeze_artificials(sc)?;
            }

            // Phase 2: the real objective, artificials barred from entering.
            self.phase2_costs(model, &mut sc.cost);
            self.reduced_costs(sc);
            self.iterate_with(sc, self.art_start, pricing)?;
            Ok(self.extract(model))
        })();
        self.flush_stats();
        result
    }

    /// Re-optimise in place after a bound step: dual-simplex repair
    /// followed by a primal clean-up pass. A sibling re-solve
    /// ([`BoundStep::One`]) takes its reduced costs and first dual
    /// pricing row from the scratch's [`Share`], or leaves them there.
    /// Telemetry is flushed once, on every exit.
    fn reoptimize(
        &mut self,
        model: &Model,
        bounds: BoundStep<'_>,
        pricing: Pricing,
        sc: &mut Scratch,
    ) -> Result<Solution, SolveError> {
        let share = matches!(bounds, BoundStep::One { .. });
        let result = (|| {
            self.apply_bounds(bounds, &mut sc.shift)?;
            if share && sc.share.d_ready {
                sc.d.copy_from_slice(&sc.share.d);
            } else {
                self.phase2_costs(model, &mut sc.cost);
                self.reduced_costs(sc);
                if share {
                    sc.share.d.clone_from(&sc.d);
                    sc.share.d_ready = true;
                }
            }
            self.dual_iterate(sc, self.art_start, share)?;
            self.iterate_with(sc, self.art_start, pricing)?;
            Ok(self.extract(model))
        })();
        self.flush_stats();
        result
    }

    /// Phase-2 cost vector into `c`: the objective over structurals,
    /// min sense.
    fn phase2_costs(&self, model: &Model, c: &mut [f64]) {
        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        c.fill(0.0);
        for &(v, coef) in &model.objective {
            c[v.0] += sign * coef;
        }
    }

    /// Reduced costs `d = c − yᵀA` of the scratch cost vector, with
    /// `y = B⁻ᵀc_B` (one BTRAN plus a constraint-row sweep) — computed
    /// on demand at solve boundaries, then maintained per pivot from the
    /// pricing row.
    fn reduced_costs(&mut self, sc: &mut Scratch) {
        let Scratch {
            cost: c, rho: y, d, ..
        } = sc;
        for (yi, &b) in y.iter_mut().zip(&self.basis) {
            *yi = c[b];
        }
        d.copy_from_slice(c);
        if y.iter().any(|&v| v != 0.0) {
            self.btran(y);
            for (i, &p) in y.iter().enumerate() {
                if p.abs() <= DROP_EPS {
                    continue;
                }
                let (a, b) = self.row_range(i);
                for e in a..b {
                    d[self.mat.row_cols[e] as usize] -= p * self.mat.row_vals[e];
                }
                d[self.n + i] -= p;
            }
            for (k, art) in self.arts.iter().enumerate() {
                let p = y[art.row as usize];
                if p != 0.0 {
                    d[self.art_start + k] -= p * art.sign;
                }
            }
        }
        // Basic reduced costs are zero by definition; pin them so later
        // pivot updates start exact.
        for &b in &self.basis {
            d[b] = 0.0;
        }
    }

    fn row_range(&self, i: usize) -> (usize, usize) {
        (
            self.mat.row_starts[i] as usize,
            self.mat.row_starts[i + 1] as usize,
        )
    }

    /// Current value of a nonbasic column (the bound it sits at).
    fn nonbasic_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.ub[j]
        } else {
            self.lb[j]
        }
    }

    /// Dense copy of original column `j` (structural, logical unit, or
    /// signed artificial unit) into `out`.
    fn load_column(&self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        if j < self.n {
            let (a, b) = (
                self.mat.col_starts[j] as usize,
                self.mat.col_starts[j + 1] as usize,
            );
            for e in a..b {
                out[self.mat.col_rows[e] as usize] = self.mat.col_vals[e];
            }
        } else if j < self.art_start {
            out[j - self.n] = 1.0;
        } else {
            let art = self.arts[j - self.art_start];
            out[art.row as usize] = art.sign;
        }
    }

    /// `τᵀa_j` over column `j`'s nonzeros (structural sparse dot,
    /// logical unit pick, signed artificial pick).
    fn dot_column(&self, j: usize, t: &[f64]) -> f64 {
        if j < self.n {
            let (a, b) = (
                self.mat.col_starts[j] as usize,
                self.mat.col_starts[j + 1] as usize,
            );
            (a..b)
                .map(|e| t[self.mat.col_rows[e] as usize] * self.mat.col_vals[e])
                .sum()
        } else if j < self.art_start {
            t[j - self.n]
        } else {
            let art = self.arts[j - self.art_start];
            t[art.row as usize] * art.sign
        }
    }

    /// `r ← r − v·a_j` over column `j`'s nonzeros.
    fn sub_column(&self, j: usize, v: f64, r: &mut [f64]) {
        if j < self.n {
            let (a, b) = (
                self.mat.col_starts[j] as usize,
                self.mat.col_starts[j + 1] as usize,
            );
            for e in a..b {
                r[self.mat.col_rows[e] as usize] -= v * self.mat.col_vals[e];
            }
        } else if j < self.art_start {
            r[j - self.n] -= v;
        } else {
            let art = self.arts[j - self.art_start];
            r[art.row as usize] -= v * art.sign;
        }
    }

    /// Pricing row `α = ρᵀA` over all columns (structural via the
    /// constraint-row sweep, logical `α_{n+i} = ρ_i`, artificial
    /// `σ_k·ρ_{row_k}`), recorded with its support so the per-pivot
    /// consumers can skip the zero columns.
    fn pricing_row(&self, rho: &[f64], pr: &mut PriceRow) {
        pr.clear();
        for (i, &p) in rho.iter().enumerate() {
            if p.abs() <= DROP_EPS {
                continue;
            }
            let (a, b) = self.row_range(i);
            for e in a..b {
                pr.add(self.mat.row_cols[e] as usize, p * self.mat.row_vals[e]);
            }
            pr.add(self.n + i, p);
        }
        for (k, art) in self.arts.iter().enumerate() {
            let p = rho[art.row as usize];
            if p != 0.0 {
                pr.add(self.art_start + k, p * art.sign);
            }
        }
    }

    /// Factorize the current basis matrix from the model data.
    fn factorize_basis(&mut self) -> Result<(), SolveError> {
        let mut cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(self.m);
        for &b in &self.basis {
            if b < self.n {
                let (a, e) = (
                    self.mat.col_starts[b] as usize,
                    self.mat.col_starts[b + 1] as usize,
                );
                cols.push(
                    (a..e)
                        .map(|k| (self.mat.col_rows[k], self.mat.col_vals[k]))
                        .collect(),
                );
            } else if b < self.art_start {
                cols.push(vec![((b - self.n) as u32, 1.0)]);
            } else {
                let art = self.arts[b - self.art_start];
                cols.push(vec![(art.row, art.sign)]);
            }
        }
        // A singular basis is numerical trouble, not infeasibility: use
        // the iteration-limit channel so warm paths fall back to cold.
        let lu = LuFactors::factorize(self.m, &cols).map_err(|_| SolveError::IterationLimit)?;
        self.factor = BasisFactor::new(lu);
        Ok(())
    }

    /// Rebuild the factorization and recompute the basic values fresh
    /// from the model data (`x_B = B⁻¹(b − N·x_N)`), shedding the drift
    /// the eta-file updates accumulated.
    fn refactorize(&mut self) -> Result<(), SolveError> {
        self.stats.refactorizations += 1;
        self.factorize_basis()?;
        let mut r = self.mat.rhs_b.clone();
        for j in 0..self.cols {
            if self.basis_pos[j] == usize::MAX {
                let v = self.nonbasic_value(j);
                if v != 0.0 {
                    self.sub_column(j, v, &mut r);
                }
            }
        }
        self.ftran(&mut r);
        #[cfg(feature = "check-invariants")]
        for (i, (&fresh, &held)) in r.iter().zip(&self.xb).enumerate() {
            assert!(
                (fresh - held).abs() <= 1e-4 * (1.0 + held.abs()),
                "refactorization moved basic value {i}: maintained {held}, recomputed {fresh}"
            );
        }
        self.xb.copy_from_slice(&r);
        Ok(())
    }

    /// Refactorize a solved state's basis before other solves replay it
    /// (branch and bound's fractional root): every warm start below
    /// then solves through a fresh LU instead of the eta file this
    /// state's own solve left behind. A basis that no longer factorizes
    /// keeps its eta file and basic values.
    pub(crate) fn refresh_factors(&mut self) {
        let _ = self.refactorize();
        self.flush_stats();
    }

    /// The eta count, basis, bound sides and basic values: what two
    /// solves that took the same pivots agree on exactly.
    pub(crate) fn basis_snapshot(&self) -> (usize, Vec<usize>, Vec<bool>, Vec<f64>) {
        (
            self.factor.eta_count(),
            self.basis.clone(),
            self.at_upper.clone(),
            self.xb.clone(),
        )
    }

    /// `B⁻¹x` in place, counting the result's and the replayed etas'
    /// nonzeros.
    fn ftran(&mut self, x: &mut [f64]) {
        self.stats.ftran_nnz += self.factor.ftran(x);
        self.stats.eta_nnz += self.factor.eta_nnz();
    }

    /// `B⁻ᵀx` in place, counting as [`RevisedState::ftran`] does.
    fn btran(&mut self, x: &mut [f64]) {
        self.stats.btran_nnz += self.factor.btran(x);
        self.stats.eta_nnz += self.factor.eta_nnz();
    }

    /// Retarget structural bounds (warm start): nonbasic structurals are
    /// re-seated on a finite bound under the new interval and the basic
    /// values shifted through one FTRAN of the accumulated column delta
    /// (batched in `shift`). A [`BoundStep::One`] is the single-column
    /// case: a column whose interval is unchanged contributes no delta,
    /// so the shift it batches is bit-identical.
    fn apply_bounds(&mut self, bounds: BoundStep<'_>, shift: &mut [f64]) -> Result<(), SolveError> {
        shift.fill(0.0);
        let any = match bounds {
            BoundStep::All { lb, ub } => {
                let mut any = false;
                for j in 0..self.n {
                    any |= self.retarget(j, lb[j], ub[j], shift)?;
                }
                any
            }
            BoundStep::One { col, lb, ub } => self.retarget(col, lb, ub, shift)?,
        };
        if any {
            self.ftran(shift);
            for (x, &s) in self.xb.iter_mut().zip(shift.iter()) {
                *x -= s;
            }
        }
        Ok(())
    }

    /// Give structural `j` the interval `[nl, nu]`. A nonbasic `j` is
    /// re-seated on a finite bound and its move batched into `shift`;
    /// returns whether it moved.
    fn retarget(
        &mut self,
        j: usize,
        nl: f64,
        nu: f64,
        shift: &mut [f64],
    ) -> Result<bool, SolveError> {
        let mut moved = false;
        if self.basis_pos[j] == usize::MAX {
            let old = self.nonbasic_value(j);
            let (new, up) = if self.at_upper[j] {
                if nu.is_finite() {
                    (nu, true)
                } else {
                    (nl, false)
                }
            } else if nl.is_finite() {
                (nl, false)
            } else {
                (nu, true)
            };
            if !new.is_finite() {
                return Err(SolveError::BadModel(
                    "warm start requires a finite bound per nonbasic variable".into(),
                ));
            }
            let delta = new - old;
            if delta != 0.0 {
                // x_B −= B⁻¹a_j·Δ; batch the columns, solve once.
                self.sub_column(j, -delta, shift);
                moved = true;
            }
            self.at_upper[j] = up;
        }
        self.lb[j] = nl;
        self.ub[j] = nu;
        Ok(moved)
    }

    /// Primal bounded-variable simplex on the scratch reduced costs `d`
    /// until no nonbasic column priced below `col_limit` can improve.
    /// Pricing weights (devex or steepest-edge) live for exactly one
    /// call, as in the tableau engine, so a solve stays a pure function
    /// of `(model, bounds, basis)`.
    fn iterate_with(
        &mut self,
        sc: &mut Scratch,
        col_limit: usize,
        pricing: Pricing,
    ) -> Result<(), SolveError> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
        let weighted = !matches!(pricing, Pricing::Dantzig);
        let Scratch {
            ecol,
            rho,
            tau,
            pr,
            weights,
            viol,
            d,
            ..
        } = sc;
        weights.fill(1.0);
        // Maintained violation array for the weighted rules: `viol[j]`
        // is the entering violation of candidate `j` (−∞ for basic,
        // fixed, or out-of-limit columns), refreshed from the pricing
        // row's support after every pivot so the entering scan reads
        // two arrays instead of six.
        viol.fill(f64::NEG_INFINITY);
        let mut active = 0u64;
        if weighted {
            for (j, slot) in viol.iter_mut().enumerate().take(col_limit) {
                let v = self.entering_viol(j, d);
                if v != f64::NEG_INFINITY {
                    active += 1;
                }
                *slot = v;
            }
        }
        // Set right after a stability refactorization so one bad pivot
        // cannot refactorize in a loop.
        let mut fresh = false;
        for iter in 0..max_iter {
            let bland = iter >= self.params.bland_after;
            let enter = if weighted && !bland {
                self.choose_entering_weighted(viol, active, weights)
            } else {
                self.choose_entering(d, col_limit, bland)
            };
            let Some(enter) = enter else {
                return Ok(());
            };
            let dir = if self.at_upper[enter] { -1.0 } else { 1.0 };
            self.load_column(enter, ecol);
            self.ftran(ecol);
            match self.ratio_test(enter, dir, ecol) {
                Step::Unbounded => return Err(SolveError::Unbounded),
                Step::Flip => {
                    let span = self.ub[enter] - self.lb[enter];
                    let delta = dir * span;
                    #[cfg(feature = "check-invariants")]
                    assert_monotone_step(d[enter], delta, "bound flip");
                    for (x, &e) in self.xb.iter_mut().zip(ecol.iter()) {
                        *x -= e * delta;
                    }
                    self.at_upper[enter] = !self.at_upper[enter];
                    if weighted {
                        self.refresh_viol(enter, col_limit, d, viol, &mut active);
                    }
                    self.stats.flips += 1;
                    fresh = false;
                }
                Step::Pivot {
                    row,
                    target,
                    leave_at_upper,
                } => {
                    rho.fill(0.0);
                    rho[row] = 1.0;
                    self.btran(rho);
                    self.pricing_row(rho, pr);
                    // Stability trigger: the pivot element computed
                    // through FTRAN and through BTRAN must agree.
                    let (pf, pb) = (ecol[row], pr.alpha[enter]);
                    if !fresh && (pf - pb).abs() > STAB_EPS * (1.0 + pf.abs().max(pb.abs())) {
                        self.refactorize()?;
                        fresh = true;
                        continue;
                    }
                    #[cfg(feature = "check-invariants")]
                    assert_monotone_step(d[enter], (self.xb[row] - target) / ecol[row], "pivot");
                    if (self.xb[row] - target).abs() <= EPS {
                        self.stats.degenerate += 1;
                    }
                    if weighted {
                        match pricing {
                            Pricing::SteepestEdge => {
                                self.steepest_update(weights, enter, row, ecol, pr, tau)
                            }
                            _ => self.devex_update(weights, enter, row, pr),
                        }
                    }
                    self.pivot_apply(row, enter, target, leave_at_upper, d, ecol, pr)?;
                    if weighted {
                        // Reduced costs changed exactly on the
                        // pricing row's support (plus the basis
                        // swap, whose columns the support covers).
                        for idx in 0..pr.support.len() {
                            let j = pr.support[idx] as usize;
                            self.refresh_viol(j, col_limit, d, viol, &mut active);
                        }
                    }
                    self.stats.pivots += 1;
                    fresh = false;
                }
            }
        }
        Err(SolveError::IterationLimit)
    }

    /// Exact steepest-edge update (Forrest–Goldfarb): reference weights
    /// `γ_j ≈ 1 + ‖B⁻¹a_j‖²`. The entering column's exact norm is free
    /// (its FTRAN just ran); the cross terms `v_j = (B⁻ᵀd̂)ᵀa_j` cost
    /// one extra BTRAN plus sparse column dots — `γ_j` is unchanged
    /// wherever `α_j = 0`, so `v_j` is only evaluated on the pricing
    /// row's support rather than by a second full pricing sweep. When
    /// the maintained `γ_q` has drifted a factor [`SE_DRIFT`] from
    /// exact, the framework resets to unit weights.
    fn steepest_update(
        &mut self,
        weights: &mut [f64],
        enter: usize,
        row: usize,
        ecol: &[f64],
        pr: &PriceRow,
        tau: &mut [f64],
    ) {
        let exact: f64 = 1.0 + ecol.iter().map(|e| e * e).sum::<f64>();
        let held = weights[enter].max(1.0);
        if held < exact / SE_DRIFT || held > exact * SE_DRIFT {
            weights.fill(1.0);
            self.stats.steepest_resets += 1;
        }
        let aq = ecol[row];
        tau.copy_from_slice(ecol);
        self.btran(tau);
        let leave = self.basis[row];
        for &ju in &pr.support {
            let j = ju as usize;
            if j == enter || self.basis_pos[j] != usize::MAX {
                continue;
            }
            let a = pr.alpha[j];
            if a == 0.0 {
                continue;
            }
            let r = a / aq;
            let v = self.dot_column(j, tau);
            weights[j] = (weights[j] - 2.0 * r * v + r * r * exact).max(1.0 + r * r);
        }
        weights[leave] = (exact / (aq * aq)).max(1.0 + 1.0 / (aq * aq));
        weights[enter] = 1.0;
    }

    /// Devex reference-weight update on the dense pricing row — the same
    /// recurrence as the tableau engine's (`w_j ← max(w_j, (α_j/α_q)²·
    /// w_q)`), with the [`DEVEX_RESET`] overflow reset.
    fn devex_update(&mut self, w: &mut [f64], enter: usize, row: usize, pr: &PriceRow) {
        let aq = pr.alpha[enter];
        let wq = w[enter].max(1.0);
        let leave = self.basis[row];
        let mut wmax = 0.0f64;
        for &ju in &pr.support {
            let j = ju as usize;
            if j == enter {
                continue;
            }
            let a = pr.alpha[j];
            if a == 0.0 {
                continue;
            }
            let p = a / aq;
            let cand = p * p * wq;
            if cand > w[j] {
                w[j] = cand;
            }
            if w[j] > wmax {
                wmax = w[j];
            }
        }
        w[leave] = (wq / (aq * aq)).max(1.0);
        w[enter] = 1.0;
        self.stats.devex_pivots += 1;
        if wmax.max(w[leave]) > DEVEX_RESET {
            w.fill(1.0);
            self.stats.devex_resets += 1;
        }
    }

    /// Violation of candidate `j` under the current reduced costs:
    /// positive means entering improves the objective; −∞ marks basic
    /// or fixed columns (never eligible).
    fn entering_viol(&self, j: usize, d: &[f64]) -> f64 {
        if self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
            return f64::NEG_INFINITY;
        }
        if self.at_upper[j] {
            d[j]
        } else {
            -d[j]
        }
    }

    /// Refresh one entry of the maintained violation array (and the
    /// live-candidate count) after its reduced cost, bound side, or
    /// basis membership changed.
    fn refresh_viol(
        &self,
        j: usize,
        col_limit: usize,
        d: &[f64],
        viol: &mut [f64],
        active: &mut u64,
    ) {
        if j >= col_limit {
            return;
        }
        let was = viol[j] != f64::NEG_INFINITY;
        let now = self.entering_viol(j, d);
        viol[j] = now;
        match (was, now != f64::NEG_INFINITY) {
            (false, true) => *active += 1,
            (true, false) => *active -= 1,
            _ => {}
        }
    }

    /// Weighted entering choice: the candidate maximising `viol²/w`
    /// over all positive violations, ties on lowest index. `viol` is
    /// the maintained violation array (−∞ for non-candidates) and
    /// `active` the number of live candidates it holds.
    fn choose_entering_weighted(&mut self, viol: &[f64], active: u64, w: &[f64]) -> Option<usize> {
        self.stats.scanned += active;
        let mut best = None;
        let mut best_score = 0.0f64;
        for (j, &v) in viol.iter().enumerate() {
            if v > COST_EPS {
                let score = v * v / w[j];
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
        }
        best
    }

    /// Dantzig (largest violation) or Bland (lowest index) entering
    /// choice over a full scan. The revised engine always scans fully:
    /// reduced costs are dense and up to date, so partial pricing would
    /// save nothing.
    fn choose_entering(&mut self, d: &[f64], col_limit: usize, bland: bool) -> Option<usize> {
        let mut best = None;
        let mut best_score = COST_EPS;
        for (j, &dj) in d.iter().enumerate().take(col_limit) {
            if self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
                continue;
            }
            self.stats.scanned += 1;
            let score = if self.at_upper[j] { dj } else { -dj };
            if score > best_score {
                if bland {
                    return Some(j);
                }
                best_score = score;
                best = Some(j);
            }
        }
        best
    }

    /// Bounded ratio test for `enter` moving in direction `dir` (its
    /// FTRAN'd column in `ecol`): the tableau engine's logic and
    /// tie-breaks, except that entries below [`PIVOT_REL`] of the
    /// column's largest are never pivots.
    fn ratio_test(&self, enter: usize, dir: f64, ecol: &[f64]) -> Step {
        let span = self.ub[enter] - self.lb[enter]; // may be ∞
        let tol = pivot_tol(ecol.iter().copied());
        let mut best_step = span;
        let mut best: Option<(usize, f64, bool)> = None; // (row, target, at_upper)
        for (i, &e) in ecol.iter().enumerate() {
            let rate = dir * e;
            let b = self.basis[i];
            let value = self.xb[i];
            let (limit, target, leave_at_upper) = if rate > tol {
                if self.lb[b].is_finite() {
                    ((value - self.lb[b]) / rate, self.lb[b], false)
                } else {
                    continue;
                }
            } else if rate < -tol {
                if self.ub[b].is_finite() {
                    ((self.ub[b] - value) / -rate, self.ub[b], true)
                } else {
                    continue;
                }
            } else {
                continue;
            };
            let limit = limit.max(0.0); // tolerate tiny bound violations
            let replaces = match best {
                _ if limit < best_step - EPS => true,
                Some((bi, _, _)) => limit < best_step + EPS && self.basis[i] < self.basis[bi],
                None => limit < best_step + EPS && limit < span,
            };
            if replaces {
                best_step = limit.min(best_step);
                best = Some((i, target, leave_at_upper));
            }
        }
        match best {
            Some((row, target, leave_at_upper)) => Step::Pivot {
                row,
                target,
                leave_at_upper,
            },
            None if span.is_finite() => Step::Flip,
            None => Step::Unbounded,
        }
    }

    /// Dual simplex repair: same leaving/entering rules as the tableau
    /// engine, with the pricing row reconstructed per iteration by one
    /// BTRAN, and the same stability/refactorization policy as the
    /// primal loop. With `share`, the first iteration's pricing row is
    /// the sibling [`Share`]'s when both chose the same leaving row, and
    /// lands there when no sibling has chosen one yet.
    fn dual_iterate(
        &mut self,
        sc: &mut Scratch,
        col_limit: usize,
        share: bool,
    ) -> Result<(), SolveError> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
        let Scratch {
            ecol,
            rho,
            pr: own,
            d,
            share: shared,
            ..
        } = sc;
        let mut fresh = false;
        for iter in 0..max_iter {
            // Leaving row: the largest bound violation.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, below)
            for i in 0..self.m {
                let b = self.basis[i];
                let v = self.xb[i];
                let (viol, below) = if v < self.lb[b] - FEAS_EPS {
                    (self.lb[b] - v, true)
                } else if v > self.ub[b] + FEAS_EPS {
                    (v - self.ub[b], false)
                } else {
                    continue;
                };
                if leave.is_none_or(|(_, w, _)| viol > w) {
                    leave = Some((i, viol, below));
                }
            }
            let Some((row, _, below)) = leave else {
                return Ok(()); // primal feasible
            };
            let b = self.basis[row];
            let target = if below { self.lb[b] } else { self.ub[b] };

            // Until its first pivot a sibling holds the parent's factors,
            // so its first pricing row of a given leaving row is the
            // parent's.
            let pr: &PriceRow = if share && iter == 0 && shared.row == Some(row) {
                self.stats.shared_rows += 1;
                &shared.pr
            } else {
                let into = if share && iter == 0 && shared.row.is_none() {
                    shared.pr.fit(self.cols);
                    shared.row = Some(row);
                    &mut shared.pr
                } else {
                    &mut *own
                };
                rho.fill(0.0);
                rho[row] = 1.0;
                self.btran(rho);
                self.pricing_row(rho, into);
                into
            };

            // Entering column by the dual ratio test over the row's
            // entries (ascending scan keeps the tableau tie-breaks),
            // with the primal test's relative pivot tolerance. Zero
            // entries, most of the row, are skipped before the
            // candidate checks.
            let candidate =
                |j: usize| self.basis_pos[j] == usize::MAX && self.ub[j] - self.lb[j] > EPS;
            let tol = pivot_tol(
                pr.support
                    .iter()
                    .map(|&j| j as usize)
                    .filter(|&j| j < col_limit && candidate(j))
                    .map(|j| pr.alpha[j]),
            );
            let mut enter: Option<(usize, f64)> = None;
            for (j, &a) in pr.alpha.iter().enumerate().take(col_limit) {
                if a.abs() <= tol || !candidate(j) {
                    continue;
                }
                let eligible = if below {
                    (!self.at_upper[j] && a < 0.0) || (self.at_upper[j] && a > 0.0)
                } else {
                    (!self.at_upper[j] && a > 0.0) || (self.at_upper[j] && a < 0.0)
                };
                if !eligible {
                    continue;
                }
                let ratio = (d[j] / a).abs();
                if enter.is_none_or(|(_, r)| ratio < r - EPS) {
                    enter = Some((j, ratio));
                }
            }
            let Some((col, _)) = enter else {
                return Err(SolveError::Infeasible);
            };
            self.load_column(col, ecol);
            self.ftran(ecol);
            let (pf, pb) = (ecol[row], pr.alpha[col]);
            if !fresh && (pf - pb).abs() > STAB_EPS * (1.0 + pf.abs().max(pb.abs())) {
                self.refactorize()?;
                fresh = true;
                continue;
            }
            self.pivot_apply(row, col, target, !below, d, ecol, pr)?;
            self.stats.pivots += 1;
            self.stats.dual_pivots += 1;
            fresh = false;
        }
        Err(SolveError::IterationLimit)
    }

    /// Apply a pivot: `col` becomes basic at `row`, the leaving variable
    /// lands on `target`. Basic values move along the entering column,
    /// reduced costs along the pricing row, the eta file grows by one,
    /// and the periodic refactorization policy runs.
    #[allow(clippy::too_many_arguments)]
    fn pivot_apply(
        &mut self,
        row: usize,
        col: usize,
        target: f64,
        leave_at_upper: bool,
        d: &mut [f64],
        ecol: &[f64],
        pr: &PriceRow,
    ) -> Result<(), SolveError> {
        let aq = ecol[row];
        debug_assert!(aq.abs() > EPS);
        let delta = (self.xb[row] - target) / aq;
        let entering_value = self.nonbasic_value(col) + delta;

        for (i, (x, &e)) in self.xb.iter_mut().zip(ecol).enumerate() {
            if i != row && e != 0.0 {
                *x -= e * delta;
            }
        }

        let leave = self.basis[row];
        self.at_upper[leave] = leave_at_upper;
        self.basis_pos[leave] = usize::MAX;
        self.basis[row] = col;
        self.basis_pos[col] = row;
        self.xb[row] = entering_value;

        // d′_j = d_j − (d_q/α_q)·α_j over the pricing row's support
        // (off-support reduced costs are unchanged); exact zeros for
        // the new basic and the textbook value for the leaver.
        let factor = d[col] / aq;
        if factor != 0.0 {
            for &ju in &pr.support {
                let j = ju as usize;
                d[j] -= factor * pr.alpha[j];
            }
        }
        d[col] = 0.0;
        d[leave] = -factor;

        self.factor.push_eta(row, ecol);
        self.stats.eta_updates += 1;
        if self.factor.eta_count() >= self.params.refactor_after {
            self.refactorize()?;
        }
        #[cfg(feature = "check-invariants")]
        self.assert_invariants("pivot");
        Ok(())
    }

    /// After phase 1: pivot basic artificials (at value 0) out where a
    /// real column has a nonzero pricing-row entry (redundant rows keep
    /// theirs), then freeze every artificial at `[0, 0]`.
    fn expel_and_freeze_artificials(&mut self, sc: &mut Scratch) -> Result<(), SolveError> {
        let Scratch {
            ecol, rho, pr, d, ..
        } = sc;
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                rho.fill(0.0);
                rho[i] = 1.0;
                self.btran(rho);
                self.pricing_row(rho, pr);
                let col = (0..self.art_start)
                    .find(|&j| self.basis_pos[j] == usize::MAX && pr.alpha[j].abs() > 1e-7);
                if let Some(col) = col {
                    self.load_column(col, ecol);
                    self.ftran(ecol);
                    self.pivot_apply(i, col, 0.0, false, d, ecol, pr)?;
                    self.stats.pivots += 1;
                }
            }
        }
        for j in self.art_start..self.cols {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
        }
        #[cfg(feature = "check-invariants")]
        self.assert_invariants("artificial expulsion");
        Ok(())
    }

    /// Read the structural solution and objective off the state.
    fn extract(&self, model: &Model) -> Solution {
        let mut x = vec![0.0; self.n];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = if self.basis_pos[j] != usize::MAX {
                self.xb[self.basis_pos[j]]
            } else {
                self.nonbasic_value(j)
            };
        }
        let objective: f64 = model
            .objective
            .iter()
            .map(|&(v, coef)| coef * x[v.0])
            .sum::<f64>()
            + model.objective_const;
        Solution::new(objective, x)
    }

    /// Add the per-solve counters to telemetry and to this thread's
    /// [`Work`], and zero them. Every solve flushes once, on each of
    /// its exits.
    fn flush_stats(&mut self) {
        let s = self.stats;
        self.stats = Stats::default();
        FLUSHED.with(|w| {
            let t = w.get();
            w.set(Work {
                pivots: t.pivots + s.pivots,
                eta_updates: t.eta_updates + s.eta_updates,
                refactorizations: t.refactorizations + s.refactorizations,
                shared_rows: t.shared_rows + s.shared_rows,
            });
        });
        vb_telemetry::counter!("solver.pivots").add(s.pivots);
        vb_telemetry::counter!("solver.pricing_cols_scanned").add(s.scanned);
        vb_telemetry::counter!("solver.ftran_nnz").add(s.ftran_nnz);
        vb_telemetry::counter!("solver.btran_nnz").add(s.btran_nnz);
        vb_telemetry::counter!("solver.eta_nnz").add(s.eta_nnz);
        if s.dual_pivots > 0 {
            vb_telemetry::counter!("solver.dual_pivots").add(s.dual_pivots);
        }
        if s.flips > 0 {
            vb_telemetry::counter!("solver.bound_flips").add(s.flips);
        }
        if s.degenerate > 0 {
            vb_telemetry::counter!("solver.degenerate_pivots").add(s.degenerate);
        }
        if s.devex_pivots > 0 {
            vb_telemetry::counter!("solver.devex_pivots").add(s.devex_pivots);
        }
        if s.devex_resets > 0 {
            vb_telemetry::counter!("solver.devex_resets").add(s.devex_resets);
        }
        if s.refactorizations > 0 {
            vb_telemetry::counter!("solver.refactorizations").add(s.refactorizations);
        }
        if s.eta_updates > 0 {
            vb_telemetry::counter!("solver.eta_updates").add(s.eta_updates);
        }
        if s.steepest_resets > 0 {
            vb_telemetry::counter!("solver.steepest_resets").add(s.steepest_resets);
        }
        if s.shared_rows > 0 {
            vb_telemetry::counter!("solver.shared_pricing_rows").add(s.shared_rows);
        }
    }

    /// Algebraic self-checks behind the `check-invariants` feature:
    ///
    /// 1. `basis`/`basis_pos` form a consistent bijection and every
    ///    nonbasic column sits on a finite bound (as in the tableau
    ///    engine);
    /// 2. the **constraint residual** `‖A·x − b‖` is small row by row,
    ///    with `x` assembled from the basic values and nonbasic bounds —
    ///    the factorized engine's counterpart of the tableau's unit
    ///    basic-column check (and the check the refactorization-
    ///    consistency assert complements from the other side).
    #[cfg(feature = "check-invariants")]
    fn assert_invariants(&self, ctx: &str) {
        assert_eq!(self.basis.len(), self.m, "basis length drifted after {ctx}");
        let mut seen = vec![false; self.cols];
        for (i, &b) in self.basis.iter().enumerate() {
            assert!(
                b < self.cols,
                "row {i}: basic column {b} out of range after {ctx}"
            );
            assert!(!seen[b], "column {b} basic in two rows after {ctx}");
            seen[b] = true;
            assert_eq!(
                self.basis_pos[b], i,
                "basis_pos[{b}] disagrees with basis[{i}] after {ctx}"
            );
            assert!(
                self.xb[i].is_finite(),
                "row {i}: non-finite basic value after {ctx}"
            );
        }
        let n_basic = self.basis_pos.iter().filter(|&&p| p != usize::MAX).count();
        assert_eq!(n_basic, self.m, "basic column count != m after {ctx}");
        for j in 0..self.cols {
            if self.basis_pos[j] == usize::MAX {
                assert!(
                    self.nonbasic_value(j).is_finite(),
                    "nonbasic column {j} rests on a non-finite bound after {ctx}"
                );
            }
        }

        // ‖A·x − b‖ residual, accumulated column-wise with a per-row
        // magnitude scale so well-conditioned rows get a tight check.
        let mut resid: Vec<f64> = self.mat.rhs_b.iter().map(|&b| -b).collect();
        let mut scale: Vec<f64> = self.mat.rhs_b.iter().map(|&b| b.abs()).collect();
        for j in 0..self.cols {
            let v = if self.basis_pos[j] != usize::MAX {
                self.xb[self.basis_pos[j]]
            } else {
                self.nonbasic_value(j)
            };
            if v == 0.0 {
                continue;
            }
            self.sub_column(j, -v, &mut resid);
            if j < self.n {
                let (a, b) = (
                    self.mat.col_starts[j] as usize,
                    self.mat.col_starts[j + 1] as usize,
                );
                for e in a..b {
                    scale[self.mat.col_rows[e] as usize] += (self.mat.col_vals[e] * v).abs();
                }
            } else if j < self.art_start {
                scale[j - self.n] += v.abs();
            } else {
                scale[self.arts[j - self.art_start].row as usize] += v.abs();
            }
        }
        for (i, (&r, &s)) in resid.iter().zip(&scale).enumerate() {
            assert!(
                r.abs() <= 1e-6 * (1.0 + s),
                "row {i}: constraint residual {r} (scale {s}) after {ctx}"
            );
        }
    }
}

/// The smallest usable pivot magnitude among `entries`: the absolute
/// [`EPS`], raised to [`PIVOT_REL`] of the largest entry.
fn pivot_tol(entries: impl Iterator<Item = f64>) -> f64 {
    EPS.max(PIVOT_REL * entries.fold(0.0, |m: f64, a| m.max(a.abs())))
}

/// Objective monotonicity for primal steps (dual repair is exempt) —
/// identical to the tableau engine's check.
#[cfg(feature = "check-invariants")]
fn assert_monotone_step(d_enter: f64, travel: f64, what: &str) {
    let change = d_enter * travel;
    assert!(
        change <= FEAS_EPS * (1.0 + travel.abs()),
        "objective increased by {change} on a primal {what} \
         (reduced cost {d_enter}, travel {travel})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::simplex;

    fn sample_lp() -> Model {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 -> x=2,y=6, obj 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0)]);
        m.add_le(e, 4.0);
        let e = m.expr(&[(y, 2.0)]);
        m.add_le(e, 12.0);
        let e = m.expr(&[(x, 3.0), (y, 2.0)]);
        m.add_le(e, 18.0);
        let obj = m.expr(&[(x, 3.0), (y, 5.0)]);
        m.set_objective(obj);
        m
    }

    #[test]
    fn matches_tableau_on_classic_lp() {
        let m = sample_lp();
        for pricing in [Pricing::Dantzig, Pricing::Devex, Pricing::SteepestEdge] {
            let (sol, _) = solve_lp_state(&m, &[], None, pricing).unwrap();
            assert!((sol.objective - 36.0).abs() < 1e-6, "obj {}", sol.objective);
        }
    }

    #[test]
    fn phase1_and_equalities() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1, obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (y, 2.0)]);
        m.add_eq(e, 4.0);
        let e = m.expr(&[(x, 1.0), (y, -1.0)]);
        m.add_eq(e, 1.0);
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        let (sol, _) = solve_lp_state(&m, &[], None, Pricing::SteepestEdge).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        let v = sol.values();
        assert!((v[0] - 2.0).abs() < 1e-6 && (v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_and_unbounded_are_reported() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 1.0);
        let e = m.expr(&[(x, 1.0)]);
        m.add_ge(e, 2.0);
        assert!(matches!(
            solve_lp_state(&m, &[], None, Pricing::SteepestEdge),
            Err(SolveError::Infeasible)
        ));

        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (y, -1.0)]);
        m.add_le(e, 1.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert!(matches!(
            solve_lp_state(&m, &[], None, Pricing::SteepestEdge),
            Err(SolveError::Unbounded)
        ));
    }

    #[test]
    fn warm_start_with_branching_bounds() {
        let m = sample_lp();
        let (_, root) = solve_lp_state(&m, &[], None, Pricing::SteepestEdge).unwrap();
        // Branch x <= 1: warm must agree with cold.
        let x = VarId(0);
        let (warm_sol, _) =
            solve_lp_state(&m, &[(x, 0.0, 1.0)], Some(&root), Pricing::SteepestEdge).unwrap();
        let (cold_sol, _) =
            solve_lp_state(&m, &[(x, 0.0, 1.0)], None, Pricing::SteepestEdge).unwrap();
        assert!(
            (warm_sol.objective - cold_sol.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm_sol.objective,
            cold_sol.objective
        );
    }

    /// max Σ c_j x_j over four resource rows, 0 ≤ x_j ≤ 4: enough
    /// pivots to leave an eta file behind.
    fn resource_lp() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<VarId> = (0..6).map(|j| m.var(&format!("x{j}"), 0.0, 4.0)).collect();
        let rows = [
            ([3.0, 1.0, 2.0, 0.0, 1.0, 2.0], 12.0),
            ([1.0, 4.0, 0.0, 2.0, 1.0, 1.0], 10.0),
            ([2.0, 0.0, 3.0, 1.0, 2.0, 0.0], 11.0),
            ([0.0, 2.0, 1.0, 3.0, 0.0, 2.0], 9.0),
        ];
        for (coefs, rhs) in rows {
            let terms: Vec<(VarId, f64)> = x
                .iter()
                .zip(coefs)
                .filter(|&(_, a)| a != 0.0)
                .map(|(&v, a)| (v, a))
                .collect();
            let e = m.expr(&terms);
            m.add_le(e, rhs);
        }
        let gains = [5.0, 4.0, 6.0, 3.0, 2.0, 4.5];
        let terms: Vec<(VarId, f64)> = x.iter().copied().zip(gains).collect();
        let obj = m.expr(&terms);
        m.set_objective(obj);
        m
    }

    fn solution_bits(sol: &Solution) -> Vec<u64> {
        std::iter::once(sol.objective.to_bits())
            .chain(sol.values().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn cloned_states_share_factors_and_survive_a_sibling_refactorization() {
        let m = resource_lp();
        let params = Params {
            refactor_after: 3,
            bland_after: BLAND_AFTER,
        };
        let (_, parent) =
            solve_lp_state_params(&m, &[], None, Pricing::SteepestEdge, params).unwrap();
        assert!(
            parent.factor.eta_count() > 0,
            "the parent keeps an eta file"
        );
        let mut driven = parent.clone();
        let sibling = parent.clone();
        assert!(driven.factor.shares_lu_with(&parent.factor));
        assert!(sibling.factor.shares_lu_with(&parent.factor));

        let resolve = |st: &RevisedState, fix: (VarId, f64, f64)| {
            let (sol, _) = solve_lp_state(&m, &[fix], Some(st), Pricing::SteepestEdge).unwrap();
            solution_bits(&sol)
        };
        let parent_fix = (VarId(0), 0.0, 1.0);
        let sibling_fix = (VarId(5), 0.0, 0.5);
        let parent_before = resolve(&parent, parent_fix);
        let sibling_before = resolve(&sibling, sibling_fix);

        // Re-optimise one sibling in place under tightened bounds, past
        // the refactorization interval.
        let lb = vec![0.0; 6];
        let ub = vec![0.5, 0.25, 0.5, 0.25, 4.0, 0.5];
        with_scratch(driven.m, driven.cols, |sc| {
            let bounds = BoundStep::All { lb: &lb, ub: &ub };
            driven.reoptimize(&m, bounds, Pricing::SteepestEdge, sc)
        })
        .unwrap();
        assert!(
            !driven.factor.shares_lu_with(&parent.factor),
            "the driven sibling refactorized onto its own factors"
        );
        assert!(sibling.factor.shares_lu_with(&parent.factor));

        assert_eq!(resolve(&parent, parent_fix), parent_before);
        assert_eq!(resolve(&sibling, sibling_fix), sibling_before);
    }

    #[test]
    fn tiny_refactor_interval_matches_default() {
        // Forcing a refactorization every 2 pivots must not change the
        // optimum (it only swaps eta solves for fresh factors).
        let m = sample_lp();
        let tight = Params {
            refactor_after: 2,
            bland_after: 3,
        };
        let (sol, st) = solve_lp_state_params(&m, &[], None, Pricing::SteepestEdge, tight).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!(st.params.refactor_after == 2);
        let (dense_sol, _) = simplex::solve_lp_state(&m, &[], None).unwrap();
        assert!((sol.objective - dense_sol.objective).abs() < 1e-9);
    }
}
