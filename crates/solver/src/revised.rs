//! Revised simplex on a factorized LU basis — the LP engine behind
//! every solve in this crate.
//!
//! The basis is kept as a sparse Markowitz-ordered LU factorization
//! plus a product-form eta file (the crate-private `factor` and `ftran`
//! modules) rather than as an explicit tableau, and per-iteration data
//! is reconstructed on demand:
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
//! FTRAN and via BTRAN must agree to a relative `1e-7`, otherwise the
//! factors have degraded and the iteration is retried on fresh ones.
//! Branch and bound also rebuilds a fractional root's factors once
//! (`RevisedState::refresh_factors`), because every solve below the
//! root would otherwise replay the root solve's eta file.
//!
//! Entering columns are priced by **steepest edge**: the reference
//! weights `γ_j = 1 + ‖B⁻¹a_j‖²` are maintained by the Forrest–Goldfarb
//! recurrence (one extra BTRAN per pivot), with a reset to the unit
//! framework whenever the maintained entering weight drifts a factor of
//! 4 from its exact value. After [`Params::bland_after`] primal
//! iterations the entering choice falls back to Bland's lowest-index
//! rule, which guarantees termination on cycling-prone models. Every
//! tie breaks by lowest index, so a solve is a deterministic function
//! of the model.
//!
//! Construction of a cold solve:
//!
//! 1. Every constraint `a·x ⋈ b` becomes an equality `a·x + s = b` with
//!    a *logical* variable `s` bounded by the constraint type
//!    (`≤`: `s ∈ [0, ∞)`, `≥`: `s ∈ (−∞, 0]`, `=`: `s ∈ [0, 0]`).
//!    Variable bounds never become rows: every column carries its own
//!    `[lb, ub]`, nonbasic columns sit at either bound, and the ratio
//!    test admits **bound flips**, so a model with thousands of
//!    placement binaries solves with one row per *constraint*.
//! 2. Structural variables start nonbasic at their lower bound; rows
//!    whose residual fits the logical's interval take the logical as the
//!    initial basic variable, the rest get a signed phase-1 artificial.
//! 3. **Phase 1** minimises the sum of artificials (positive optimum ⇒
//!    infeasible), then artificials are expelled and frozen at zero.
//! 4. **Phase 2** minimises the real objective (maximisation by
//!    negation) with artificials barred from entering.
//!
//! A solved [`RevisedState`] is a **warm start** for the same model
//! under different variable bounds — exactly branch and bound's
//! setting: the child clones its parent's state, applies the new
//! bounds (which preserves dual feasibility — reduced costs do not
//! depend on bounds), repairs primal feasibility with a dual-simplex
//! phase, and finishes with a primal clean-up pass. A clone shares the
//! constraint matrix, LU factors and eta entries with its parent.
//!
//! Branch and bound re-solves a node's two children through one
//! `Siblings` rather than two independent warm starts: each child
//! changes one bound of a copy of the same parent (the last child
//! re-solves in the parent itself, which the search no longer needs),
//! so the children share the parent's reduced costs and, when both
//! leave on the same row, the first dual pricing row, and each applies
//! only its one changed bound. Every shared value is what each copy
//! would compute itself, so the pivots match independent warm starts
//! bit for bit. Under a branch-and-bound cutoff a child stops before a
//! dual pivot once its objective shows it cannot beat the incumbent.
//!
//! The dual ratio test takes one pass over the pricing row's support:
//! it finds the pivot tolerance and marks the eligible columns in a
//! bitset, then picks the entering column from the marked ones in
//! ascending order, exactly as a scan of every column would.

use crate::branch::Cutoff;
use crate::factor::LuFactors;
use crate::ftran::BasisFactor;
use crate::model::{Cmp, Model, Sense, Solution, SolveError, VarId};
use crate::tolerance::{BLAND_AFTER, COST_EPS, DROP_EPS, EPS, FEAS_EPS};
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
/// violation refresh) iterate the nonzeros instead of every column. An
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
    /// The dual ratio test's eligible columns, one bit each; all zero
    /// between ratio tests.
    eligible: Vec<u64>,
    /// Steepest-edge reference weights.
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
        self.eligible.resize(cols.div_ceil(64), 0);
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

/// How a warm re-solve ended without an optimum.
#[derive(Debug)]
pub(crate) enum Halt {
    /// The objective crossed the branch-and-bound [`Cutoff`]: the child
    /// cannot beat the incumbent, and the search drops it unsolved.
    Cutoff,
    /// The solve failed as a standalone solve reports it.
    Failed(SolveError),
}

impl From<SolveError> for Halt {
    fn from(e: SolveError) -> Halt {
        Halt::Failed(e)
    }
}

/// A child re-solve's outcome: its optimum and optimal state, or why it
/// has none.
pub(crate) type ChildResult = Result<(Solution, RevisedState), Halt>;

/// Outcome of the primal ratio test.
enum Step {
    Flip,
    Pivot {
        row: usize,
        target: f64,
        leave_at_upper: bool,
    },
    Unbounded,
}

/// Revised-simplex state: basis, factorization, and bounds, reusable
/// as a warm-start basis for the same model under changed bounds. A
/// clone shares the constraint matrix, the LU factors and the eta
/// file's entries with its source, and copies only the per-column and
/// per-row vectors.
#[derive(Debug, Clone)]
pub struct RevisedState {
    mat: Arc<Mat>,
    arts: Arc<Vec<ArtCol>>,
    /// Per-column bounds and bound side, laid out
    /// `[structural | logical | artificial]`.
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

/// Solve a model's LP relaxation (integrality dropped) and return the
/// optimal state alongside the solution. `bound_overrides` impose
/// `(var, lb, ub)` bounds (branch and bound's branching bounds; the
/// last entry for a variable wins), and `warm` (a previous state of the
/// *same* model) starts from that basis with a dual-simplex repair,
/// falling back to a cold solve on numerical trouble. Warm and cold
/// solves reach the same optimum, though on degenerate ties possibly a
/// different optimal vertex.
pub fn solve_lp_state(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
    warm: Option<&RevisedState>,
) -> Result<(Solution, RevisedState), SolveError> {
    solve_lp_state_params(model, bound_overrides, warm, Params::default())
}

/// [`solve_lp_state`] with explicit engine [`Params`] (test hook: small
/// `refactor_after`/`bland_after` force the update and fallback paths
/// onto small instances).
#[doc(hidden)]
pub fn solve_lp_state_params(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
    warm: Option<&RevisedState>,
    params: Params,
) -> Result<(Solution, RevisedState), SolveError> {
    let _span = vb_telemetry::span!("solver.lp_solve");
    vb_telemetry::counter!("solver.lp_solves").inc();

    let (lb, ub) = structural_bounds(model, bound_overrides)?;
    if let Some(parent) = warm {
        if parent.n == lb.len() && parent.m == model.constraints.len() {
            let mut st = parent.clone();
            let bounds = BoundStep::All { lb: &lb, ub: &ub };
            let res = with_scratch(st.m, st.cols, |sc| st.reoptimize(model, bounds, None, sc));
            match warm_outcome(res, st) {
                Some(Ok(done)) => return Ok(done),
                Some(Err(Halt::Failed(e))) => return Err(e),
                // Only a re-solve given a cutoff stops at one; anything
                // else re-solves cold.
                Some(Err(Halt::Cutoff)) | None => {}
            }
        } else {
            vb_telemetry::counter!("solver.warm_start_misses").inc();
        }
    }

    let mut st = RevisedState::build(model, lb, ub, params)?;
    let sol = with_scratch(st.m, st.cols, |sc| st.solve_cold(model, sc))?;
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

/// Count a warm re-solve's outcome. A proven-infeasible or cut-off
/// child is a successful warm start; `None` is numerical trouble, after
/// which the caller re-solves from scratch.
fn warm_outcome(res: Result<Solution, Halt>, st: RevisedState) -> Option<ChildResult> {
    match res {
        Ok(sol) => {
            vb_telemetry::counter!("solver.warm_start_hits").inc();
            Some(Ok((sol, st)))
        }
        Err(halt @ (Halt::Cutoff | Halt::Failed(SolveError::Infeasible))) => {
            vb_telemetry::counter!("solver.warm_start_hits").inc();
            Some(Err(halt))
        }
        Err(Halt::Failed(_)) => {
            vb_telemetry::counter!("solver.warm_start_misses").inc();
            None
        }
    }
}

/// Re-solves of the children of one parent state — the two children of
/// a branch-and-bound node, or the candidate fixings of one rounding-dive
/// level. Each child starts from a copy of the parent (or the parent
/// itself, once nothing else needs it) and changes one structural
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
    sc: &'a mut Scratch,
}

/// Run `f` over one parent's [`Siblings`], on this thread's scratch.
pub(crate) fn with_siblings<T>(model: &Model, f: impl FnOnce(&mut Siblings<'_>) -> T) -> T {
    SCRATCH.with(|sc| {
        let mut sc = sc.borrow_mut();
        sc.share.d_ready = false;
        sc.share.row = None;
        f(&mut Siblings { model, sc: &mut sc })
    })
}

impl<'a> Siblings<'a> {
    /// Solve the child whose structural bounds are `overrides`, starting
    /// from `start`: the parent state, or a clone of it. `overrides`
    /// must differ from the bounds the parent was solved under (on this
    /// `model`) only at `var`. Without a `cutoff`, same result, counters
    /// and cold fallback (under the parent's [`Params`]) as
    /// `solve_lp_state_params(model, overrides, Some(parent), ..)`; with
    /// one, the child stops with [`Halt::Cutoff`] before the first dual
    /// pivot at which its objective has crossed it.
    pub(crate) fn solve(
        &mut self,
        mut start: RevisedState,
        overrides: &[(VarId, f64, f64)],
        var: VarId,
        cutoff: Option<Cutoff>,
    ) -> ChildResult {
        let _span = vb_telemetry::span!("solver.lp_solve");
        vb_telemetry::counter!("solver.lp_solves").inc();

        let model = self.model;
        let col = var.0;
        let (lb, ub) = overrides
            .iter()
            .rev()
            .find(|&&(v, _, _)| v == var)
            .map_or((model.vars[col].lb, model.vars[col].ub), |&(_, l, u)| {
                (l, u)
            });
        check_bounds(model, col, lb, ub)?;
        let params = start.params;
        self.sc.fit(start.m, start.cols);
        let bounds = BoundStep::One { col, lb, ub };
        let res = start.reoptimize(model, bounds, cutoff, self.sc);
        if let Some(done) = warm_outcome(res, start) {
            return done;
        }

        let (lb, ub) = structural_bounds(model, overrides)?;
        let mut st = RevisedState::build(model, lb, ub, params)?;
        self.sc.fit(st.m, st.cols);
        let sol = st.solve_cold(model, self.sc)?;
        Ok((sol, st))
    }

    /// The children of `parent`, one per override list in `branches`
    /// (each differing from the parent's bounds only at `var`), solved
    /// in order as the iterator is advanced. Every child but the last
    /// starts from a clone of `parent`; the last re-solves in `parent`
    /// itself, which the caller hands over because nothing needs it
    /// afterwards. Both starts hold the same basis, factors and values,
    /// so every child's result is bit-identical to a warm start from a
    /// clone.
    pub(crate) fn children<'s>(
        &'s mut self,
        parent: RevisedState,
        branches: &'s [Vec<(VarId, f64, f64)>],
        var: VarId,
        cutoff: Option<Cutoff>,
    ) -> impl Iterator<Item = ChildResult> + use<'a, 's> {
        let mut parent = Some(parent);
        let mut rest = branches.iter();
        std::iter::from_fn(move || {
            let overrides = rest.next()?;
            let start = if rest.len() == 0 {
                parent.take()?
            } else {
                parent.clone()?
            };
            Some(self.solve(start, overrides, var, cutoff))
        })
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
    /// their interval, signed artificial columns `σ·e_i` elsewhere.
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
    fn solve_cold(&mut self, model: &Model, sc: &mut Scratch) -> Result<Solution, SolveError> {
        let result = (|| {
            // Phase 1: minimise the sum of artificials.
            if self.art_start < self.cols {
                for (j, c) in sc.cost.iter_mut().enumerate() {
                    *c = if j < self.art_start { 0.0 } else { 1.0 };
                }
                self.reduced_costs(sc);
                self.iterate_with(sc, self.cols)?; // artificials may pivot in phase 1
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
            self.iterate_with(sc, self.art_start)?;
            Ok(self.extract(model))
        })();
        self.flush_stats();
        result
    }

    /// Re-optimise in place after a bound step: dual-simplex repair
    /// followed by a primal clean-up pass. A sibling re-solve
    /// ([`BoundStep::One`]) takes its reduced costs and first dual
    /// pricing row from the scratch's [`Share`], or leaves them there.
    /// With a `cutoff`, the repair stops with [`Halt::Cutoff`] once the
    /// objective has crossed it. Telemetry is flushed once, on every
    /// exit.
    fn reoptimize(
        &mut self,
        model: &Model,
        bounds: BoundStep<'_>,
        cutoff: Option<Cutoff>,
        sc: &mut Scratch,
    ) -> Result<Solution, Halt> {
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
            self.dual_iterate(model, sc, self.art_start, share, cutoff)?;
            self.iterate_with(sc, self.art_start)?;
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
    /// Steepest-edge weights live for exactly one call, so a solve
    /// stays a pure function of `(model, bounds, basis)`.
    fn iterate_with(&mut self, sc: &mut Scratch, col_limit: usize) -> Result<(), SolveError> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
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
        // Maintained violation array: `viol[j]` is the entering
        // violation of candidate `j` (−∞ for basic, fixed, or
        // out-of-limit columns), refreshed from the pricing row's
        // support after every pivot so the entering scan reads two
        // arrays instead of six.
        let mut active = 0u64;
        let mut any = false;
        for (j, slot) in viol.iter_mut().enumerate().take(col_limit) {
            let v = self.entering_viol(j, d);
            if v != f64::NEG_INFINITY {
                active += 1;
                any |= v > COST_EPS;
            }
            *slot = v;
        }
        // Most warm clean-ups enter nothing: with no violation above
        // the tolerance, the first choice (steepest edge or Bland's,
        // which scan the same `active` candidates when none qualifies)
        // returns none, so return before filling the weights and the
        // rest of `viol`, with the scan counted as that choice counts it.
        if !any {
            self.stats.scanned += active;
            return Ok(());
        }
        weights.fill(1.0);
        viol[col_limit..].fill(f64::NEG_INFINITY);
        // Set right after a stability refactorization so one bad pivot
        // cannot refactorize in a loop.
        let mut fresh = false;
        for iter in 0..max_iter {
            let enter = if iter < self.params.bland_after {
                self.choose_entering_steepest(viol, active, weights)
            } else {
                self.choose_entering_bland(d, col_limit)
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
                    self.refresh_viol(enter, col_limit, d, viol, &mut active);
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
                    self.steepest_update(weights, enter, row, ecol, pr, tau);
                    self.pivot_apply(row, enter, target, leave_at_upper, d, ecol, pr)?;
                    // Reduced costs changed exactly on the pricing
                    // row's support (plus the basis swap, whose columns
                    // the support covers).
                    for idx in 0..pr.support.len() {
                        let j = pr.support[idx] as usize;
                        self.refresh_viol(j, col_limit, d, viol, &mut active);
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

    /// Steepest-edge entering choice: the candidate maximising
    /// `viol²/w` over all positive violations, ties on lowest index.
    /// `viol` is the maintained violation array (−∞ for non-candidates)
    /// and `active` the number of live candidates it holds.
    fn choose_entering_steepest(&mut self, viol: &[f64], active: u64, w: &[f64]) -> Option<usize> {
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

    /// Bland's anti-cycling entering choice: the lowest-index column
    /// whose reduced cost improves the objective.
    fn choose_entering_bland(&mut self, d: &[f64], col_limit: usize) -> Option<usize> {
        for (j, &dj) in d.iter().enumerate().take(col_limit) {
            if self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
                continue;
            }
            self.stats.scanned += 1;
            let score = if self.at_upper[j] { dj } else { -dj };
            if score > COST_EPS {
                return Some(j);
            }
        }
        None
    }

    /// Bounded ratio test for `enter` moving in direction `dir` (its
    /// FTRAN'd column in `ecol`): the smallest step to a basic
    /// variable's bound, ties on the lowest basic column index, a bound
    /// flip when the entering column's own span is shorter. Entries
    /// below [`PIVOT_REL`] of the column's largest are never pivots.
    fn ratio_test(&self, enter: usize, dir: f64, ecol: &[f64]) -> Step {
        let span = self.ub[enter] - self.lb[enter]; // may be ∞
        let tol = pivot_tol(ecol.iter().fold(0.0, |m: f64, e| m.max(e.abs())));
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

    /// Dual simplex repair: the leaving row is the largest bound
    /// violation, the entering column the dual ratio test's minimum,
    /// with the pricing row reconstructed per iteration by one BTRAN,
    /// and the same stability/refactorization policy as the primal
    /// loop. With `share`, the first iteration's pricing row is
    /// the sibling [`Share`]'s when both chose the same leaving row, and
    /// lands there when no sibling has chosen one yet.
    ///
    /// With a `cutoff`, the objective of the current basic solution is
    /// computed before each pivot, and the repair stops with
    /// [`Halt::Cutoff`] once it has crossed the cutoff. The state is
    /// dual feasible throughout, so that objective is a bound on the
    /// re-solve's optimum: each pivot moves it by the dual step times
    /// the leaving row's infeasibility, both non-negative.
    fn dual_iterate(
        &mut self,
        model: &Model,
        sc: &mut Scratch,
        col_limit: usize,
        share: bool,
        cutoff: Option<Cutoff>,
    ) -> Result<(), Halt> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
        let Scratch {
            ecol,
            rho,
            pr: own,
            eligible,
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
            if let Some(cut) = cutoff {
                if cut.crossed(self.objective(model)) {
                    #[cfg(feature = "check-invariants")]
                    self.assert_cut_is_dropped(model, cut, d, col_limit);
                    return Err(Halt::Cutoff);
                }
            }
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

            let Some(col) = self.dual_ratio_test(pr, d, below, col_limit, eligible) else {
                return Err(Halt::Failed(SolveError::Infeasible));
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
        Err(Halt::Failed(SolveError::IterationLimit))
    }

    /// The dual ratio test's entering column for a leaving row whose
    /// basic value lies `below` its lower bound (else above its upper),
    /// given the row's pricing row: among nonbasic, non-fixed candidates
    /// below `col_limit` whose entry moves the row toward its bound, the
    /// minimum `|d_j/α_j|`, ties within [`EPS`] to the lowest index, with
    /// the primal test's relative pivot tolerance.
    ///
    /// One pass over the row's support takes the tolerance (the largest
    /// |α| among the candidates) and marks the eligible candidates in
    /// the column bitset `eligible`, which must be all zero and is left
    /// so: eligibility is a sign test, which does not depend on the
    /// tolerance. The marked columns are then walked in ascending order,
    /// as a scan of every column would visit them; off-support entries
    /// are exact zeros, which never pass `|α| > tol`.
    fn dual_ratio_test(
        &self,
        pr: &PriceRow,
        d: &[f64],
        below: bool,
        col_limit: usize,
        eligible: &mut [u64],
    ) -> Option<usize> {
        let mut largest = 0.0f64;
        for &ju in &pr.support {
            let j = ju as usize;
            if j >= col_limit || self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
                continue;
            }
            let a = pr.alpha[j];
            largest = largest.max(a.abs());
            // Entering must move the leaving row toward its bound.
            let wants_negative = below != self.at_upper[j];
            if (wants_negative && a < 0.0) || (!wants_negative && a > 0.0) {
                eligible[j / 64] |= 1u64 << (j % 64);
            }
        }
        let tol = pivot_tol(largest);
        let mut enter: Option<(usize, f64)> = None;
        for (w, word) in eligible.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let a = pr.alpha[j];
                if a.abs() <= tol {
                    continue;
                }
                let ratio = (d[j] / a).abs();
                if enter.is_none_or(|(_, r)| ratio < r - EPS) {
                    enter = Some((j, ratio));
                }
            }
        }
        enter.map(|(j, _)| j)
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

    /// Current value of column `j`: its basic value or its bound.
    fn value(&self, j: usize) -> f64 {
        if self.basis_pos[j] != usize::MAX {
            self.xb[self.basis_pos[j]]
        } else {
            self.nonbasic_value(j)
        }
    }

    /// The model objective of the current basic solution, `Σ c_j·x_j`
    /// over the objective's terms in order plus its constant: the value
    /// [`RevisedState::extract`] reports, bit for bit.
    fn objective(&self, model: &Model) -> f64 {
        model
            .objective
            .iter()
            .map(|&(v, coef)| coef * self.value(v.0))
            .sum::<f64>()
            + model.objective_const
    }

    /// Read the structural solution and objective off the state.
    fn extract(&self, model: &Model) -> Solution {
        let x = (0..self.n).map(|j| self.value(j)).collect();
        Solution::new(self.objective(model), x)
    }

    /// `check-invariants`: finish a re-solve the cutoff stopped, on a
    /// copy and as it would have run without the cutoff (the copy
    /// computes its own first pricing row, which a sibling share would
    /// have supplied bit for bit), and assert that the search drops the
    /// child it would have produced.
    #[cfg(feature = "check-invariants")]
    fn assert_cut_is_dropped(&self, model: &Model, cut: Cutoff, d: &[f64], col_limit: usize) {
        let at_cut = self.objective(model);
        let mut st = self.clone();
        let mut sc = Scratch::default();
        sc.fit(st.m, st.cols);
        sc.d.copy_from_slice(d);
        let end = st
            .dual_iterate(model, &mut sc, col_limit, false, None)
            .and_then(|()| Ok(st.iterate_with(&mut sc, col_limit)?))
            .map(|()| st.extract(model));
        match end {
            Ok(sol) => assert!(
                cut.drops(sol.objective),
                "a child cut at objective {at_cut} finished at {}, which the search keeps ({cut:?})",
                sol.objective
            ),
            Err(Halt::Failed(SolveError::Infeasible)) => {}
            Err(e) => panic!("a child cut at objective {at_cut} did not finish: {e:?}"),
        }
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
    ///    nonbasic column sits on a finite bound;
    /// 2. the **constraint residual** `‖A·x − b‖` is small row by row,
    ///    with `x` assembled from the basic values and nonbasic bounds
    ///    (the check the refactorization-consistency assert complements
    ///    from the other side).
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

/// The smallest usable pivot magnitude among entries whose largest
/// magnitude is `largest`: the absolute [`EPS`], raised to
/// [`PIVOT_REL`] of the largest.
fn pivot_tol(largest: f64) -> f64 {
    EPS.max(PIVOT_REL * largest)
}

/// Objective monotonicity for primal steps (dual repair is exempt).
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
    use crate::model::{LinExpr, Model, Sense};

    fn lp(m: &Model) -> Result<Solution, SolveError> {
        solve_lp_state(m, &[], None).map(|(sol, _)| sol)
    }

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
    fn classic_two_variable_max() {
        let sol = lp(&sample_lp()).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6, "obj {}", sol.objective);
        let v = sol.values();
        assert!((v[0] - 2.0).abs() < 1e-6 && (v[1] - 6.0).abs() < 1e-6);
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
        let sol = lp(&m).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        let v = sol.values();
        assert!((v[0] - 2.0).abs() < 1e-6 && (v[1] - 1.0).abs() < 1e-6);

        // min 2x + 3y s.t. x + y >= 10: the `≥` row starts on a phase-1
        // artificial, and everything lands on the cheaper x, obj 20.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_ge(e, 10.0);
        let obj = m.expr(&[(x, 2.0), (y, 3.0)]);
        m.set_objective(obj);
        let sol = lp(&m).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!((sol.value(x) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_and_unbounded_are_reported() {
        for (ub, rhs) in [(1.0, 2.0), (5.0, 10.0)] {
            let mut m = Model::new(Sense::Minimize);
            let x = m.var("x", 0.0, ub);
            let e = m.expr(&[(x, 1.0)]);
            m.add_ge(e, rhs);
            let obj = m.expr(&[(x, 1.0)]);
            m.set_objective(obj);
            assert_eq!(lp(&m).unwrap_err(), SolveError::Infeasible, "x ≤ {ub}");
        }

        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (y, -1.0)]);
        m.add_le(e, 1.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(lp(&m).unwrap_err(), SolveError::Unbounded);

        // No constraint rows at all: an unbounded column alone.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn respects_variable_bounds_without_constraint_rows() {
        // max x + y with x in [1, 3], y in [0, 2]: no constraints at all,
        // so the basis is empty and the solve is pure bound flips.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 1.0, 3.0);
        let y = m.var("y", 0.0, 2.0);
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 5.0).abs() < 1e-6);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!((s.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds_work() {
        // min x with x in [-5, 5], x >= -3  ->  x = -3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", -5.0, 5.0);
        let e = m.expr(&[(x, 1.0)]);
        m.add_ge(e, -3.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.value(x) + 3.0).abs() < 1e-6, "x = {}", s.value(x));
    }

    #[test]
    fn objective_constant_is_carried_through() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 2.0, 10.0);
        let obj = LinExpr::term(x, 1.0).add_const(100.0);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 102.0).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_tighten_the_relaxation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 10.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        let s = m.solve_relaxation(&[(x, 0.0, 4.0)]).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        // Contradictory override is infeasible.
        assert_eq!(
            m.solve_relaxation(&[(x, 6.0, 4.0)]).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn redundant_equalities_are_fine() {
        // x + y = 2 stated twice (redundant row must not break phase 1).
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 2.0);
        let y = m.var("y", 0.0, 2.0);
        let e1 = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_eq(e1, 2.0);
        let e2 = m.expr(&[(x, 2.0), (y, 2.0)]);
        m.add_eq(e2, 4.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    /// Beale's classic cycling LP: Dantzig's rule cycles forever on it
    /// without an anti-cycling safeguard. Optimum is -0.05.
    fn beale() -> Model {
        let mut m = Model::new(Sense::Minimize);
        let x4 = m.var("x4", 0.0, f64::INFINITY);
        let x5 = m.var("x5", 0.0, f64::INFINITY);
        let x6 = m.var("x6", 0.0, f64::INFINITY);
        let x7 = m.var("x7", 0.0, f64::INFINITY);
        let e1 = m.expr(&[(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)]);
        m.add_le(e1, 0.0);
        let e2 = m.expr(&[(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)]);
        m.add_le(e2, 0.0);
        let e3 = m.expr(&[(x6, 1.0)]);
        m.add_le(e3, 1.0);
        let obj = m.expr(&[(x4, -0.75), (x5, 150.0), (x6, -0.02), (x7, 6.0)]);
        m.set_objective(obj);
        m
    }

    #[test]
    fn beales_cycling_example_terminates() {
        // Under steepest edge, and with Bland's rule from the start.
        let bland = Params {
            bland_after: 0,
            ..Params::default()
        };
        for params in [Params::default(), bland] {
            let (s, _) = solve_lp_state_params(&beale(), &[], None, params).unwrap();
            assert!((s.objective + 0.05).abs() < 1e-6, "obj {}", s.objective);
        }
    }

    #[test]
    fn binaries_add_no_rows() {
        // 40 bounded variables, 1 constraint: the basis has exactly one
        // row (bounds never materialise as rows).
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<VarId> = (0..40).map(|i| m.var(&format!("x{i}"), 0.0, 1.0)).collect();
        let terms: Vec<(VarId, f64)> = xs.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.add_le(e, 3.5);
        let obj = m.expr(&terms);
        m.set_objective(obj);
        let (sol, st) = solve_lp_state(&m, &[], None).unwrap();
        assert_eq!(st.m, 1, "bounds must not materialise as rows");
        assert!((sol.objective - 3.5).abs() < 1e-6);
    }

    #[test]
    fn warm_start_with_branching_bounds() {
        let m = sample_lp();
        let (_, root) = solve_lp_state(&m, &[], None).unwrap();
        // Branch x <= 1: warm must agree with cold.
        let x = VarId(0);
        let (warm_sol, _) = solve_lp_state(&m, &[(x, 0.0, 1.0)], Some(&root)).unwrap();
        let (cold_sol, _) = solve_lp_state(&m, &[(x, 0.0, 1.0)], None).unwrap();
        assert!(
            (warm_sol.objective - cold_sol.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm_sol.objective,
            cold_sol.objective
        );

        // max x + y s.t. x + y <= 3, x,y in [0, 2]: optimum 3. Force
        // x <= 1 -> still 3 (y=2, x=1); force x = 2 -> x=2, y=1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 2.0);
        let y = m.var("y", 0.0, 2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_le(e, 3.0);
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        let (root, st) = solve_lp_state(&m, &[], None).unwrap();
        assert!((root.objective - 3.0).abs() < 1e-6);
        let (a, _) = solve_lp_state(&m, &[(x, 0.0, 1.0)], Some(&st)).unwrap();
        assert!((a.objective - 3.0).abs() < 1e-6, "obj {}", a.objective);
        assert!(a.value(x) <= 1.0 + 1e-6);
        let (b, _) = solve_lp_state(&m, &[(x, 2.0, 2.0)], Some(&st)).unwrap();
        assert!((b.objective - 3.0).abs() < 1e-6);
        assert!((b.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_detects_infeasible_children() {
        // x + y >= 4 with x,y in [0,2]: feasible only at x=y=2. Fixing
        // x to 0 from the parent optimum must come back Infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 2.0);
        let y = m.var("y", 0.0, 2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_ge(e, 4.0);
        let obj = m.expr(&[(x, 1.0), (y, 2.0)]);
        m.set_objective(obj);
        let (root, st) = solve_lp_state(&m, &[], None).unwrap();
        assert!((root.objective - 6.0).abs() < 1e-6);
        assert_eq!(
            solve_lp_state(&m, &[(x, 0.0, 0.0)], Some(&st)).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn warm_start_chain_matches_cold_solves() {
        // A chain of progressively tighter bounds, warm vs cold.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..6).map(|i| m.var(&format!("v{i}"), 0.0, 4.0)).collect();
        for k in 0..3 {
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 3) as f64))
                .collect();
            let e = m.expr(&terms);
            m.add_le(e, 10.0 + k as f64);
        }
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + (i % 4) as f64))
            .collect();
        let e = m.expr(&terms);
        m.set_objective(e);

        let mut overrides: Vec<(VarId, f64, f64)> = Vec::new();
        let (_, mut state) = solve_lp_state(&m, &[], None).unwrap();
        for (step, &v) in vars.iter().enumerate() {
            overrides.push((v, 0.0, 3.0 - (step % 3) as f64));
            let warm = solve_lp_state(&m, &overrides, Some(&state)).unwrap();
            let cold = solve_lp_state(&m, &overrides, None).unwrap();
            assert!(
                (warm.0.objective - cold.0.objective).abs() < 1e-6,
                "step {step}: warm {} vs cold {}",
                warm.0.objective,
                cold.0.objective
            );
            state = warm.1;
        }
    }

    #[test]
    fn degenerate_bound_heavy_instance() {
        // Many variables share one tight equality; lots of degenerate
        // pivots, exercising the tie-breaks.
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<VarId> = (0..12).map(|i| m.var(&format!("x{i}"), 0.0, 1.0)).collect();
        let terms: Vec<(VarId, f64)> = xs.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.add_eq(e, 0.0); // forces everything to 0
        let obj_terms: Vec<(VarId, f64)> = xs
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 - (i as f64) * 0.1))
            .collect();
        let e = m.expr(&obj_terms);
        m.set_objective(e);
        let s = m.solve().unwrap();
        assert!(s.objective.abs() < 1e-6);
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
        let (_, parent) = solve_lp_state_params(&m, &[], None, params).unwrap();
        assert!(
            parent.factor.eta_count() > 0,
            "the parent keeps an eta file"
        );
        let mut driven = parent.clone();
        let sibling = parent.clone();
        assert!(driven.factor.shares_lu_with(&parent.factor));
        assert!(sibling.factor.shares_lu_with(&parent.factor));

        let resolve = |st: &RevisedState, fix: (VarId, f64, f64)| {
            let (sol, _) = solve_lp_state(&m, &[fix], Some(st)).unwrap();
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
            driven.reoptimize(&m, bounds, None, sc)
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

    /// SplitMix64 in [0, 1).
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
    }

    fn pick<T: Copy>(state: &mut u64, from: &[T]) -> T {
        from[(uniform(state) * from.len() as f64) as usize]
    }

    /// The dual ratio test as a scan of every column below `col_limit`,
    /// with the tolerance taken in a pass of its own: the form the
    /// one-pass test replaced.
    fn dense_dual_ratio_test(
        st: &RevisedState,
        pr: &PriceRow,
        d: &[f64],
        below: bool,
        col_limit: usize,
    ) -> Option<usize> {
        let candidate = |j: usize| st.basis_pos[j] == usize::MAX && st.ub[j] - st.lb[j] > EPS;
        let largest = pr
            .support
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| j < col_limit && candidate(j))
            .fold(0.0, |m: f64, j| m.max(pr.alpha[j].abs()));
        let tol = EPS.max(PIVOT_REL * largest);
        let mut enter: Option<(usize, f64)> = None;
        for (j, &a) in pr.alpha.iter().enumerate().take(col_limit) {
            if a.abs() <= tol || !candidate(j) {
                continue;
            }
            let eligible = if below {
                (!st.at_upper[j] && a < 0.0) || (st.at_upper[j] && a > 0.0)
            } else {
                (!st.at_upper[j] && a > 0.0) || (st.at_upper[j] && a < 0.0)
            };
            if !eligible {
                continue;
            }
            let ratio = (d[j] / a).abs();
            if enter.is_none_or(|(_, r)| ratio < r - EPS) {
                enter = Some((j, ratio));
            }
        }
        enter.map(|(j, _)| j)
    }

    #[test]
    fn one_pass_dual_ratio_test_matches_the_dense_scan() {
        // 150 structurals, four rows (one needs an artificial), so the
        // columns span three bitset words and `col_limit` can exclude
        // the artificial.
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<VarId> = (0..150)
            .map(|j| m.var(&format!("x{j}"), 0.0, 1.0))
            .collect();
        for k in 0..3 {
            let terms: Vec<(VarId, f64)> =
                xs.iter().skip(k).step_by(3).map(|&v| (v, 1.0)).collect();
            let e = m.expr(&terms);
            m.add_le(e, 10.0);
        }
        let e = m.expr(&[(xs[0], 1.0), (xs[1], 1.0)]);
        m.add_ge(e, 1.0);
        let (lb, ub) = structural_bounds(&m, &[]).unwrap();
        let mut st = RevisedState::build(&m, lb, ub, Params::default()).unwrap();
        assert!(st.art_start < st.cols, "the test model has an artificial");

        // Ties in |α| and in |d/α|, exact zeros, entries below the
        // absolute pivot floor, entries that only a large entry of the
        // row (1e3, whose relative floor is 1e-8) rules out, and NaN.
        let alphas = [
            0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            2.0,
            -2.0,
            1e-12,
            -1e-12,
            5e-9,
            -5e-9,
            1e-3,
            1e3,
            -1e3,
            f64::NAN,
        ];
        let costs = [0.0, 1.0, -1.0, 0.5, 2.0, 1e-10, 3.0, f64::NAN];
        let mut state = 5u64;
        let mut pr = PriceRow::default();
        let mut eligible = vec![0u64; st.cols.div_ceil(64)];
        let (mut entered, mut none) = (0, 0);
        for trial in 0..20_000 {
            for j in 0..st.cols {
                st.at_upper[j] = uniform(&mut state) < 0.4;
                st.basis_pos[j] = if uniform(&mut state) < 0.15 {
                    0
                } else {
                    usize::MAX
                };
                let fixed = uniform(&mut state) < 0.1;
                st.lb[j] = 0.0;
                st.ub[j] = if fixed { 0.0 } else { 1.0 };
            }
            pr.fit(st.cols);
            let density = pick(&mut state, &[0.02, 0.1, 0.4]);
            for j in 0..st.cols {
                if uniform(&mut state) < density {
                    pr.add(j, pick(&mut state, &alphas));
                }
            }
            let d: Vec<f64> = (0..st.cols).map(|_| pick(&mut state, &costs)).collect();
            let below = uniform(&mut state) < 0.5;
            let col_limit = if trial % 2 == 0 {
                st.art_start
            } else {
                st.cols
            };
            let got = st.dual_ratio_test(&pr, &d, below, col_limit, &mut eligible);
            let want = dense_dual_ratio_test(&st, &pr, &d, below, col_limit);
            assert_eq!(got, want, "trial {trial}");
            assert!(
                eligible.iter().all(|&w| w == 0),
                "trial {trial}: bitset left dirty"
            );
            if got.is_some() {
                entered += 1;
            } else {
                none += 1;
            }
        }
        assert!(
            entered > 1_000 && none > 1_000,
            "{entered} entered, {none} none"
        );
    }

    #[test]
    fn a_clean_up_that_enters_nothing_counts_its_scan() {
        // At an optimum no column enters; the clean-up must still count
        // every candidate it priced, as the steepest-edge and Bland
        // choices do when none qualifies.
        let m = resource_lp();
        let (_, solved) = solve_lp_state(&m, &[], None).unwrap();
        let candidates = (0..solved.art_start)
            .filter(|&j| solved.basis_pos[j] == usize::MAX && solved.ub[j] - solved.lb[j] > EPS)
            .count() as u64;
        assert!(candidates > 0);
        for bland_after in [BLAND_AFTER, 0] {
            let mut st = solved.clone();
            st.params.bland_after = bland_after;
            let pivots = with_scratch(st.m, st.cols, |sc| {
                st.phase2_costs(&m, &mut sc.cost);
                st.reduced_costs(sc);
                st.iterate_with(sc, st.art_start).unwrap();
                st.stats.pivots + st.stats.flips
            });
            assert_eq!(pivots, 0, "the optimum enters nothing");
            assert_eq!(st.stats.scanned, candidates, "bland_after {bland_after}");
        }
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
        let (sol, st) = solve_lp_state_params(&m, &[], None, tight).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!(st.params.refactor_after == 2);
        let default = lp(&m).unwrap();
        assert!((sol.objective - default.objective).abs() < 1e-9);
    }
}

#[cfg(all(test, feature = "check-invariants"))]
mod invariant_tests {
    use super::*;
    use crate::model::{Model, Sense};

    // With the feature live, every pivot of these solves runs the full
    // invariant suite; the test just has to drive enough pivots through
    // both entry points (cold and bound warm).

    fn production_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 40.0);
        let y = m.var("y", 0.0, 30.0);
        let z = m.var("z", 0.0, 20.0);
        let e = m.expr(&[(x, 1.0), (y, 2.0), (z, 1.0)]);
        m.add_le(e, 40.0);
        let e = m.expr(&[(x, 3.0), (y, 1.0)]);
        m.add_le(e, 60.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0), (z, 3.0)]);
        m.add_ge(e, 10.0);
        let obj = m.expr(&[(x, 3.0), (y, 5.0), (z, 4.0)]);
        m.set_objective(obj);
        m
    }

    #[test]
    fn invariants_hold_across_cold_and_warm_solves() {
        let model = production_model();
        let (sol, st) = solve_lp_state(&model, &[], None).expect("cold solve");
        assert!(sol.objective.is_finite());
        st.assert_invariants("test readback");

        // Branch-and-bound style bound tightening over the warm basis.
        let x = VarId(0);
        let (_, st2) = solve_lp_state(&model, &[(x, 0.0, 5.0)], Some(&st)).expect("warm solve");
        st2.assert_invariants("warm readback");
    }
}
