//! Sparse bounded-variable primal simplex with dual-simplex warm starts.
//!
//! Solves the LP relaxation of a [`Model`]. Unlike the textbook
//! row-expansion construction (retained in [`crate::dense`] as a
//! differential-testing oracle), variable bounds here never become
//! tableau rows: every variable — structural or logical — carries its
//! own `[lb, ub]` interval, nonbasic variables sit at *either* bound,
//! and the ratio test admits **bound flips** (a nonbasic variable
//! jumping from one finite bound to the other without a pivot). A model
//! with thousands of placement binaries therefore solves on a tableau
//! with one row per *constraint* only.
//!
//! The tableau rows themselves are **sparse** ([`SpRow`]): placement
//! rows touch a handful of variables, so Gauss–Jordan elimination walks
//! only the nonzero columns of the pivot row (entries that cancel below
//! a drop tolerance are removed). Entering columns are priced with a
//! cyclic candidate-list (**partial pricing**) scheme: a Dantzig scan
//! over a block of columns starting at a persisted cursor, falling back
//! to a full lowest-index Bland scan for anti-cycling after a fixed
//! number of iterations. All tie-breaks remain by lowest index, so
//! solves are deterministic for a given model — Table 1 / Fig 4 outputs
//! stay reproducible.
//!
//! The engine exposes its final state ([`SimplexState`]) so branch &
//! bound children can **warm-start** ([`solve_lp_state`] with `warm`):
//! same model, only variable bounds differ. The child clones its
//! parent's optimal tableau, applies the branching bound change (which
//! preserves dual feasibility — reduced costs do not depend on bounds),
//! repairs primal feasibility with a dual-simplex phase, and finishes
//! with a primal clean-up pass.
//!
//! Construction of a cold solve:
//!
//! 1. Every constraint `a·x ⋈ b` becomes an equality `a·x + s = b` with
//!    a *logical* variable `s` bounded by the constraint type
//!    (`≤`: `s ∈ [0, ∞)`, `≥`: `s ∈ (−∞, 0]`, `=`: `s ∈ [0, 0]`).
//! 2. Structural variables start nonbasic at their lower bound; rows
//!    whose residual fits the logical's interval take the logical as the
//!    initial basic variable, the rest get a phase-1 artificial.
//! 3. **Phase 1** minimises the sum of artificials (positive optimum ⇒
//!    infeasible), then artificials are expelled and frozen at zero.
//! 4. **Phase 2** minimises the real objective (maximisation by
//!    negation) with artificials barred from entering.

use crate::model::{Cmp, Model, Sense, Solution, SolveError, VarId};

/// Entering-column pricing rule for the primal iterations.
///
/// Both rules share the Bland anti-cycling fallback (a full lowest-index
/// scan after [`BLAND_AFTER`] iterations) and break every tie by lowest
/// column index, so either way a solve is a deterministic function of
/// the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Cyclic partial Dantzig scan (the PR 7 kernel's rule): cheap per
    /// iteration, but the largest-violation choice can pivot many times
    /// on near-parallel edges.
    #[default]
    Dantzig,
    /// Devex pricing: approximate steepest-edge with reference weights
    /// that start at 1, grow per pivot from the pivot row, and reset
    /// when they overflow [`DEVEX_RESET`]. More work per scan, far
    /// fewer pivots on the fleet-shaped models.
    Devex,
    /// Steepest-edge pricing with exact norms, maintained per pivot by
    /// the Forrest–Goldfarb recurrence on the factorized
    /// ([`crate::revised`]) engine. The explicit-tableau engine cannot
    /// afford the extra BTRAN per pivot, so it prices this variant with
    /// devex weights (the cheap approximation of the same norms).
    SteepestEdge,
}

/// Pivot / ratio-test tolerance.
pub(crate) const EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
pub(crate) const COST_EPS: f64 = 1e-7;
/// Primal feasibility tolerance (phase 1 and dual-simplex repair).
pub(crate) const FEAS_EPS: f64 = 1e-6;
/// Iterations of Dantzig pivoting before switching to Bland's rule.
pub(crate) const BLAND_AFTER: usize = 2_000;
/// Entries whose magnitude falls to or below this during sparse row
/// updates are dropped (numerical zeros would otherwise accumulate and
/// densify the rows).
pub(crate) const DROP_EPS: f64 = 1e-12;
/// Minimum partial-pricing window: the cyclic Dantzig scan examines at
/// least this many columns (and at least `cols / 8`) once a violating
/// candidate has been found before committing to the best seen.
const PRICE_BLOCK: usize = 64;
/// Devex reference weights reset to 1 when any weight exceeds this —
/// the reference framework has drifted too far to approximate
/// steepest-edge norms usefully.
pub(crate) const DEVEX_RESET: f64 = 1e7;

/// A sparse tableau row: parallel `(column, value)` arrays sorted by
/// column index, nonzeros only.
#[derive(Debug, Clone, Default)]
struct SpRow {
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SpRow {
    fn with_capacity(cap: usize) -> SpRow {
        SpRow {
            idx: Vec::with_capacity(cap),
            val: Vec::with_capacity(cap),
        }
    }

    fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Append an entry; columns must arrive in strictly increasing order.
    fn push(&mut self, col: usize, v: f64) {
        debug_assert!(self.idx.last().is_none_or(|&last| (last as usize) < col));
        self.idx.push(col as u32);
        self.val.push(v);
    }

    /// Value at `col` (0.0 when absent).
    fn get(&self, col: usize) -> f64 {
        match self.idx.binary_search(&(col as u32)) {
            Ok(k) => self.val[k],
            Err(_) => 0.0,
        }
    }

    /// Overwrite the entry at `col`, inserting it if absent.
    fn set(&mut self, col: usize, v: f64) {
        match self.idx.binary_search(&(col as u32)) {
            Ok(k) => self.val[k] = v,
            Err(k) => {
                self.idx.insert(k, col as u32);
                self.val.insert(k, v);
            }
        }
    }

    /// Iterate `(column, value)` pairs in ascending column order.
    fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.idx
            .iter()
            .zip(&self.val)
            .map(|(&c, &v)| (c as usize, v))
    }

    fn scale(&mut self, f: f64) {
        for v in &mut self.val {
            *v *= f;
        }
    }
}

/// `out = a + factor·b`, merging the two sorted sparse rows. Result
/// entries whose magnitude falls to or below [`DROP_EPS`] are dropped.
fn axpy_into(out: &mut SpRow, a: &SpRow, factor: f64, b: &SpRow) {
    out.idx.clear();
    out.val.clear();
    let cap = a.nnz() + b.nnz();
    out.idx.reserve(cap);
    out.val.reserve(cap);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.idx.len() && j < b.idx.len() {
        match a.idx[i].cmp(&b.idx[j]) {
            std::cmp::Ordering::Less => {
                out.idx.push(a.idx[i]);
                out.val.push(a.val[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                let v = factor * b.val[j];
                if v.abs() > DROP_EPS {
                    out.idx.push(b.idx[j]);
                    out.val.push(v);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let v = a.val[i] + factor * b.val[j];
                if v.abs() > DROP_EPS {
                    out.idx.push(a.idx[i]);
                    out.val.push(v);
                }
                i += 1;
                j += 1;
            }
        }
    }
    while i < a.idx.len() {
        out.idx.push(a.idx[i]);
        out.val.push(a.val[i]);
        i += 1;
    }
    while j < b.idx.len() {
        let v = factor * b.val[j];
        if v.abs() > DROP_EPS {
            out.idx.push(b.idx[j]);
            out.val.push(v);
        }
        j += 1;
    }
}

/// Solve a model's LP relaxation, with optional `(var, lb, ub)` bound
/// overrides (used by branch & bound to impose branching bounds).
pub fn solve_lp(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
) -> Result<Solution, SolveError> {
    solve_lp_state(model, bound_overrides, None).map(|(sol, _)| sol)
}

/// Solve a model's LP relaxation and return the optimal simplex state
/// alongside the solution.
///
/// When `warm` carries the final state of a previous solve of the *same
/// model* (only bounds may differ — exactly the branch & bound setting),
/// the solve starts from that basis and repairs feasibility with a
/// dual-simplex phase instead of running two full phases; if the repair
/// stalls it falls back to a cold solve, so the result is identical
/// either way up to degenerate alternate optima.
pub fn solve_lp_state(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
    warm: Option<&SimplexState>,
) -> Result<(Solution, SimplexState), SolveError> {
    solve_lp_state_priced(model, bound_overrides, warm, Pricing::Dantzig)
}

/// [`solve_lp_state`] with an explicit entering-column [`Pricing`] rule
/// for the primal passes (the dual-simplex repair is pricing-agnostic).
pub fn solve_lp_state_priced(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
    warm: Option<&SimplexState>,
    pricing: Pricing,
) -> Result<(Solution, SimplexState), SolveError> {
    let _span = vb_telemetry::span!("solver.lp_solve");
    vb_telemetry::counter!("solver.lp_solves").inc();

    let n = model.vars.len();
    let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
    for &(v, l, u) in bound_overrides {
        lb[v.0] = l;
        ub[v.0] = u;
    }
    for j in 0..n {
        if lb[j] > ub[j] + EPS {
            return Err(SolveError::Infeasible);
        }
        if !lb[j].is_finite() {
            return Err(SolveError::BadModel(format!(
                "variable {} must have a finite lower bound",
                model.vars[j].name
            )));
        }
    }

    if let Some(parent) = warm {
        if parent.n == n && parent.m == model.constraints.len() {
            match warm_solve(model, &lb, &ub, parent, pricing) {
                Ok(done) => {
                    vb_telemetry::counter!("solver.warm_start_hits").inc();
                    return Ok(done);
                }
                // A proven-infeasible child is a successful warm start.
                Err(SolveError::Infeasible) => {
                    vb_telemetry::counter!("solver.warm_start_hits").inc();
                    return Err(SolveError::Infeasible);
                }
                // Numerical trouble: re-solve from scratch.
                Err(_) => vb_telemetry::counter!("solver.warm_start_misses").inc(),
            }
        } else {
            vb_telemetry::counter!("solver.warm_start_misses").inc();
        }
    }

    cold_solve(model, lb, ub, pricing)
}

/// Full two-phase bounded-variable solve from the logical basis.
fn cold_solve(
    model: &Model,
    lb: Vec<f64>,
    ub: Vec<f64>,
    pricing: Pricing,
) -> Result<(Solution, SimplexState), SolveError> {
    let mut st = SimplexState::build(model, lb, ub);
    vb_telemetry::histogram!("solver.tableau_rows").observe(st.m as f64);

    // Phase 1: minimise the sum of artificials.
    if st.art_start < st.cols {
        let mut c1 = vec![0.0; st.cols];
        for c in c1.iter_mut().skip(st.art_start) {
            *c = 1.0;
        }
        let mut d = st.reduced_costs(&c1);
        st.iterate_with(&mut d, st.cols, pricing)?; // artificials may pivot in phase 1
        let infeas: f64 = (0..st.m)
            .filter(|&i| st.basis[i] >= st.art_start)
            .map(|i| st.rhs[i])
            .sum();
        if infeas > FEAS_EPS {
            return Err(SolveError::Infeasible);
        }
        st.expel_and_freeze_artificials(&mut d);
    }

    // Phase 2: the real objective, artificials barred from entering.
    let c2 = st.phase2_costs(model);
    let mut d = st.reduced_costs(&c2);
    st.iterate_with(&mut d, st.art_start, pricing)?;

    let sol = st.extract(model);
    Ok((sol, st))
}

/// Re-optimise `parent` under new structural bounds: dual-simplex repair
/// followed by a primal clean-up pass.
fn warm_solve(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    parent: &SimplexState,
    pricing: Pricing,
) -> Result<(Solution, SimplexState), SolveError> {
    let mut st = parent.clone();
    st.apply_bounds(lb, ub)?;
    let c2 = st.phase2_costs(model);
    let mut d = st.reduced_costs(&c2);
    st.dual_iterate(&mut d, st.art_start)?;
    // The repair restores primal feasibility; reduced costs stayed dual
    // feasible throughout, so this pass usually does zero pivots. It
    // also mops up any nonbasic variable whose bound side had to switch.
    st.iterate_with(&mut d, st.art_start, pricing)?;
    let sol = st.extract(model);
    Ok((sol, st))
}

/// Sparse bounded-variable simplex tableau, reusable as a warm-start
/// basis by later solves of the same model under different bounds.
///
/// Columns are laid out `[structural | logical (one per row) |
/// artificial]`; `rhs[i]` holds the *current value* of row `i`'s basic
/// variable (not the textbook `B⁻¹b` — nonbasic variables at nonzero
/// bounds are folded in).
#[derive(Debug, Clone)]
pub struct SimplexState {
    /// Sparse tableau rows over all `cols` columns.
    rows: Vec<SpRow>,
    /// Current value of each row's basic variable.
    rhs: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Row index per column (`usize::MAX` when nonbasic).
    basis_pos: Vec<usize>,
    /// Which bound each nonbasic column currently sits at.
    at_upper: Vec<bool>,
    /// Per-column lower bounds (structural, then logical, artificial).
    lb: Vec<f64>,
    /// Per-column upper bounds.
    ub: Vec<f64>,
    /// Structural variable count.
    n: usize,
    /// Row count (model constraints only — bounds add no rows).
    m: usize,
    /// Total column count.
    cols: usize,
    /// First artificial column (== `cols` when phase 1 was not needed).
    art_start: usize,
    /// Partial-pricing cursor: where the next cyclic Dantzig scan starts.
    price_pos: usize,
    /// Scratch row for the sparse axpy merge (allocation reuse only).
    scratch: SpRow,
}

/// Outcome of the primal ratio test.
enum Step {
    /// The entering variable travels to its opposite bound; no pivot.
    Flip,
    /// A basic variable blocks first and leaves at the given bound.
    Pivot {
        row: usize,
        target: f64,
        leave_at_upper: bool,
    },
    /// Nothing blocks: the objective is unbounded.
    Unbounded,
}

impl SimplexState {
    /// Build the initial tableau: logicals basic where the residual fits
    /// their interval, artificials elsewhere.
    fn build(model: &Model, mut lb: Vec<f64>, mut ub: Vec<f64>) -> SimplexState {
        let n = model.vars.len();
        let m = model.constraints.len();

        // Residual of each row with all structurals at their lower bound.
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

        // Logical bounds per constraint type.
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
        // Artificials live in [0, ∞) during phase 1.
        lb.resize(cols, 0.0);
        ub.resize(cols, f64::INFINITY);

        let mut rows = Vec::with_capacity(m);
        let mut rhs = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];
        let mut at_upper = vec![false; cols];
        let mut next_art = art_start;
        for (i, c) in model.constraints.iter().enumerate() {
            // Canonical constraint coefs are sorted by variable id and
            // all < n, so appending the logical (and artificial) keeps
            // the row sorted.
            let mut row = SpRow::with_capacity(c.coefs.len() + 2);
            for &(v, a) in &c.coefs {
                row.push(v.0, a);
            }
            row.push(n + i, 1.0); // logical
            if needs_art[i] {
                let sigma = if resid[i] >= 0.0 { 1.0 } else { -1.0 };
                if sigma < 0.0 {
                    // Normalise so the basic (artificial) column is +1.
                    row.scale(-1.0);
                }
                row.push(next_art, 1.0);
                basis[i] = next_art;
                next_art += 1;
                rhs[i] = resid[i].abs();
                // The row's own logical stays nonbasic at 0: that is the
                // upper bound for `≥` logicals, the lower bound otherwise.
                at_upper[n + i] = matches!(c.cmp, Cmp::Ge);
            } else {
                basis[i] = n + i;
                rhs[i] = resid[i];
            }
            rows.push(row);
        }

        let mut basis_pos = vec![usize::MAX; cols];
        for (i, &b) in basis.iter().enumerate() {
            basis_pos[b] = i;
        }
        let st = SimplexState {
            rows,
            rhs,
            basis,
            basis_pos,
            at_upper,
            lb,
            ub,
            n,
            m,
            cols,
            art_start,
            price_pos: 0,
            scratch: SpRow::default(),
        };
        #[cfg(feature = "check-invariants")]
        st.assert_invariants("build");
        st
    }

    /// Phase-2 cost vector: the objective over structurals, min sense.
    fn phase2_costs(&self, model: &Model) -> Vec<f64> {
        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut c = vec![0.0; self.cols];
        for &(v, coef) in &model.objective {
            c[v.0] += sign * coef;
        }
        c
    }

    /// Reduced costs `d = c − c_B·B⁻¹A` for the current basis.
    fn reduced_costs(&self, c: &[f64]) -> Vec<f64> {
        let mut d = c.to_vec();
        for i in 0..self.m {
            let cb = c[self.basis[i]];
            if cb != 0.0 {
                for (j, aij) in self.rows[i].iter() {
                    d[j] -= cb * aij;
                }
            }
        }
        d
    }

    /// Current value of a nonbasic column (the bound it sits at).
    fn nonbasic_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.ub[j]
        } else {
            self.lb[j]
        }
    }

    /// Extract a full tableau column into a dense scratch vector.
    fn column_into(&self, col: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.m).map(|i| self.rows[i].get(col)));
    }

    /// Retarget structural bounds (warm start). Nonbasic structurals are
    /// re-seated on a finite bound under the new interval and the basic
    /// values are adjusted for any value shift; basic structurals only
    /// get their interval updated (the dual repair restores feasibility).
    fn apply_bounds(&mut self, lb: &[f64], ub: &[f64]) -> Result<(), SolveError> {
        for j in 0..self.n {
            let (nl, nu) = (lb[j], ub[j]);
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
                    for i in 0..self.m {
                        let aij = self.rows[i].get(j);
                        if aij != 0.0 {
                            self.rhs[i] -= aij * delta;
                        }
                    }
                }
                self.at_upper[j] = up;
            }
            self.lb[j] = nl;
            self.ub[j] = nu;
        }
        Ok(())
    }

    /// Primal bounded-variable simplex on reduced costs `d` until no
    /// nonbasic column priced below `col_limit` can improve. Bound flips
    /// and pivots both count toward the iteration cap. Devex
    /// reference weights live for exactly one call — every solve (and
    /// every warm-start clean-up pass) starts a fresh reference
    /// framework, so pricing history can never leak between solves and
    /// a solve stays a pure function of `(model, bounds, basis)`.
    fn iterate_with(
        &mut self,
        d: &mut [f64],
        col_limit: usize,
        pricing: Pricing,
    ) -> Result<(), SolveError> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
        let mut pivots = 0u64;
        let mut flips = 0u64;
        let mut degenerate = 0u64;
        let mut scanned = 0u64;
        let mut devex_pivots = 0u64;
        let mut devex_resets = 0u64;
        let mut weights: Option<Vec<f64>> = match pricing {
            Pricing::Dantzig => None,
            // The tableau engine approximates steepest-edge with devex
            // weights; exact norms need the factorized engine's BTRAN.
            Pricing::Devex | Pricing::SteepestEdge => Some(vec![1.0; self.cols]),
        };
        let result = (|| {
            let mut ecol = vec![0.0; self.m];
            for iter in 0..max_iter {
                let bland = iter >= BLAND_AFTER;
                let enter = if bland {
                    self.choose_entering(d, col_limit, true, &mut scanned)
                } else if let Some(w) = weights.as_ref() {
                    self.choose_entering_devex(d, col_limit, w, &mut scanned)
                } else {
                    self.choose_entering(d, col_limit, false, &mut scanned)
                };
                let Some(enter) = enter else {
                    return Ok(());
                };
                // Direction the entering variable moves: up from its
                // lower bound, down from its upper bound.
                let dir = if self.at_upper[enter] { -1.0 } else { 1.0 };
                self.column_into(enter, &mut ecol);
                match self.ratio_test(enter, dir, &ecol) {
                    Step::Unbounded => return Err(SolveError::Unbounded),
                    Step::Flip => {
                        let span = self.ub[enter] - self.lb[enter];
                        let delta = dir * span;
                        // The objective moves by d[enter]·delta; a
                        // minimising step must never increase it.
                        #[cfg(feature = "check-invariants")]
                        Self::assert_monotone_step(d[enter], delta, "bound flip");
                        for (r, &e) in self.rhs.iter_mut().zip(&ecol) {
                            *r -= e * delta;
                        }
                        self.at_upper[enter] = !self.at_upper[enter];
                        flips += 1;
                    }
                    Step::Pivot {
                        row,
                        target,
                        leave_at_upper,
                    } => {
                        if (self.rhs[row] - target).abs() <= EPS {
                            degenerate += 1;
                        }
                        #[cfg(feature = "check-invariants")]
                        Self::assert_monotone_step(
                            d[enter],
                            (self.rhs[row] - target) / ecol[row],
                            "pivot",
                        );
                        let alpha = ecol[row];
                        let leave = self.basis[row];
                        self.pivot_to(row, enter, target, leave_at_upper, d, &ecol);
                        pivots += 1;
                        if let Some(w) = weights.as_mut() {
                            devex_pivots += 1;
                            if Self::devex_update(w, &self.rows[row], enter, leave, alpha) {
                                devex_resets += 1;
                            }
                        }
                    }
                }
            }
            Err(SolveError::IterationLimit)
        })();
        vb_telemetry::counter!("solver.pivots").add(pivots);
        vb_telemetry::counter!("solver.pricing_cols_scanned").add(scanned);
        if flips > 0 {
            vb_telemetry::counter!("solver.bound_flips").add(flips);
        }
        if degenerate > 0 {
            vb_telemetry::counter!("solver.degenerate_pivots").add(degenerate);
        }
        if devex_pivots > 0 {
            vb_telemetry::counter!("solver.devex_pivots").add(devex_pivots);
        }
        if devex_resets > 0 {
            vb_telemetry::counter!("solver.devex_resets").add(devex_resets);
        }
        result
    }

    /// Devex reference-weight update after a pivot with entering column
    /// `enter` and leaving column `leave` (pivot element `alpha`).
    /// `prow` is the already-scaled pivot row, so its entry at column
    /// `j` is exactly `α_rj/α_rq` — the quantity the classic devex
    /// recurrence needs: `w_j ← max(w_j, (α_rj/α_rq)²·w_q)` for the
    /// pivot row's nonzeros, and `w_leave ← max(w_q/α², 1)` for the
    /// variable that just went nonbasic. Returns `true` when the
    /// framework overflowed [`DEVEX_RESET`] and every weight was reset
    /// to 1 (a fresh reference framework).
    fn devex_update(w: &mut [f64], prow: &SpRow, enter: usize, leave: usize, alpha: f64) -> bool {
        let wq = w[enter].max(1.0);
        let mut wmax = 0.0f64;
        for (j, p) in prow.iter() {
            if j != enter {
                let cand = p * p * wq;
                if cand > w[j] {
                    w[j] = cand;
                }
                if w[j] > wmax {
                    wmax = w[j];
                }
            }
        }
        w[leave] = (wq / (alpha * alpha)).max(1.0);
        w[enter] = 1.0;
        if wmax.max(w[leave]) > DEVEX_RESET {
            for x in w.iter_mut() {
                *x = 1.0;
            }
            return true;
        }
        false
    }

    /// Devex entering choice: the nonbasic column maximising
    /// `d_j²/w_j` over all violations. A full deterministic scan —
    /// unlike the cyclic Dantzig block, devex pays for a global look
    /// each iteration and earns it back in pivot count; ties break on
    /// the lowest column index (first strict improvement wins).
    fn choose_entering_devex(
        &self,
        d: &[f64],
        col_limit: usize,
        w: &[f64],
        scanned: &mut u64,
    ) -> Option<usize> {
        let mut best = None;
        let mut best_score = 0.0f64;
        for (j, &dj) in d.iter().enumerate().take(col_limit) {
            if self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
                continue; // basic or fixed
            }
            *scanned += 1;
            let viol = if self.at_upper[j] { dj } else { -dj };
            if viol > COST_EPS {
                let score = viol * viol / w[j];
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
        }
        best
    }

    /// Entering column. Dantzig mode prices a cyclic candidate block: a
    /// scan starting at the persisted `price_pos` cursor that keeps the
    /// best reduced-cost violation and stops once a candidate exists and
    /// at least the block width has been examined (a full lap finding
    /// nothing proves optimality). Bland mode does the classic full
    /// lowest-index scan for anti-cycling. A nonbasic column at its
    /// lower bound wants `d < 0`; one at its upper bound wants `d > 0`.
    /// `scanned` accumulates examined columns for pricing telemetry.
    fn choose_entering(
        &mut self,
        d: &[f64],
        col_limit: usize,
        bland: bool,
        scanned: &mut u64,
    ) -> Option<usize> {
        if bland {
            for (j, &dj) in d.iter().enumerate().take(col_limit) {
                if self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
                    continue; // basic or fixed
                }
                *scanned += 1;
                let score = if self.at_upper[j] { dj } else { -dj };
                if score > COST_EPS {
                    return Some(j);
                }
            }
            return None;
        }
        if col_limit == 0 {
            return None;
        }
        let block = PRICE_BLOCK.max(col_limit / 8);
        let mut j = if self.price_pos < col_limit {
            self.price_pos
        } else {
            0
        };
        let mut best = None;
        let mut best_score = COST_EPS;
        for step in 0..col_limit {
            *scanned += 1;
            if self.basis_pos[j] == usize::MAX && self.ub[j] - self.lb[j] > EPS {
                let score = if self.at_upper[j] { d[j] } else { -d[j] };
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
            j += 1;
            if j == col_limit {
                j = 0;
            }
            if best.is_some() && step + 1 >= block {
                break;
            }
        }
        self.price_pos = j;
        best
    }

    /// Bounded ratio test for `enter` moving in direction `dir` (its
    /// tableau column pre-extracted into `ecol`): the tightest of (a)
    /// each basic variable hitting a bound and (b) the entering variable
    /// reaching its opposite bound. Ties between rows break on the
    /// smallest basic column index.
    fn ratio_test(&self, enter: usize, dir: f64, ecol: &[f64]) -> Step {
        let span = self.ub[enter] - self.lb[enter]; // may be ∞
        let mut best_step = span;
        let mut best: Option<(usize, f64, bool)> = None; // (row, target, at_upper)
        for (i, &e) in ecol.iter().enumerate() {
            let rate = dir * e;
            let b = self.basis[i];
            let value = self.rhs[i];
            // Moving `enter` by +step changes this basic by −rate·step.
            let (limit, target, leave_at_upper) = if rate > EPS {
                if self.lb[b].is_finite() {
                    ((value - self.lb[b]) / rate, self.lb[b], false)
                } else {
                    continue;
                }
            } else if rate < -EPS {
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

    /// Dual simplex: while some basic variable violates its bounds, pick
    /// the worst row, send its basic variable to the violated bound, and
    /// bring in the nonbasic column that keeps the reduced costs dual
    /// feasible (smallest `|d/α|`). Terminates when primal feasible;
    /// errs `Infeasible` when a violated row admits no entering column
    /// (a valid infeasibility certificate).
    fn dual_iterate(&mut self, d: &mut [f64], col_limit: usize) -> Result<(), SolveError> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
        let mut pivots = 0u64;
        let result = (|| {
            let mut ecol = vec![0.0; self.m];
            for _ in 0..max_iter {
                // Leaving row: the largest bound violation.
                let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, below)
                for i in 0..self.m {
                    let b = self.basis[i];
                    let v = self.rhs[i];
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

                // Entering column by the dual ratio test, scanning only
                // the leaving row's nonzeros (sorted, so stop at the
                // column limit). Eligibility: the column must be able to
                // move the leaving basic toward its bound given which
                // side it sits on.
                let mut enter: Option<(usize, f64)> = None;
                for (j, alpha) in self.rows[row].iter() {
                    if j >= col_limit {
                        break;
                    }
                    if self.basis_pos[j] != usize::MAX || self.ub[j] - self.lb[j] <= EPS {
                        continue;
                    }
                    if alpha.abs() <= EPS {
                        continue;
                    }
                    let eligible = if below {
                        // Basic must increase: at-lower needs α<0,
                        // at-upper needs α>0.
                        (!self.at_upper[j] && alpha < -EPS) || (self.at_upper[j] && alpha > EPS)
                    } else {
                        (!self.at_upper[j] && alpha > EPS) || (self.at_upper[j] && alpha < -EPS)
                    };
                    if !eligible {
                        continue;
                    }
                    let ratio = (d[j] / alpha).abs();
                    if enter.is_none_or(|(_, r)| ratio < r - EPS) {
                        enter = Some((j, ratio));
                    }
                }
                let Some((col, _)) = enter else {
                    return Err(SolveError::Infeasible);
                };
                self.column_into(col, &mut ecol);
                self.pivot_to(row, col, target, !below, d, &ecol);
                pivots += 1;
            }
            Err(SolveError::IterationLimit)
        })();
        vb_telemetry::counter!("solver.pivots").add(pivots);
        if pivots > 0 {
            vb_telemetry::counter!("solver.dual_pivots").add(pivots);
        }
        result
    }

    /// Pivot `col` into the basis at `row`, sending the leaving variable
    /// to `target` (its lower bound when `leave_at_upper` is false).
    /// `ecol` is the entering column pre-extracted by the caller. The
    /// rhs is updated from the entering variable's travel, then the
    /// sparse rows are eliminated Gauss–Jordan style — touching only the
    /// pivot row's nonzero columns — and the reduced-cost row follows.
    fn pivot_to(
        &mut self,
        row: usize,
        col: usize,
        target: f64,
        leave_at_upper: bool,
        d: &mut [f64],
        ecol: &[f64],
    ) {
        let alpha = ecol[row];
        debug_assert!(alpha.abs() > EPS);
        let delta = (self.rhs[row] - target) / alpha;
        let entering_value = self.nonbasic_value(col) + delta;

        // New basic values.
        for (i, (r, &e)) in self.rhs.iter_mut().zip(ecol).enumerate() {
            if i != row {
                *r -= e * delta;
            }
        }

        // Basis bookkeeping.
        let leave = self.basis[row];
        self.at_upper[leave] = leave_at_upper;
        self.basis_pos[leave] = usize::MAX;
        self.basis[row] = col;
        self.basis_pos[col] = row;

        // Eliminate the entering column (coefficients only; the rhs is
        // maintained explicitly above). The pivot row is scaled once and
        // each other row with a nonzero entering entry gets one sparse
        // axpy merge.
        let inv = 1.0 / alpha;
        let mut prow = std::mem::take(&mut self.rows[row]);
        prow.scale(inv);
        prow.set(col, 1.0); // exact, so eliminated entries cancel to 0
        let mut scratch = std::mem::take(&mut self.scratch);
        for (i, &factor) in ecol.iter().enumerate() {
            if i == row {
                continue;
            }
            if factor.abs() > EPS {
                axpy_into(&mut scratch, &self.rows[i], -factor, &prow);
                std::mem::swap(&mut self.rows[i], &mut scratch);
            }
        }
        self.scratch = scratch;
        let factor = d[col];
        if factor.abs() > EPS {
            for (j, p) in prow.iter() {
                d[j] -= factor * p;
            }
        }
        self.rows[row] = prow;
        self.rhs[row] = entering_value;

        #[cfg(feature = "check-invariants")]
        self.assert_invariants("pivot");
    }

    /// After phase 1: pivot basic artificials (at value 0) out where a
    /// real column has a nonzero entry (redundant rows keep theirs), then
    /// freeze every artificial at `[0, 0]` so phase 2 and later warm
    /// starts can never move one again.
    fn expel_and_freeze_artificials(&mut self, d: &mut [f64]) {
        let mut ecol = vec![0.0; self.m];
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                let col = self.rows[i].iter().find_map(|(j, v)| {
                    (j < self.art_start && self.basis_pos[j] == usize::MAX && v.abs() > 1e-7)
                        .then_some(j)
                });
                if let Some(col) = col {
                    self.column_into(col, &mut ecol);
                    self.pivot_to(i, col, 0.0, false, d, &ecol);
                }
            }
        }
        for j in self.art_start..self.cols {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
        }
        #[cfg(feature = "check-invariants")]
        self.assert_invariants("artificial expulsion");
    }

    /// Algebraic self-checks behind the `check-invariants` feature,
    /// called after every pivot (and at build/expel boundaries):
    ///
    /// 1. every sparse row's column indices are strictly increasing,
    ///    in range, and carry finite values;
    /// 2. `basis`/`basis_pos` form a consistent bijection between the
    ///    `m` rows and exactly `m` basic columns, and each basic column
    ///    holds a unit entry in its own row (the Gauss–Jordan
    ///    elimination's fixed point);
    /// 3. every nonbasic column sits at one of its (finite) bounds.
    ///
    /// Plain `assert!`, not `debug_assert!`: the point of the feature is
    /// to keep the checks live in `--release` CI runs.
    /// Phase-2 (and phase-1) objective monotonicity: a primal step moves
    /// the entering variable by `travel`, changing the min-sense
    /// objective by `d_enter·travel`, which must never be positive
    /// beyond ratio-test tolerance. The dual-simplex repair passes are
    /// exempt — restoring primal feasibility legitimately pays
    /// objective.
    #[cfg(feature = "check-invariants")]
    fn assert_monotone_step(d_enter: f64, travel: f64, what: &str) {
        let change = d_enter * travel;
        assert!(
            change <= FEAS_EPS * (1.0 + travel.abs()),
            "objective increased by {change} on a primal {what} \
             (reduced cost {d_enter}, travel {travel})"
        );
    }

    #[cfg(feature = "check-invariants")]
    fn assert_invariants(&self, ctx: &str) {
        for (i, row) in self.rows.iter().enumerate() {
            assert_eq!(
                row.idx.len(),
                row.val.len(),
                "row {i}: idx/val length mismatch after {ctx}"
            );
            for w in row.idx.windows(2) {
                assert!(
                    w[0] < w[1],
                    "row {i}: unsorted/duplicate column indices after {ctx}"
                );
            }
            if let Some(&last) = row.idx.last() {
                assert!(
                    (last as usize) < self.cols,
                    "row {i}: column out of range after {ctx}"
                );
            }
            for (j, v) in row.iter() {
                assert!(
                    v.is_finite(),
                    "row {i}, column {j}: non-finite coefficient after {ctx}"
                );
            }
        }

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
            let diag = self.rows[i].get(b);
            assert!(
                (diag - 1.0).abs() <= 1e-6,
                "row {i}: basic column {b} has non-unit entry {diag} after {ctx}"
            );
        }
        let n_basic = self.basis_pos.iter().filter(|&&p| p != usize::MAX).count();
        assert_eq!(n_basic, self.m, "basic column count != m after {ctx}");
        for (j, &p) in self.basis_pos.iter().enumerate() {
            if p != usize::MAX {
                assert_eq!(
                    self.basis[p], j,
                    "basis[{p}] disagrees with basis_pos[{j}] after {ctx}"
                );
            }
        }

        for j in 0..self.cols {
            if self.basis_pos[j] == usize::MAX {
                let v = self.nonbasic_value(j);
                assert!(
                    v.is_finite(),
                    "nonbasic column {j} rests on a non-finite bound after {ctx}"
                );
            }
        }
    }

    /// Read the structural solution and objective off the tableau.
    fn extract(&self, model: &Model) -> Solution {
        let mut x = vec![0.0; self.n];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = if self.basis_pos[j] != usize::MAX {
                self.rhs[self.basis_pos[j]]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    fn le(m: &mut Model, terms: &[(VarId, f64)], rhs: f64) {
        let e = m.expr(terms);
        m.add_le(e, rhs);
    }

    #[test]
    fn classic_two_variable_max() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 -> x=2,y=6, obj 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        le(&mut m, &[(x, 1.0)], 4.0);
        le(&mut m, &[(y, 2.0)], 12.0);
        le(&mut m, &[(x, 3.0), (y, 2.0)], 18.0);
        let e = m.expr(&[(x, 3.0), (y, 5.0)]);
        m.set_objective(e);
        let s = m.solve().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_constraints_uses_phase1() {
        // min 2x + 3y s.t. x + y >= 10 -> all on the cheaper x, obj 20.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_ge(e, 10.0);
        let obj = m.expr(&[(x, 2.0), (y, 3.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert!((s.value(x) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1, obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let y = m.var("y", 0.0, f64::INFINITY);
        let e1 = m.expr(&[(x, 1.0), (y, 2.0)]);
        m.add_eq(e1, 4.0);
        let e2 = m.expr(&[(x, 1.0), (y, -1.0)]);
        m.add_eq(e2, 1.0);
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 5.0);
        let e1 = m.expr(&[(x, 1.0)]);
        m.add_ge(e1, 10.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn respects_variable_bounds_without_constraint_rows() {
        // max x + y with x in [1, 3], y in [0, 2]: no constraints at all,
        // so the tableau has zero rows and the solve is pure bound flips.
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

    #[test]
    fn beales_cycling_example_terminates() {
        // Beale's classic cycling LP: Dantzig's rule cycles forever on
        // this without an anti-cycling safeguard. Optimum is -0.05.
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
        let s = m.solve().unwrap();
        assert!((s.objective + 0.05).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn binaries_add_no_tableau_rows() {
        // 40 bounded variables, 1 constraint: the bounded-variable
        // tableau must have exactly one row (the old path had 41).
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
    fn sparse_rows_stay_sparse_across_pivots() {
        // A block-diagonal model: rows touch disjoint variable pairs, so
        // no amount of pivoting should densify the tableau.
        let mut m = Model::new(Sense::Maximize);
        let mut obj = LinExpr::zero();
        for k in 0..20 {
            let x = m.var(&format!("x{k}"), 0.0, f64::INFINITY);
            let y = m.var(&format!("y{k}"), 0.0, f64::INFINITY);
            let e = m.expr(&[(x, 1.0), (y, 2.0)]);
            m.add_le(e, 4.0);
            obj = obj.add_term(x, 1.0).add_term(y, 1.0 + (k % 3) as f64);
        }
        m.set_objective(obj);
        let (sol, st) = solve_lp_state(&m, &[], None).unwrap();
        assert!(sol.objective.is_finite());
        let max_nnz = st.rows.iter().map(|r| r.nnz()).max().unwrap();
        assert!(
            max_nnz <= 3,
            "block-diagonal rows densified: max nnz {max_nnz}"
        );
    }

    #[test]
    fn warm_start_reoptimizes_after_bound_change() {
        // max x + y s.t. x + y <= 3, x,y in [0, 2]: optimum 3. Then
        // branch-style: force x <= 1 -> optimum 3 still (y=2, x=1);
        // force x >= 2 -> x=2, y=1.
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
