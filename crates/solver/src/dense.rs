//! Reference dense two-phase primal simplex (row-expansion path).
//!
//! This is the original `vb-solver` LP engine, retained verbatim as the
//! differential-testing oracle for the revised simplex in
//! [`crate::revised`]. It materialises every finite upper bound as an
//! extra `≤` row, which is simple and easy to audit but makes
//! bound-heavy models (e.g. MIPs full of binaries) pay one tableau row
//! per bound. Every solve in this crate goes through
//! [`crate::revised::solve_lp_state`]; this path is only called from
//! tests that cross-check the two engines against each other.
//!
//! The implementation follows the textbook construction:
//!
//! 1. **Standardise** — shift every variable by its lower bound so all
//!    variables are ≥ 0, turn finite upper bounds into extra `≤` rows,
//!    normalise right-hand sides to be non-negative, and add slack /
//!    surplus / artificial columns per constraint type.
//! 2. **Phase 1** — minimise the sum of artificials from the all-slack /
//!    all-artificial basis; a positive optimum means infeasible.
//! 3. **Phase 2** — minimise the real objective (maximisation is solved
//!    by negation) with artificial columns barred from entering.
//!
//! Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
//! after a fixed number of iterations, which guarantees termination even
//! on degenerate (cycling-prone) instances.

use crate::model::{Cmp, Model, Sense, Solution, SolveError, VarId};

/// Pivot / ratio-test tolerance.
const EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_EPS: f64 = 1e-7;
/// Phase-1 feasibility tolerance.
const FEAS_EPS: f64 = 1e-6;
/// Iterations of Dantzig pivoting before switching to Bland's rule.
const BLAND_AFTER: usize = 2_000;

/// Solve a model's LP relaxation via the row-expansion reference path,
/// with optional `(var, lb, ub)` bound overrides.
pub fn solve_lp_reference(
    model: &Model,
    bound_overrides: &[(VarId, f64, f64)],
) -> Result<Solution, SolveError> {
    let n = model.vars.len();

    // Effective bounds.
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
    }

    // Collect rows: model constraints plus upper-bound rows, expressed
    // over the shifted variables y = x - lb (so y >= 0).
    struct Row {
        coefs: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.constraints.len() + n);
    for c in &model.constraints {
        // The model stores rows sparsely; this reference path stays
        // dense, so expand each row over all n variables.
        let mut coefs = vec![0.0; n];
        for &(v, a) in &c.coefs {
            coefs[v.0] += a;
        }
        let shift: f64 = coefs.iter().zip(&lb).map(|(a, l)| a * l).sum();
        rows.push(Row {
            coefs,
            cmp: c.cmp,
            rhs: c.rhs - shift,
        });
    }
    for j in 0..n {
        if ub[j].is_finite() {
            let mut coefs = vec![0.0; n];
            coefs[j] = 1.0;
            rows.push(Row {
                coefs,
                cmp: Cmp::Le,
                rhs: ub[j] - lb[j],
            });
        }
    }

    // Normalise to non-negative rhs.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for a in r.coefs.iter_mut() {
                *a = -*a;
            }
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    // Column layout: [structural | slacks+surplus | artificials | rhs].
    let m = rows.len();
    let n_slack = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Le | Cmp::Ge))
        .count();
    let n_art = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Ge | Cmp::Eq))
        .count();
    let cols = n + n_slack + n_art;
    let art_start = n + n_slack;

    let mut a = vec![vec![0.0; cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut next_slack = n;
    let mut next_art = art_start;
    for (i, r) in rows.iter().enumerate() {
        a[i][..n].copy_from_slice(&r.coefs);
        a[i][cols] = r.rhs;
        match r.cmp {
            Cmp::Le => {
                a[i][next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Cmp::Ge => {
                a[i][next_slack] = -1.0;
                next_slack += 1;
                a[i][next_art] = 1.0;
                basis[i] = next_art;
                next_art += 1;
            }
            Cmp::Eq => {
                a[i][next_art] = 1.0;
                basis[i] = next_art;
                next_art += 1;
            }
        }
    }

    let mut t = Tableau {
        a,
        basis,
        m,
        cols,
        art_start,
    };

    // Phase 1: minimise the sum of artificials. The cost row is the
    // negative sum of rows whose basic variable is artificial (pricing
    // out the initial basis).
    if n_art > 0 {
        let mut cost = vec![0.0; t.cols + 1];
        for c in cost.iter_mut().take(t.cols).skip(art_start) {
            *c = 1.0;
        }
        for i in 0..t.m {
            if t.basis[i] >= art_start {
                for (j, c) in cost.iter_mut().enumerate().take(t.cols + 1) {
                    *c -= t.a[i][j];
                }
            }
        }
        t.iterate(&mut cost, t.cols)?; // artificials may pivot in phase 1
        let phase1_obj = -cost[t.cols];
        if phase1_obj > FEAS_EPS {
            return Err(SolveError::Infeasible);
        }
        t.expel_artificials();
    }

    // Phase 2: the real objective over shifted variables (min sense).
    let sign = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut c_struct = vec![0.0; n];
    for &(v, coef) in &model.objective {
        c_struct[v.0] += sign * coef;
    }
    let mut cost = vec![0.0; t.cols + 1];
    cost[..n].copy_from_slice(&c_struct);
    // Price out the current basis.
    for i in 0..t.m {
        let b = t.basis[i];
        let cb = if b < n { c_struct[b] } else { 0.0 };
        if cb != 0.0 {
            for (j, c) in cost.iter_mut().enumerate().take(t.cols + 1) {
                *c -= cb * t.a[i][j];
            }
        }
    }
    t.iterate(&mut cost, t.art_start)?;

    // Extract x = y + lb and the objective in the model's sense.
    let mut x = lb.clone();
    for i in 0..t.m {
        if t.basis[i] < n {
            x[t.basis[i]] += t.a[i][t.cols];
        }
    }
    let shifted_obj = -cost[t.cols]; // value of min(sign·c'y)
    let const_part: f64 = model
        .objective
        .iter()
        .map(|&(v, coef)| coef * lb[v.0])
        .sum::<f64>()
        + model.objective_const;
    let objective = sign * shifted_obj + const_part;
    Ok(Solution::new(objective, x))
}

struct Tableau {
    /// `m × (cols + 1)` rows; the last column is the rhs.
    a: Vec<Vec<f64>>,
    basis: Vec<usize>,
    m: usize,
    cols: usize,
    /// First artificial column index.
    art_start: usize,
}

impl Tableau {
    /// Run simplex iterations on the given cost row until optimal.
    /// Columns at `col_limit` and beyond may not enter the basis.
    fn iterate(&mut self, cost: &mut [f64], col_limit: usize) -> Result<(), SolveError> {
        let max_iter = 20_000 + 100 * (self.m + self.cols);
        for iter in 0..max_iter {
            let bland = iter >= BLAND_AFTER;
            let Some(enter) = self.choose_entering(cost, col_limit, bland) else {
                return Ok(());
            };
            let Some(leave) = self.choose_leaving(enter) else {
                return Err(SolveError::Unbounded);
            };
            self.pivot(leave, enter, cost);
        }
        Err(SolveError::IterationLimit)
    }

    /// Entering column: most negative reduced cost (Dantzig) or first
    /// negative (Bland).
    fn choose_entering(&self, cost: &[f64], col_limit: usize, bland: bool) -> Option<usize> {
        if bland {
            (0..col_limit).find(|&j| cost[j] < -COST_EPS)
        } else {
            let mut best = None;
            let mut best_cost = -COST_EPS;
            for (j, &cj) in cost.iter().enumerate().take(col_limit) {
                if cj < best_cost {
                    best_cost = cj;
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Leaving row by minimum ratio test, ties broken by smallest basis
    /// index (lexicographic tie-break helps avoid cycling).
    fn choose_leaving(&self, enter: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let aij = self.a[i][enter];
            if aij > EPS {
                let ratio = self.a[i][self.cols] / aij;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - EPS || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Gauss–Jordan pivot on `(row, col)`, updating the cost row too.
    fn pivot(&mut self, row: usize, col: usize, cost: &mut [f64]) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        for v in self.a[row].iter_mut() {
            *v *= inv;
        }
        // Split borrows: copy the pivot row to update the others.
        let pivot_row = self.a[row].clone();
        for i in 0..self.m {
            if i != row {
                let factor = self.a[i][col];
                if factor.abs() > EPS {
                    for (v, p) in self.a[i].iter_mut().zip(&pivot_row) {
                        *v -= factor * p;
                    }
                }
            }
        }
        let factor = cost[col];
        if factor.abs() > EPS {
            for (v, p) in cost.iter_mut().zip(&pivot_row) {
                *v -= factor * p;
            }
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivot any basic artificial (at value 0) out of the
    /// basis if some non-artificial column has a nonzero entry in its
    /// row; otherwise the row is redundant and the artificial stays at 0.
    fn expel_artificials(&mut self) {
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                if let Some(col) = (0..self.art_start).find(|&j| self.a[i][j].abs() > 1e-7) {
                    let mut dummy = vec![0.0; self.cols + 1];
                    self.pivot(i, col, &mut dummy);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn reference_solves_the_classic_two_variable_max() {
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
        let e = m.expr(&[(x, 3.0), (y, 5.0)]);
        m.set_objective(e);
        let s = solve_lp_reference(&m, &[]).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn reference_detects_infeasible_bound_overrides() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 10.0);
        let e = m.expr(&[(x, 1.0)]);
        m.set_objective(e);
        assert_eq!(
            solve_lp_reference(&m, &[(x, 6.0, 4.0)]).unwrap_err(),
            SolveError::Infeasible
        );
    }
}
