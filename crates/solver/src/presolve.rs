//! Presolve: shrink a [`Model`] before handing it to the simplex / B&B
//! kernel, with a deterministic postsolve that reconstructs full-space
//! solutions.
//!
//! Five classic reductions run to a fixed point:
//!
//! * **Fixed-variable elimination** — a variable whose bound interval
//!   has collapsed (`ub − lb ≤ ε`) is substituted into every row and
//!   the objective and removed from the model.
//! * **Singleton-row substitution** — a row with exactly one live
//!   variable `a·x ⋈ b` is exactly a bound on `x`; the bound is folded
//!   into the variable and the row dropped.
//! * **Bound tightening** — feasibility-based: for each row, the
//!   minimum activity of the *other* terms implies a bound on each
//!   variable, which is adopted when it strictly tightens the current
//!   one. Integer bounds are rounded to `⌈lb⌉ / ⌊ub⌋` in MIP mode.
//! * **Implied rows** — a `≤` row whose maximum activity over the
//!   current bounds is at most its right-hand side (a `≥` row whose
//!   minimum activity is at least it) can never bind and is dropped.
//!   The comparison is exact; the activities come from the same loop
//!   that bound tightening runs on the row.
//! * **Dominated columns (dual fixing)** — a variable whose min-sense
//!   cost is `≥ 0` and which no live row stops from decreasing (no `=`
//!   row, positive coefficients only in `≤` rows, negative only in `≥`
//!   rows) is fixed at its lower bound; the mirror case fixes a
//!   variable at a finite upper bound. Fixed-variable elimination then
//!   substitutes it out.
//!
//! In the §3.1 placement model most per-(site, bucket) displacement
//! rows `d − Σ cores·n ≥ committed − capacity` are implied (even every
//! planned app on the site stays under the forecast), after which `d`
//! is dominated at 0 and its peak row `gbpc·d − z ≤ 0` collapses to a
//! bound. Over every epoch of a seed-7 vbbench run the models shrink
//! from 62.6 rows × 66.5 columns to 24.8 × 38.9 on `fleet_mip` and
//! from 109.9 × 86.7 to 37.0 × 36.2 on `table1`.
//!
//! The first four only remove points that no feasible solution can use
//! (an implied row is redundant under the bounds). Dual fixing removes
//! points that no optimal solution needs: moving any optimum onto the
//! fixed bound keeps it feasible and does not worsen its objective.
//! So the reduced model has exactly the same optimal objective — and,
//! on instances with a unique optimum, the same optimal assignment —
//! as the original. Every reduction is a pure function of the input
//! model (no randomness, no iteration-order dependence on hash maps),
//! so the reduced model and the postsolved solution are deterministic.
//!
//! Infeasibility discovered here (crossed bounds, an inconsistent
//! constant row) is a valid certificate and surfaces as
//! [`SolveError::Infeasible`].

use crate::model::{Cmp, Model, Sense, Solution, SolveError, VarId};

/// A bound must improve by more than this to count as tightened
/// (prevents float jitter from looping the fixed-point passes).
const TIGHTEN_EPS: f64 = 1e-7;
/// Interval width at or below which a variable counts as fixed.
const FIX_EPS: f64 = 1e-9;
/// Feasibility slack for constant-row consistency checks (matches the
/// simplex engine's primal tolerance).
const FEAS_EPS: f64 = 1e-6;
/// Fixed-point pass cap. With dual fixing, the fixed point is reached
/// within 4 passes (the last one changing nothing) on every placement
/// model of a seed-7 vbbench run: 696 `fleet_mip` and 4 306 `table1`
/// epochs, nearly all in 3.
const MAX_PASSES: usize = 8;

/// Reduction statistics (also mirrored into `solver.presolve_*`
/// telemetry counters), summed over all five reductions. On a traced
/// seed-7 vbbench run `rows_removed` totals 5 673 over `fleet_mip`'s
/// 144 traced MIPs and 60 479 over `table1`'s 825 (33 and 8 699
/// before implied rows and dual fixing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Variables eliminated by substitution: collapsed intervals,
    /// including those fixed by dual fixing.
    pub vars_fixed: usize,
    /// Rows dropped: singletons folded into bounds, constant rows, and
    /// rows implied by their activity bounds.
    pub rows_removed: usize,
    /// Variable bounds strictly tightened.
    pub bounds_tightened: usize,
}

/// A presolved model: the reduced [`Model`] plus the mapping needed to
/// reconstruct full-space solutions.
#[derive(Debug, Clone)]
pub struct Presolved {
    reduced: Model,
    /// Reduced variable index → original variable index.
    keep: Vec<usize>,
    /// `(original index, value)` per eliminated variable.
    fixed: Vec<(usize, f64)>,
    orig_vars: usize,
    /// What the reductions accomplished.
    pub stats: PresolveStats,
}

/// One live working row during the reduction passes.
struct WorkRow {
    coefs: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
    alive: bool,
}

/// Presolve for a MIP solve: integrality is respected, so integer
/// bounds are rounded inward — valid for the integer problem, *not*
/// for its LP relaxation.
pub fn presolve_mip(model: &Model) -> Result<Presolved, SolveError> {
    run(model, true)
}

/// Presolve for a pure LP (or an LP relaxation): integral rounding is
/// skipped, so the reduced model has exactly the original's continuous
/// feasible set.
pub fn presolve_lp(model: &Model) -> Result<Presolved, SolveError> {
    run(model, false)
}

fn run(model: &Model, integrality: bool) -> Result<Presolved, SolveError> {
    let n = model.vars.len();
    let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
    let int: Vec<bool> = model
        .vars
        .iter()
        .map(|v| integrality && v.integer)
        .collect();
    let mut rows: Vec<WorkRow> = model
        .constraints
        .iter()
        .map(|c| WorkRow {
            coefs: c.coefs.iter().map(|&(v, a)| (v.0, a)).collect(),
            cmp: c.cmp,
            rhs: c.rhs,
            alive: true,
        })
        .collect();
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    let mut stats = PresolveStats::default();
    // Objective coefficients in the minimization sense, for dual fixing.
    let flip = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; n];
    for &(v, c) in &model.objective {
        cost[v.0] = flip * c;
    }

    // Integer bounds start on the grid.
    for j in 0..n {
        if int[j] {
            round_integer(&mut lb[j], &mut ub[j]);
        }
        if lb[j] > ub[j] + FIX_EPS {
            return Err(SolveError::Infeasible);
        }
    }

    for _pass in 0..MAX_PASSES {
        let mut changed = false;

        // Fix collapsed intervals and substitute them out of every row.
        let newly: Vec<usize> = (0..n)
            .filter(|&j| fixed[j].is_none() && ub[j] - lb[j] <= FIX_EPS)
            .collect();
        if !newly.is_empty() {
            for &j in &newly {
                fixed[j] = Some(lb[j]);
                stats.vars_fixed += 1;
            }
            for row in rows.iter_mut().filter(|r| r.alive) {
                let mut shift = 0.0;
                row.coefs.retain(|&(j, a)| {
                    if let Some(v) = fixed[j] {
                        shift += a * v;
                        false
                    } else {
                        true
                    }
                });
                row.rhs -= shift;
            }
            changed = true;
        }

        // Constant rows are consistency checks; singleton rows are
        // bounds in disguise. Both leave the model.
        for row in rows.iter_mut().filter(|r| r.alive) {
            match row.coefs.len() {
                0 => {
                    let ok = match row.cmp {
                        Cmp::Le => row.rhs >= -FEAS_EPS,
                        Cmp::Ge => row.rhs <= FEAS_EPS,
                        Cmp::Eq => row.rhs.abs() <= FEAS_EPS,
                    };
                    if !ok {
                        return Err(SolveError::Infeasible);
                    }
                    row.alive = false;
                    stats.rows_removed += 1;
                    changed = true;
                }
                1 => {
                    let (j, a) = row.coefs[0];
                    let bound = row.rhs / a;
                    // `a·x ≤ b` caps x from above when a > 0, below
                    // when a < 0; `≥` mirrors; `=` pins both sides.
                    let (cap_ub, cap_lb) = match (row.cmp, a > 0.0) {
                        (Cmp::Le, true) | (Cmp::Ge, false) => (true, false),
                        (Cmp::Le, false) | (Cmp::Ge, true) => (false, true),
                        (Cmp::Eq, _) => (true, true),
                    };
                    if cap_ub {
                        tighten_ub(j, bound, &mut ub, &int, &mut stats);
                    }
                    if cap_lb {
                        tighten_lb(j, bound, &mut lb, &int, &mut stats);
                    }
                    if lb[j] > ub[j] + FIX_EPS {
                        return Err(SolveError::Infeasible);
                    }
                    row.alive = false;
                    stats.rows_removed += 1;
                    changed = true;
                }
                _ => {}
            }
        }

        // Feasibility-based bound tightening: in `Σ aⱼxⱼ ≤ b`, variable
        // j can use at most `b` minus what the other terms must consume
        // at minimum. `≥` rows tighten through their negation; `=` rows
        // tighten from both sides. A row that its activity bounds
        // already satisfy can tighten nothing and is dropped instead.
        let before = stats.bounds_tightened;
        for row in rows.iter_mut() {
            if !row.alive || row.coefs.len() < 2 {
                continue;
            }
            let (min_le, min_ge) = min_activities(&row.coefs, &lb, &ub);
            // `min_ge` is minus the row's maximum activity.
            let implied = match row.cmp {
                Cmp::Le => min_ge >= -row.rhs,
                Cmp::Ge => min_le >= row.rhs,
                Cmp::Eq => false,
            };
            if implied {
                row.alive = false;
                stats.rows_removed += 1;
                changed = true;
                continue;
            }
            if matches!(row.cmp, Cmp::Le | Cmp::Eq) {
                tighten_from_le(
                    &row.coefs, row.rhs, 1.0, min_le, &mut lb, &mut ub, &int, &mut stats,
                )?;
            }
            if matches!(row.cmp, Cmp::Ge | Cmp::Eq) {
                // The `≤` side of an `=` row may have moved the bounds.
                let min_ge = match row.cmp {
                    Cmp::Eq => min_activities(&row.coefs, &lb, &ub).1,
                    _ => min_ge,
                };
                tighten_from_le(
                    &row.coefs, -row.rhs, -1.0, min_ge, &mut lb, &mut ub, &int, &mut stats,
                )?;
            }
        }
        changed |= stats.bounds_tightened > before;

        // Dual fixing: a variable that no live row stops from moving
        // toward its cheaper bound sits at that bound in some optimum.
        // The next pass substitutes it out.
        let mut down_locked = vec![false; n];
        let mut up_locked = vec![false; n];
        for row in rows.iter().filter(|r| r.alive) {
            for &(j, a) in &row.coefs {
                let (down, up) = match row.cmp {
                    Cmp::Eq => (true, true),
                    Cmp::Le => (a < 0.0, a > 0.0),
                    Cmp::Ge => (a > 0.0, a < 0.0),
                };
                down_locked[j] |= down;
                up_locked[j] |= up;
            }
        }
        for j in 0..n {
            if fixed[j].is_some() || ub[j] - lb[j] <= FIX_EPS {
                continue;
            }
            if cost[j] >= 0.0 && !down_locked[j] {
                ub[j] = lb[j];
                changed = true;
            } else if cost[j] <= 0.0 && !up_locked[j] && ub[j].is_finite() {
                lb[j] = ub[j];
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    vb_telemetry::counter!("solver.presolve_runs").inc();
    vb_telemetry::counter!("solver.presolve_vars_fixed").add(stats.vars_fixed as u64);
    vb_telemetry::counter!("solver.presolve_rows_removed").add(stats.rows_removed as u64);
    vb_telemetry::counter!("solver.presolve_bounds_tightened").add(stats.bounds_tightened as u64);

    // Assemble the reduced model. Kept variables and surviving rows
    // stay in original order, so the reduction is deterministic.
    let mut reduced = Model::new(model.sense);
    let mut old2new = vec![usize::MAX; n];
    let mut keep = Vec::new();
    for j in 0..n {
        if fixed[j].is_none() {
            old2new[j] = keep.len();
            keep.push(j);
            let v = &model.vars[j];
            if v.integer {
                reduced.int_var(&v.name, lb[j], ub[j]);
            } else {
                reduced.var(&v.name, lb[j], ub[j]);
            }
        }
    }
    for row in rows.iter().filter(|r| r.alive) {
        let terms: Vec<(VarId, f64)> = row
            .coefs
            .iter()
            .map(|&(j, a)| (VarId(old2new[j]), a))
            .collect();
        let e = reduced.expr(&terms);
        reduced.add_constraint(e, row.cmp, row.rhs);
    }
    let mut obj_const = model.objective_const;
    let mut obj_terms = Vec::new();
    for &(v, c) in &model.objective {
        match fixed[v.0] {
            Some(val) => obj_const += c * val,
            None => obj_terms.push((VarId(old2new[v.0]), c)),
        }
    }
    let e = reduced.expr(&obj_terms).add_const(obj_const);
    reduced.set_objective(e);

    let fixed_pairs: Vec<(usize, f64)> = fixed
        .iter()
        .enumerate()
        .filter_map(|(j, v)| v.map(|v| (j, v)))
        .collect();
    Ok(Presolved {
        reduced,
        keep,
        fixed: fixed_pairs,
        orig_vars: n,
        stats,
    })
}

/// Round an integer variable's interval onto the grid (with a small
/// slack so `0.9999999` still rounds to `1`, not `2`/`0`).
fn round_integer(lb: &mut f64, ub: &mut f64) {
    if lb.is_finite() {
        *lb = (*lb - FIX_EPS).ceil();
    }
    if ub.is_finite() {
        *ub = (*ub + FIX_EPS).floor();
    }
}

fn tighten_ub(j: usize, bound: f64, ub: &mut [f64], int: &[bool], stats: &mut PresolveStats) {
    let cand = if int[j] {
        (bound + FIX_EPS).floor()
    } else {
        bound
    };
    if cand < ub[j] - TIGHTEN_EPS {
        ub[j] = cand;
        stats.bounds_tightened += 1;
    }
}

fn tighten_lb(j: usize, bound: f64, lb: &mut [f64], int: &[bool], stats: &mut PresolveStats) {
    let cand = if int[j] {
        (bound - FIX_EPS).ceil()
    } else {
        bound
    };
    if cand > lb[j] + TIGHTEN_EPS {
        lb[j] = cand;
        stats.bounds_tightened += 1;
    }
}

/// The term `a·x` at the end of `x`'s interval that minimizes it.
fn min_term(a: f64, lb: f64, ub: f64) -> f64 {
    if a > 0.0 {
        a * lb
    } else {
        a * ub
    }
}

/// Minimum activities of one row, `(min Σ aⱼxⱼ, min Σ −aⱼxⱼ)`, over the
/// current bounds: the second is minus the row's maximum activity, in
/// the form bound tightening reads the row's `≥` side in.
fn min_activities(coefs: &[(usize, f64)], lb: &[f64], ub: &[f64]) -> (f64, f64) {
    let mut min_le = 0.0f64;
    let mut min_ge = 0.0f64;
    for &(j, a) in coefs {
        min_le += min_term(a, lb[j], ub[j]);
        min_ge += min_term(-a, lb[j], ub[j]);
    }
    (min_le, min_ge)
}

/// Tighten every variable of one row read as `sign·(Σ aⱼxⱼ) ≤ sign·b`
/// (pass `sign = −1` for the `≥` direction), given that direction's
/// minimum activity from [`min_activities`]. Skips the row when the
/// minimum activity is not finite (an unbounded term absorbs any slack).
#[allow(clippy::too_many_arguments)]
fn tighten_from_le(
    coefs: &[(usize, f64)],
    rhs: f64,
    sign: f64,
    minact: f64,
    lb: &mut [f64],
    ub: &mut [f64],
    int: &[bool],
    stats: &mut PresolveStats,
) -> Result<(), SolveError> {
    if !minact.is_finite() {
        return Ok(());
    }
    for &(j, a) in coefs {
        let a = sign * a;
        // Tightening x moves only the bound its own term does not read,
        // so this is the term `minact` was summed from.
        let others = minact - min_term(a, lb[j], ub[j]);
        let bound = (rhs - others) / a;
        if !bound.is_finite() {
            continue;
        }
        if a > 0.0 {
            tighten_ub(j, bound, ub, int, stats);
        } else {
            tighten_lb(j, bound, lb, int, stats);
        }
        if lb[j] > ub[j] + FIX_EPS {
            return Err(SolveError::Infeasible);
        }
    }
    Ok(())
}

impl Presolved {
    /// The reduced model (solve this, then [`Presolved::postsolve`]).
    pub fn reduced(&self) -> &Model {
        &self.reduced
    }

    /// Variables eliminated by the reduction.
    pub fn num_fixed(&self) -> usize {
        self.fixed.len()
    }

    /// Lift a reduced-space solution back to the original variable
    /// space. The objective is recomputed from the *original* model's
    /// cost vector in its own term order, so a presolved solve reports
    /// bit-identical objectives to a direct solve of the same
    /// assignment.
    pub fn postsolve(&self, model: &Model, sol: &Solution) -> Solution {
        let mut values = vec![0.0; self.orig_vars];
        for (r, &j) in self.keep.iter().enumerate() {
            values[j] = sol.value(VarId(r));
        }
        for &(j, v) in &self.fixed {
            values[j] = v;
        }
        let objective: f64 = model
            .objective
            .iter()
            .map(|&(v, c)| c * values[v.0])
            .sum::<f64>()
            + model.objective_const;
        let mut out = Solution::new(objective, values);
        out.budget_gap = sol.budget_gap;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex;

    /// min 2x + 3y + z  s.t.  z = 4 (singleton eq), x + y ≥ 3,
    /// y ≤ 2 (singleton le), x,y ∈ [0, 10].
    fn small() -> Model {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 10.0);
        let y = m.var("y", 0.0, 10.0);
        let z = m.var("z", 0.0, 10.0);
        let e = m.expr(&[(z, 1.0)]);
        m.add_eq(e, 4.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_ge(e, 3.0);
        let e = m.expr(&[(y, 1.0)]);
        m.add_le(e, 2.0);
        let obj = m.expr(&[(x, 2.0), (y, 3.0), (z, 1.0)]);
        m.set_objective(obj);
        m
    }

    #[test]
    fn singleton_rows_become_bounds_and_fix_vars() {
        let m = small();
        let pre = presolve_lp(&m).unwrap();
        // z is fixed at 4 (singleton equality), both singleton rows die.
        assert_eq!(pre.num_fixed(), 1);
        assert_eq!(pre.stats.rows_removed, 2);
        assert_eq!(pre.reduced().num_vars(), 2);
        assert_eq!(pre.reduced().num_constraints(), 1);

        let red_sol = simplex::solve_lp(pre.reduced(), &[]).unwrap();
        let full = pre.postsolve(&m, &red_sol);
        let direct = simplex::solve_lp(&m, &[]).unwrap();
        // Optimum: x = 3, y = 0, z = 4 → 2·3 + 1·4 = 10.
        assert!((full.objective - direct.objective).abs() < 1e-9);
        assert!((full.objective - 10.0).abs() < 1e-6);
        assert!((full.values()[2] - 4.0).abs() < 1e-12, "z reconstructed");
    }

    #[test]
    fn objective_constant_of_fixed_vars_is_folded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 5.0);
        let y = m.var("y", 3.0, 3.0); // fixed by its own bounds
        let e = m.expr(&[(x, 1.0)]);
        m.add_le(e, 2.0);
        // A live row that keeps x from rising freely (and w, unbounded
        // above, from falling), so dual fixing leaves both in the model.
        let w = m.var("w", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (w, -1.0)]);
        m.add_le(e, 1.0);
        let obj = m.expr(&[(x, 1.0), (y, 10.0)]);
        m.set_objective(obj);
        let pre = presolve_mip(&m).unwrap();
        assert_eq!(pre.num_fixed(), 1);
        let red_sol = simplex::solve_lp(pre.reduced(), &[]).unwrap();
        // Reduced objective carries the 30 from y.
        assert!((red_sol.objective - 32.0).abs() < 1e-9);
        let full = pre.postsolve(&m, &red_sol);
        assert!((full.objective - 32.0).abs() < 1e-9);
        assert!((full.values()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn integer_bounds_round_inward_in_mip_mode() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.3, 2.7);
        // A live row that keeps dual fixing from pinning x at its bound.
        let w = m.var("w", 0.0, f64::INFINITY);
        let e = m.expr(&[(x, 1.0), (w, -1.0)]);
        m.add_le(e, 0.5);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        let pre = presolve_mip(&m).unwrap();
        let v = &pre.reduced().vars[0];
        assert_eq!((v.lb, v.ub), (1.0, 2.0));
        // LP mode leaves the relaxation's box alone.
        let pre = presolve_lp(&m).unwrap();
        let v = &pre.reduced().vars[0];
        assert_eq!((v.lb, v.ub), (0.3, 2.7));
    }

    #[test]
    fn crossed_integer_interval_is_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let e = m.expr(&[(x, 2.0)]);
        m.add_le(e, 1.0); // x ≤ 0.5 → integer x ≤ 0
        let e = m.expr(&[(x, 2.0)]);
        m.add_ge(e, 1.2); // x ≥ 0.6 → integer x ≥ 1
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(presolve_mip(&m).unwrap_err(), SolveError::Infeasible);
        // The relaxation is feasible (x ∈ [0.6, 0.5]... exactly not —
        // but LP-mode presolve must agree with the simplex on it).
        let lp = presolve_lp(&m);
        let direct = simplex::solve_lp(&m, &[]);
        assert_eq!(lp.is_err(), direct.is_err());
    }

    #[test]
    fn inconsistent_constant_row_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 1.0, 1.0);
        let y = m.var("y", 2.0, 2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_ge(e, 4.0); // 3 ≥ 4 after both substitutions
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(presolve_lp(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn bound_tightening_zeroes_choked_placements() {
        // Placement shape: app needs 8 cores, site 1's capacity row only
        // admits 5 — tightening must pin the binary to 0 and then the
        // assignment row forces the app home.
        let mut m = Model::new(Sense::Minimize);
        let x0 = m.bin_var("a0s0");
        let x1 = m.bin_var("a0s1");
        let e = m.expr(&[(x0, 1.0), (x1, 1.0)]);
        m.add_eq(e, 1.0);
        let e = m.expr(&[(x1, 8.0)]);
        m.add_le(e, 5.0);
        let obj = m.expr(&[(x0, 1.0), (x1, 0.5)]);
        m.set_objective(obj);
        let pre = presolve_mip(&m).unwrap();
        // x1 fixed to 0 (8 ≤ 5 impossible), then x0 fixed to 1 by the
        // now-singleton assignment row: the whole model dissolves.
        assert_eq!(pre.num_fixed(), 2);
        assert_eq!(pre.reduced().num_vars(), 0);
        let red_sol = simplex::solve_lp(pre.reduced(), &[]).unwrap();
        let full = pre.postsolve(&m, &red_sol);
        assert!((full.objective - 1.0).abs() < 1e-9);
        assert_eq!((full.values()[0], full.values()[1]), (1.0, 0.0));
    }

    /// The value presolve fixed variable `j` at, if it did.
    fn fixed_at(pre: &Presolved, j: usize) -> Option<f64> {
        pre.fixed.iter().find(|&&(k, _)| k == j).map(|&(_, v)| v)
    }

    #[test]
    fn rows_implied_by_their_bounds_are_dropped() {
        // max x + y, x, y ∈ [0, 2]: `x + y ≤ 4` (max activity exactly
        // 4) and `x − y ≥ −2` (min activity exactly −2) can never bind;
        // `x + y ≤ 3` can and stays, keeping both columns from rising.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 2.0);
        let y = m.var("y", 0.0, 2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_le(e, 4.0);
        let e = m.expr(&[(x, 1.0), (y, -1.0)]);
        m.add_ge(e, -2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_le(e, 3.0);
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        for pre in [presolve_lp(&m).unwrap(), presolve_mip(&m).unwrap()] {
            assert_eq!(pre.stats.rows_removed, 2);
            assert_eq!(pre.num_fixed(), 0);
            let r = pre.reduced();
            assert_eq!((r.num_vars(), r.num_constraints()), (2, 1));
            assert_eq!(r.constraints[0].rhs, 3.0, "the binding row survives");
            let red_sol = simplex::solve_lp(r, &[]).unwrap();
            assert!((pre.postsolve(&m, &red_sol).objective - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn a_row_just_short_of_implied_is_kept() {
        // Exact comparisons: max activity 4 against 4 − 2⁻⁴⁰ binds.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, 2.0);
        let y = m.var("y", 0.0, 2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_le(e, 4.0 - 2f64.powi(-40));
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        let pre = presolve_lp(&m).unwrap();
        assert_eq!(pre.stats.rows_removed, 0);
        assert_eq!(pre.reduced().num_constraints(), 1);
    }

    #[test]
    fn dominated_columns_are_fixed_at_their_cheap_bound() {
        // min x − v + u + 2t with x ∈ [1, 5], v ∈ [0, 4]: x sits only in
        // a `≤` row with a positive coefficient (falling frees room), v
        // only in a `≥` row with a positive one (rising adds activity).
        // u and t are held by an `=` row, so neither live row collapses.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 1.0, 5.0);
        let v = m.var("v", 0.0, 4.0);
        let u = m.var("u", 0.0, 3.0);
        let t = m.var("t", 0.0, 3.0);
        let e = m.expr(&[(x, 1.0), (u, 1.0)]);
        m.add_le(e, 6.0);
        let e = m.expr(&[(v, 1.0), (u, -1.0)]);
        m.add_ge(e, -2.0);
        let e = m.expr(&[(u, 1.0), (t, 1.0)]);
        m.add_eq(e, 2.0);
        let obj = m.expr(&[(x, 1.0), (v, -1.0), (u, 1.0), (t, 2.0)]);
        m.set_objective(obj);
        let pre = presolve_lp(&m).unwrap();
        assert_eq!(fixed_at(&pre, 0), Some(1.0), "x at its lower bound");
        assert_eq!(fixed_at(&pre, 1), Some(4.0), "v at its upper bound");
        assert_eq!(fixed_at(&pre, 2), None, "u is held by the `=` row");
        assert_eq!(fixed_at(&pre, 3), None, "t is held by the `=` row");
        let red_sol = simplex::solve_lp(pre.reduced(), &[]).unwrap();
        let full = pre.postsolve(&m, &red_sol);
        let direct = simplex::solve_lp(&m, &[]).unwrap();
        // Optimum: x = 1, v = 4, u = 2, t = 0 → 1 − 4 + 2 = −1.
        assert!((full.objective - direct.objective).abs() < 1e-9);
        assert!((full.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_fixing_mirrors_under_maximize() {
        // max x with x only in a `≥` row it can rise through: fixed at
        // its upper bound. Unbounded above, it cannot be fixed.
        for (ub, expect) in [(4.0, Some(4.0)), (f64::INFINITY, None)] {
            let mut m = Model::new(Sense::Maximize);
            let x = m.var("x", 0.0, ub);
            let y = m.var("y", 0.0, 3.0);
            let z = m.var("z", 0.0, 3.0);
            let e = m.expr(&[(x, 1.0), (y, 1.0)]);
            m.add_ge(e, 1.0);
            let e = m.expr(&[(y, 1.0), (z, 1.0)]);
            m.add_eq(e, 3.0);
            let obj = m.expr(&[(x, 1.0)]);
            m.set_objective(obj);
            let pre = presolve_lp(&m).unwrap();
            assert_eq!(fixed_at(&pre, 0), expect, "ub {ub}");
        }
    }

    #[test]
    fn one_blocking_row_keeps_a_column_live() {
        // min x: `x + y ≤ 4` lets x fall, but `x − y ≥ 1` does not.
        // y is held by an `=` row, so neither row collapses.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 5.0);
        let y = m.var("y", 0.0, 2.0);
        let w = m.var("w", 0.0, 2.0);
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_le(e, 4.0);
        let e = m.expr(&[(x, 1.0), (y, -1.0)]);
        m.add_ge(e, 1.0);
        let e = m.expr(&[(y, 1.0), (w, 1.0)]);
        m.add_eq(e, 2.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        let pre = presolve_lp(&m).unwrap();
        assert_eq!(pre.num_fixed(), 0);
        assert_eq!(pre.reduced().num_constraints(), 3);
        let red_sol = simplex::solve_lp(pre.reduced(), &[]).unwrap();
        // x ≥ 1 + y with y ≥ 0: x = 1.
        assert!((pre.postsolve(&m, &red_sol).objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_fixed_integers_land_on_the_grid() {
        // An integer column with off-grid bounds, free in both
        // directions: fixed at ⌈lb⌉ when it costs, ⌊ub⌋ when it pays.
        for (sense, expect) in [(Sense::Minimize, 1.0), (Sense::Maximize, 3.0)] {
            let mut m = Model::new(sense);
            let x = m.int_var("x", 0.4, 3.6);
            let obj = m.expr(&[(x, 1.0)]);
            m.set_objective(obj);
            let pre = presolve_mip(&m).unwrap();
            assert_eq!(fixed_at(&pre, 0), Some(expect), "{sense:?}");
            assert_eq!(pre.reduced().num_vars(), 0);
        }
    }

    #[test]
    fn reduction_is_deterministic() {
        let m = small();
        let a = presolve_lp(&m).unwrap();
        let b = presolve_lp(&m).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.keep, b.keep);
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(a.reduced(), b.reduced());
    }
}

#[cfg(all(test, feature = "check-invariants"))]
mod invariant_tests {
    //! With `check-invariants` live, these solves run the pivot-level
    //! algebraic self-checks against *presolved* models — the reduced
    //! tableaux the production kernel actually iterates on.

    use super::*;
    use crate::model::Sense;
    use crate::simplex;

    fn pinned_placement(caps: [f64; 2]) -> Model {
        let mut m = Model::new(Sense::Minimize);
        let sizes = [2.0, 3.0, 1.0, 4.0];
        let costs = [[1.0, 6.0], [5.0, 2.0], [3.0, 4.0], [7.0, 1.5]];
        let mut x = Vec::new();
        for a in 0..4 {
            let row: Vec<VarId> = (0..2).map(|s| m.bin_var(&format!("a{a}s{s}"))).collect();
            let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
            let e = m.expr(&terms);
            m.add_eq(e, 1.0);
            x.push(row);
        }
        // App 0 pinned home by a singleton equality: presolve real work.
        let e = m.expr(&[(x[0][0], 1.0)]);
        m.add_eq(e, 1.0);
        for s in 0..2 {
            let terms: Vec<(VarId, f64)> =
                x.iter().zip(&sizes).map(|(row, &c)| (row[s], c)).collect();
            let e = m.expr(&terms);
            m.add_le(e, caps[s]);
        }
        let mut obj = Vec::new();
        for (a, row) in x.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                obj.push((v, costs[a][s]));
            }
        }
        let e = m.expr(&obj);
        m.set_objective(e);
        m
    }

    #[test]
    fn invariants_hold_on_presolved_epoch_resolves() {
        for (k, caps) in [[6.0, 6.0], [5.0, 8.0], [8.0, 4.0], [7.0, 7.0]]
            .into_iter()
            .enumerate()
        {
            let m = pinned_placement(caps);
            let pre = presolve_mip(&m).expect("feasible epochs");
            assert!(pre.num_fixed() >= 1, "epoch {k}: the pin must fold");
            simplex::solve_lp_state(pre.reduced(), &[], None).expect("cold root");
        }
    }
}
