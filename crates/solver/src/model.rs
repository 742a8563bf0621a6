//! Optimization model builder.
//!
//! A thin, explicit modelling layer: create variables (continuous or
//! integer, with bounds), build [`LinExpr`] linear expressions over them,
//! add `≤ / ≥ / =` constraints, set an objective, and call
//! [`Model::solve`]. Solving runs the revised simplex
//! ([`crate::revised`]) when no integer variable exists and branch &
//! bound over it ([`crate::branch`]) otherwise.

use crate::branch;
use crate::revised;

/// Coefficients at or below this magnitude are dropped during
/// canonicalization — they are numerical noise and would only bloat the
/// sparse rows.
const COEF_EPS: f64 = 1e-12;

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Less-than-or-equal constraint.
    Le,
    /// Greater-than-or-equal constraint.
    Ge,
    /// Equality constraint.
    Eq,
}

/// A linear expression `Σ coef·var + constant`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms; duplicates are summed.
    pub terms: Vec<(VarId, f64)>,
    /// Additive constant.
    pub constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A single term `coef·var`.
    pub fn term(var: VarId, coef: f64) -> LinExpr {
        LinExpr {
            terms: vec![(var, coef)],
            constant: 0.0,
        }
    }

    /// Add `coef·var` in place (builder style).
    pub fn add_term(mut self, var: VarId, coef: f64) -> LinExpr {
        self.terms.push((var, coef));
        self
    }

    /// Add a constant in place (builder style).
    pub fn add_const(mut self, c: f64) -> LinExpr {
        self.constant += c;
        self
    }

    /// Sum with another expression.
    pub fn plus(mut self, other: &LinExpr) -> LinExpr {
        self.terms.extend_from_slice(&other.terms);
        self.constant += other.constant;
        self
    }

    /// Evaluate against an assignment indexed by variable id.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.0])
                .sum::<f64>()
    }

    /// Canonicalize in place: sort terms by variable id, sum duplicate
    /// `(var, coef)` entries, and drop ~zero coefficients. `add_term` /
    /// `plus` just push, so expressions built incrementally may carry
    /// duplicates until the model canonicalizes them at row/objective
    /// construction time.
    pub fn canonicalize(&mut self) {
        self.terms.sort_by_key(|&(v, _)| v.0);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some(&mut (lv, ref mut lc)) if lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c.abs() > COEF_EPS);
        self.terms = out;
    }
}

/// A model variable's metadata.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Variable {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub integer: bool,
}

/// A linear constraint `expr cmp rhs`, stored sparsely: `coefs` holds
/// only nonzero `(var, coef)` entries, sorted by variable id with
/// duplicates already summed (the canonical form produced by
/// [`LinExpr::canonicalize`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Constraint {
    pub coefs: Vec<(VarId, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The simplex iteration limit was exceeded (numerical trouble).
    IterationLimit,
    /// The model is malformed (e.g. lb > ub).
    BadModel(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            SolveError::BadModel(why) => write!(f, "bad model: {why}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Value per variable, indexed by [`VarId`].
    values: Vec<f64>,
    /// Relative gap of a branch & bound search that stopped at its node
    /// budget (see [`Solution::budget_gap`]).
    pub(crate) budget_gap: Option<f64>,
}

impl Solution {
    pub(crate) fn new(objective: f64, values: Vec<f64>) -> Solution {
        Solution {
            objective,
            values,
            budget_gap: None,
        }
    }

    /// `Some(gap)` when branch & bound ran out of nodes while an open
    /// node's bound still beat the returned incumbent — a *budget stop*
    /// — with `gap = |incumbent − best open bound| / max(1, |incumbent|)`.
    /// `None` for a search that finished (the incumbent is optimal) and
    /// for pure LP solves.
    pub fn budget_gap(&self) -> Option<f64> {
        self.budget_gap
    }

    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// Value of a variable rounded to the nearest integer (for integer
    /// variables, which branch & bound returns within tolerance).
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.0].round() as i64
    }

    /// All variable values, indexed by [`VarId`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// An optimization model under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Vec<(VarId, f64)>,
    pub(crate) objective_const: f64,
}

impl Model {
    /// An empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Model {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
            objective_const: 0.0,
        }
    }

    /// Add a continuous variable with bounds `[lb, ub]` (`ub` may be
    /// `f64::INFINITY`).
    pub fn var(&mut self, name: &str, lb: f64, ub: f64) -> VarId {
        self.push_var(name, lb, ub, false)
    }

    /// Add an integer variable with bounds `[lb, ub]`.
    pub fn int_var(&mut self, name: &str, lb: f64, ub: f64) -> VarId {
        self.push_var(name, lb, ub, true)
    }

    /// Add a binary (0/1) variable.
    pub fn bin_var(&mut self, name: &str) -> VarId {
        self.push_var(name, 0.0, 1.0, true)
    }

    fn push_var(&mut self, name: &str, lb: f64, ub: f64, integer: bool) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.to_string(),
            lb,
            ub,
            integer,
        });
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Build an expression from `(var, coef)` pairs.
    pub fn expr(&self, terms: &[(VarId, f64)]) -> LinExpr {
        LinExpr {
            terms: terms.to_vec(),
            constant: 0.0,
        }
    }

    /// Add `expr ≤ rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, Cmp::Le, rhs);
    }

    /// Add `expr ≥ rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, Cmp::Ge, rhs);
    }

    /// Add `expr = rhs`.
    pub fn add_eq(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, Cmp::Eq, rhs);
    }

    /// Add a constraint with an explicit comparison operator. The
    /// expression is canonicalized (duplicates summed, ~zero terms
    /// dropped) and its constant is folded into the right-hand side.
    pub fn add_constraint(&mut self, mut expr: LinExpr, cmp: Cmp, rhs: f64) {
        expr.canonicalize();
        self.constraints.push(Constraint {
            coefs: expr.terms,
            cmp,
            rhs: rhs - expr.constant,
        });
    }

    /// Set the objective expression (canonicalized like constraints).
    pub fn set_objective(&mut self, mut expr: LinExpr) {
        expr.canonicalize();
        self.objective = expr.terms;
        self.objective_const = expr.constant;
    }

    /// Solve the model: pure simplex when every variable is continuous,
    /// branch & bound otherwise.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.validate()?;
        if self.vars.iter().any(|v| v.integer) {
            branch::solve_mip(self)
        } else {
            revised::solve_lp_state(self, &[], None).map(|(sol, _)| sol)
        }
    }

    /// Solve the LP relaxation (integrality dropped), optionally with
    /// extra per-variable bound overrides `(var, lb, ub)`.
    pub fn solve_relaxation(
        &self,
        bound_overrides: &[(VarId, f64, f64)],
    ) -> Result<Solution, SolveError> {
        self.validate()?;
        revised::solve_lp_state(self, bound_overrides, None).map(|(sol, _)| sol)
    }

    pub(crate) fn validate(&self) -> Result<(), SolveError> {
        for v in &self.vars {
            if v.lb > v.ub {
                return Err(SolveError::BadModel(format!(
                    "variable {} has lb {} > ub {}",
                    v.name, v.lb, v.ub
                )));
            }
            if !v.lb.is_finite() {
                return Err(SolveError::BadModel(format!(
                    "variable {} must have a finite lower bound",
                    v.name
                )));
            }
            if v.integer && !v.ub.is_finite() {
                return Err(SolveError::BadModel(format!(
                    "integer variable {} must have a finite upper bound",
                    v.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_includes_constant_and_duplicates() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 10.0);
        let e = LinExpr::term(x, 2.0).add_term(x, 3.0).add_const(1.0);
        assert_eq!(e.eval(&[2.0]), 11.0);
    }

    #[test]
    fn canonicalize_sums_duplicates_and_drops_zeros() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 10.0);
        let y = m.var("y", 0.0, 10.0);
        let z = m.var("z", 0.0, 10.0);
        // Out of order, duplicated, with terms that cancel exactly.
        let mut e = LinExpr::term(z, 4.0)
            .add_term(x, 2.0)
            .add_term(y, -1.5)
            .add_term(x, 3.0)
            .add_term(y, 1.5)
            .add_term(z, 1e-13);
        e.canonicalize();
        assert_eq!(e.terms, vec![(x, 5.0), (z, 4.0 + 1e-13)]);

        // Row construction canonicalizes too: the stored constraint has
        // one summed entry per variable, sorted, zeros gone.
        let row = LinExpr::term(y, 1.0)
            .add_term(x, 2.0)
            .add_term(y, -1.0)
            .add_term(x, 1.0);
        m.add_le(row, 7.0);
        assert_eq!(m.constraints[0].coefs, vec![(x, 3.0)]);
    }

    #[test]
    fn expr_plus_merges() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 1.0);
        let y = m.var("y", 0.0, 1.0);
        let e = LinExpr::term(x, 1.0).plus(&LinExpr::term(y, 2.0).add_const(3.0));
        assert_eq!(e.eval(&[1.0, 1.0]), 6.0);
    }

    #[test]
    fn constraint_folds_expression_constant() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x", 0.0, 10.0);
        // x + 5 <= 7   ≡   x <= 2
        m.add_le(LinExpr::term(x, 1.0).add_const(5.0), 7.0);
        assert_eq!(m.constraints[0].rhs, 2.0);
    }

    #[test]
    fn validate_rejects_inverted_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.var("x", 3.0, 1.0);
        assert!(matches!(m.solve(), Err(SolveError::BadModel(_))));
    }

    #[test]
    fn validate_rejects_unbounded_integer() {
        let mut m = Model::new(Sense::Minimize);
        m.int_var("x", 0.0, f64::INFINITY);
        assert!(matches!(m.solve(), Err(SolveError::BadModel(_))));
    }

    #[test]
    fn errors_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
        assert!(SolveError::BadModel("x".into()).to_string().contains('x'));
    }
}
