//! Regression test for near-singular pivots in the revised simplex.
//!
//! `data/near_singular_epoch.txt` is one planning epoch of the §3.1
//! placement MIP: class-count integers over a three-site fleet shard,
//! with per-(site, bucket) displacement rows and the load-balance row
//! whose coefficients span 1e-3 to 1e6. Its cold root used to accept a
//! ratio-test pivot of 6.5e-9 in a column whose largest entry was 1e6.
//! Two pivots later FTRAN produced entries near 4e13 and phase 1 left
//! artificials at −2.0 and −0.68. Under `--features check-invariants`
//! the objective-monotonicity assert caught it; without the checks the
//! root reported the feasible epoch infeasible, and the planner fell
//! back to greedy. The relative pivot tolerance in both ratio tests
//! rejects such pivots.
//!
//! The file holds one line per item, numbers in Rust's round-trip
//! `Debug` form: `min`/`max`, then `v LB UB INTEGER` per variable,
//! `r le|ge|eq RHS VAR:COEF…` per row, and `o CONSTANT VAR:COEF…` for
//! the objective.

use vb_solver::dense::solve_lp_reference;
use vb_solver::presolve::presolve_mip;
use vb_solver::revised;
use vb_solver::{
    solve_mip_kernel, Cmp, KernelConfig, LinExpr, Model, PresolveStats, Pricing, Sense, VarId,
};

const EPOCH: &str = include_str!("data/near_singular_epoch.txt");

fn num(s: &str) -> f64 {
    s.parse().expect("number")
}

fn expr(terms: &[&str], vars: &[VarId], constant: f64) -> LinExpr {
    let terms = terms
        .iter()
        .map(|t| {
            let (j, a) = t.split_once(':').expect("VAR:COEF");
            (vars[j.parse::<usize>().expect("var index")], num(a))
        })
        .collect();
    LinExpr { terms, constant }
}

/// The model, plus its rows as `(expr, cmp, rhs)` for feasibility checks.
fn load() -> (Model, Vec<(LinExpr, Cmp, f64)>) {
    let mut lines = EPOCH.lines();
    let sense = match lines.next() {
        Some("min") => Sense::Minimize,
        _ => Sense::Maximize,
    };
    let mut m = Model::new(sense);
    let mut vars = Vec::new();
    let mut rows = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[0] {
            "v" if f[3] == "1" => vars.push(m.int_var("x", num(f[1]), num(f[2]))),
            "v" => vars.push(m.var("y", num(f[1]), num(f[2]))),
            "r" => {
                let cmp = match f[1] {
                    "le" => Cmp::Le,
                    "ge" => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                let e = expr(&f[3..], &vars, 0.0);
                rows.push((e.clone(), cmp, num(f[2])));
                m.add_constraint(e, cmp, num(f[2]));
            }
            _ => {
                let e = expr(&f[2..], &vars, num(f[1]));
                m.set_objective(e);
            }
        }
    }
    (m, rows)
}

#[test]
fn captured_epoch_solves_with_feasible_integral_plan() {
    let (m, rows) = load();
    assert_eq!((m.num_vars(), m.num_constraints()), (172, 113));
    let sol =
        solve_mip_kernel(&m, 400, &KernelConfig::production()).expect("the epoch is feasible");
    let x = sol.values();
    for (k, (e, cmp, rhs)) in rows.iter().enumerate() {
        let lhs = e.eval(x);
        let slack = 1e-6 * (1.0 + rhs.abs());
        let ok = match cmp {
            Cmp::Le => lhs <= rhs + slack,
            Cmp::Ge => lhs >= rhs - slack,
            Cmp::Eq => (lhs - rhs).abs() <= slack,
        };
        assert!(ok, "row {k}: {lhs} {cmp:?} {rhs}");
    }
    // No plan beats the LP relaxation, solved by the dense oracle.
    let lp = solve_lp_reference(&m, &[]).expect("relaxation solves");
    assert!(
        sol.objective >= lp.objective - 1e-6 * lp.objective.abs().max(1.0),
        "plan {} below the relaxation {}",
        sol.objective,
        lp.objective
    );
}

#[test]
fn cold_root_of_the_presolved_epoch_matches_the_dense_oracle() {
    // The production kernel's cold root runs on the presolved model:
    // exactly the solve that pivoted on the near-zero entry.
    let (m, _) = load();
    let pre = presolve_mip(&m).expect("presolve succeeds");
    let reduced = pre.reduced();
    let (root, _) = revised::solve_lp_state(reduced, &[], None, Pricing::SteepestEdge)
        .expect("cold root solves");
    let oracle = solve_lp_reference(reduced, &[]).expect("oracle solves");
    let tol = 1e-6 * oracle.objective.abs().max(1.0);
    assert!(
        (root.objective - oracle.objective).abs() <= tol,
        "root {} vs oracle {}",
        root.objective,
        oracle.objective
    );
}

#[test]
fn presolve_shrinks_the_epoch_to_a_pinned_size() {
    // 172 columns × 113 rows before presolve. Most displacement rows
    // are implied by the count bounds, which leaves their displacement
    // columns dominated at 0.
    let (m, _) = load();
    let pre = presolve_mip(&m).expect("presolve succeeds");
    let reduced = pre.reduced();
    assert_eq!((reduced.num_vars(), reduced.num_constraints()), (111, 52));
    assert_eq!(
        pre.stats,
        PresolveStats {
            vars_fixed: 61,
            rows_removed: 61,
            bounds_tightened: 0
        }
    );
    // The reduced relaxation keeps the original's optimum...
    let (root, _) = revised::solve_lp_state(reduced, &[], None, Pricing::SteepestEdge)
        .expect("cold root solves");
    let lp = solve_lp_reference(&m, &[]).expect("relaxation solves");
    assert!(
        (root.objective - lp.objective).abs() <= 1e-9 * lp.objective.abs(),
        "reduced root {} vs original relaxation {}",
        root.objective,
        lp.objective
    );
    // ...and the 400-node search stops on the same plan with or
    // without presolve.
    let with = solve_mip_kernel(&m, 400, &KernelConfig::production()).expect("plan");
    let without = KernelConfig {
        presolve: false,
        ..KernelConfig::production()
    };
    let without = solve_mip_kernel(&m, 400, &without).expect("plan");
    assert_eq!(with.objective.to_bits(), without.objective.to_bits());
    assert_eq!(with.objective, 3100.7104039919705);
    assert!(with.budget_gap().is_some(), "the budget stops this search");
}
