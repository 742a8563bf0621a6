//! Property tests: the branch & bound solver must agree with brute-force
//! enumeration on randomly generated small integer programs — through
//! both the baseline kernel and the production kernel (presolve,
//! factorized revised simplex, parallel search) — and the LP relaxation
//! must always bound the MIP optimum. Presolve's reductions, implied
//! rows and dual fixing included, must not move a finished search's
//! optimum.

use proptest::prelude::*;
use vb_solver::{solve_mip_kernel, KernelConfig, Model, Sense, Solution, SolveError, VarId};

/// A randomly generated bounded integer program:
/// max/min c·x  s.t.  A x ≤ b,  x ∈ {0..3}^n.
#[derive(Debug, Clone)]
struct RandomIp {
    maximize: bool,
    c: Vec<i32>,
    a: Vec<Vec<i32>>,
    b: Vec<i32>,
}

fn random_ip(n_vars: usize, n_cons: usize) -> impl Strategy<Value = RandomIp> {
    (
        any::<bool>(),
        proptest::collection::vec(-5..=5i32, n_vars),
        proptest::collection::vec(proptest::collection::vec(-3..=4i32, n_vars), n_cons),
        proptest::collection::vec(0..=12i32, n_cons),
    )
        .prop_map(|(maximize, c, a, b)| RandomIp { maximize, c, a, b })
}

/// Exhaustive optimum over x ∈ {0..3}^n (n ≤ 4 keeps this ≤ 256 points).
fn brute_force(ip: &RandomIp) -> Option<(f64, Vec<i32>)> {
    let n = ip.c.len();
    let mut best: Option<(f64, Vec<i32>)> = None;
    let mut x = vec![0i32; n];
    loop {
        let feasible =
            ip.a.iter()
                .zip(&ip.b)
                .all(|(row, &b)| row.iter().zip(&x).map(|(&a, &v)| a * v).sum::<i32>() <= b);
        if feasible {
            let obj: i32 = ip.c.iter().zip(&x).map(|(&c, &v)| c * v).sum();
            let obj = obj as f64;
            let better = match &best {
                None => true,
                Some((bo, _)) => {
                    if ip.maximize {
                        obj > *bo
                    } else {
                        obj < *bo
                    }
                }
            };
            if better {
                best = Some((obj, x.clone()));
            }
        }
        // Odometer increment over {0..3}^n.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            x[i] += 1;
            if x[i] <= 3 {
                break;
            }
            x[i] = 0;
            i += 1;
        }
    }
}

fn build_model(ip: &RandomIp) -> (Model, Vec<VarId>) {
    build_mixed_model(ip, &vec![false; ip.a.len()])
}

/// [`build_model`] with every row whose `flip` is set written as
/// `−a·x ≥ −b`: the same feasible set, so brute force still applies,
/// but presolve sees `≥` rows and the mirrored column locks.
fn build_mixed_model(ip: &RandomIp, flip: &[bool]) -> (Model, Vec<VarId>) {
    let sense = if ip.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<VarId> = (0..ip.c.len())
        .map(|i| m.int_var(&format!("x{i}"), 0.0, 3.0))
        .collect();
    for ((row, &b), &flip) in ip.a.iter().zip(&ip.b).zip(flip) {
        let sign = if flip { -1.0 } else { 1.0 };
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .zip(row)
            .map(|(&v, &a)| (v, sign * a as f64))
            .collect();
        let e = m.expr(&terms);
        if flip {
            m.add_ge(e, -(b as f64));
        } else {
            m.add_le(e, b as f64);
        }
    }
    let obj_terms: Vec<(VarId, f64)> = vars
        .iter()
        .zip(&ip.c)
        .map(|(&v, &c)| (v, c as f64))
        .collect();
    let e = m.expr(&obj_terms);
    m.set_objective(e);
    (m, vars)
}

/// A finished search: an answer that no node budget cut short.
fn finished(sol: &Result<Solution, SolveError>) -> bool {
    match sol {
        Ok(s) => s.budget_gap().is_none(),
        Err(e) => !matches!(e, SolveError::IterationLimit),
    }
}

/// The solver's answer must match brute-force enumeration: the same
/// optimum (or infeasibility), achieved by a feasible assignment.
fn check_against_brute_force(ip: &RandomIp, vars: &[VarId], sol: Result<Solution, SolveError>) {
    match (sol, brute_force(ip)) {
        (Ok(sol), Some((obj, _))) => {
            prop_assert!(
                (sol.objective - obj).abs() < 1e-6,
                "solver {} vs brute force {obj}",
                sol.objective
            );
            // The reported assignment must itself be feasible and
            // achieve the reported objective.
            let xs: Vec<i32> = vars.iter().map(|&v| sol.int_value(v) as i32).collect();
            for (row, &b) in ip.a.iter().zip(&ip.b) {
                let lhs: i32 = row.iter().zip(&xs).map(|(&a, &v)| a * v).sum();
                prop_assert!(lhs <= b, "constraint violated: {lhs} > {b}");
            }
            let got: i32 = ip.c.iter().zip(&xs).map(|(&c, &v)| c * v).sum();
            prop_assert!((got as f64 - sol.objective).abs() < 1e-6);
        }
        (Err(e), None) => {
            // x = 0 is always feasible when all b >= 0, so this can't
            // happen with our generator; still, accept agreement.
            prop_assert!(
                matches!(e, SolveError::Infeasible),
                "unexpected error {e:?}"
            );
        }
        (Ok(sol), None) => prop_assert!(false, "solver found {sol:?}, brute force infeasible"),
        (Err(e), Some(_)) => prop_assert!(false, "solver failed {e:?} on feasible instance"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn branch_and_bound_matches_brute_force(ip in random_ip(3, 3)) {
        let (m, vars) = build_model(&ip);
        check_against_brute_force(&ip, &vars, m.solve());
    }

    #[test]
    fn production_kernel_matches_brute_force(ip in random_ip(3, 3)) {
        // General integers in [0, 3], not just binaries, through the
        // kernel the scheduler runs.
        let (m, vars) = build_model(&ip);
        let sol = solve_mip_kernel(&m, 200_000, &KernelConfig::production());
        if let Ok(s) = &sol {
            prop_assert_eq!(s.budget_gap(), None, "an exhaustive search never stops");
        }
        check_against_brute_force(&ip, &vars, sol);
    }

    #[test]
    fn presolve_keeps_a_finished_search_optimal(
        ip in random_ip(4, 3),
        flip in proptest::collection::vec(any::<bool>(), 3),
        budget in 1usize..48,
    ) {
        // The production kernel with and without presolve, under a
        // budget small enough that some searches stop: whenever neither
        // does, both reach the brute-force optimum.
        let (m, vars) = build_mixed_model(&ip, &flip);
        let on = solve_mip_kernel(&m, budget, &KernelConfig::production());
        let off = KernelConfig { presolve: false, ..KernelConfig::production() };
        let off = solve_mip_kernel(&m, budget, &off);
        if finished(&on) && finished(&off) {
            if let (Ok(a), Ok(b)) = (&on, &off) {
                prop_assert!(
                    (a.objective - b.objective).abs() < 1e-6,
                    "presolve {} vs none {}",
                    a.objective,
                    b.objective
                );
            }
            check_against_brute_force(&ip, &vars, on);
            check_against_brute_force(&ip, &vars, off);
        }
    }

    #[test]
    fn lp_relaxation_bounds_the_mip(ip in random_ip(4, 2)) {
        let (m, _) = build_model(&ip);
        if let (Ok(mip), Ok(lp)) = (m.solve(), m.solve_relaxation(&[])) {
            if ip.maximize {
                prop_assert!(lp.objective >= mip.objective - 1e-6,
                    "LP {} should upper-bound MIP {}", lp.objective, mip.objective);
            } else {
                prop_assert!(lp.objective <= mip.objective + 1e-6,
                    "LP {} should lower-bound MIP {}", lp.objective, mip.objective);
            }
        }
    }

    #[test]
    fn solutions_respect_bounds(ip in random_ip(4, 3)) {
        let (m, vars) = build_model(&ip);
        if let Ok(sol) = m.solve() {
            for &v in &vars {
                let x = sol.value(v);
                prop_assert!((-1e-6..=3.0 + 1e-6).contains(&x), "out of bounds: {x}");
                prop_assert!((x - x.round()).abs() < 1e-6, "not integral: {x}");
            }
        }
    }
}
