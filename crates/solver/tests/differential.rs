//! Differential tests: the revised simplex ([`vb_solver::revised`], the
//! engine behind every solve) against the original row-expansion
//! two-phase simplex kept in [`vb_solver::dense`] as an oracle.
//!
//! Three layers of agreement:
//!
//! 1. random bounded LPs — both engines agree on feasibility status and
//!    objective value within tolerance;
//! 2. warm-started LPs — re-solving under branch-style bound overrides
//!    from a parent basis matches the oracle cold solve;
//! 3. Table-1-shaped placement MIPs — branch & bound (revised-simplex
//!    LPs + warm starts) matches a reference branch & bound driven
//!    entirely by the row-expansion oracle.

use rand::{Rng, SeedableRng};
use vb_solver::branch::solve_mip_bounded_with;
use vb_solver::dense::solve_lp_reference;
use vb_solver::revised::solve_lp_state;
use vb_solver::{Model, Sense, Solution, SolveError, VarId};

const TOL: f64 = 1e-6;

/// The revised simplex's LP solve, without its state.
fn solve_lp(m: &Model, overrides: &[(VarId, f64, f64)]) -> Result<Solution, SolveError> {
    solve_lp_state(m, overrides, None).map(|(sol, _)| sol)
}

/// A random bounded LP plus the metadata an integration test cannot read
/// back out of the (deliberately opaque) `Model`: the variable handles
/// and their boxes.
struct RandomLp {
    model: Model,
    vars: Vec<VarId>,
    bounds: Vec<(f64, f64)>,
}

/// A random bounded LP: every variable in a finite box, constraints of
/// mixed senses, coefficients and bounds small enough that both engines
/// stay well-conditioned.
fn random_bounded_lp(rng: &mut rand::rngs::StdRng, n: usize, m_rows: usize) -> RandomLp {
    let maximize = rng.gen::<bool>();
    let mut model = Model::new(if maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let mut bounds = Vec::with_capacity(n);
    let vars: Vec<VarId> = (0..n)
        .map(|i| {
            let lb = rng.gen_range(-3.0..1.0f64).round();
            let ub = lb + rng.gen_range(0.0..5.0f64).round();
            bounds.push((lb, ub));
            model.var(&format!("x{i}"), lb, ub)
        })
        .collect();
    for _ in 0..m_rows {
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .filter_map(|&v| {
                let c = rng.gen_range(-3i32..=3) as f64;
                (c != 0.0).then_some((v, c))
            })
            .collect();
        if terms.is_empty() {
            continue;
        }
        let e = model.expr(&terms);
        let rhs = rng.gen_range(-6i32..=10) as f64;
        match rng.gen_range(0..3u32) {
            0 => model.add_le(e, rhs),
            1 => model.add_ge(e, rhs),
            // Equalities on random data are usually infeasible; keep
            // the third arm a loose `<=` so feasible cases stay common.
            _ => model.add_le(e, rhs.abs() + 4.0),
        }
    }
    let obj_terms: Vec<(VarId, f64)> = vars
        .iter()
        .map(|&v| (v, rng.gen_range(-5i32..=5) as f64))
        .collect();
    let e = model.expr(&obj_terms);
    model.set_objective(e);
    RandomLp {
        model,
        vars,
        bounds,
    }
}

fn assert_agree(new: &Result<Solution, SolveError>, old: &Result<Solution, SolveError>, tag: &str) {
    match (new, old) {
        (Ok(a), Ok(b)) => assert!(
            (a.objective - b.objective).abs() < TOL,
            "{tag}: objectives diverge: revised {} vs row-expansion {}",
            a.objective,
            b.objective
        ),
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
        (a, b) => panic!("{tag}: status diverges: revised {a:?} vs row-expansion {b:?}"),
    }
}

#[test]
fn random_bounded_lps_agree_with_the_reference_path() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1FF);
    for case in 0..200 {
        let n = 2 + (case % 7);
        let m_rows = 1 + (case % 5);
        let lp = random_bounded_lp(&mut rng, n, m_rows);
        let new = solve_lp(&lp.model, &[]);
        let old = solve_lp_reference(&lp.model, &[]);
        assert_agree(
            &new,
            &old,
            &format!("case {case} ({n} vars, {m_rows} rows)"),
        );
    }
}

#[test]
fn warm_started_resolves_agree_with_the_reference_path() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    let mut warm_cases = 0;
    for case in 0..100 {
        let n = 3 + (case % 5);
        let lp = random_bounded_lp(&mut rng, n, 2 + (case % 4));
        let Ok((_, state)) = solve_lp_state(&lp.model, &[], None) else {
            continue; // infeasible/unbounded root: nothing to warm-start
        };
        // Branch-style tightenings of one variable at a time.
        for _ in 0..3 {
            let k = rng.gen_range(0..n);
            let v = lp.vars[k];
            let (lb, ub) = lp.bounds[k];
            let cut = (lb + (ub - lb) * 0.5).floor();
            let overrides = if rng.gen::<bool>() {
                vec![(v, lb, cut.max(lb))]
            } else {
                vec![(v, cut.max(lb), ub)]
            };
            let warm = solve_lp_state(&lp.model, &overrides, Some(&state)).map(|(s, _)| s);
            let old = solve_lp_reference(&lp.model, &overrides);
            assert_agree(&warm, &old, &format!("case {case} overrides {overrides:?}"));
            warm_cases += 1;
        }
    }
    assert!(
        warm_cases > 100,
        "too few warm cases exercised: {warm_cases}"
    );
}

/// Reference branch & bound: most-fractional branching over the
/// row-expansion oracle, exhaustive (no node budget; prunes only on the
/// usual bound test). `int_vars` carries the integer variables and
/// their original boxes, since the test cannot read them off the model.
fn reference_mip(
    model: &Model,
    maximize: bool,
    int_vars: &[(VarId, f64, f64)],
) -> Result<f64, SolveError> {
    let better = |a: f64, b: f64| {
        if maximize {
            a > b + 1e-9
        } else {
            a < b - 1e-9
        }
    };
    let mut stack: Vec<Vec<(VarId, f64, f64)>> = vec![Vec::new()];
    let mut incumbent: Option<f64> = None;
    while let Some(overrides) = stack.pop() {
        let relaxed = match solve_lp_reference(model, &overrides) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        if let Some(inc) = incumbent {
            if !better(relaxed.objective, inc) {
                continue;
            }
        }
        let frac = int_vars.iter().find_map(|&(v, vl, vu)| {
            let x = relaxed.value(v);
            ((x - x.round()).abs() > 1e-6).then_some((v, x, vl, vu))
        });
        match frac {
            None => incumbent = Some(relaxed.objective),
            Some((v, x, vl, vu)) => {
                let (lb, ub) = overrides
                    .iter()
                    .find(|&&(w, _, _)| w == v)
                    .map(|&(_, l, u)| (l, u))
                    .unwrap_or((vl, vu));
                for (nl, nu) in [(lb, x.floor()), (x.floor() + 1.0, ub)] {
                    if nl > nu + 1e-9 {
                        continue;
                    }
                    let mut child = overrides.clone();
                    child.retain(|&(w, _, _)| w != v);
                    child.push((v, nl, nu));
                    stack.push(child);
                }
            }
        }
    }
    incumbent.ok_or(SolveError::Infeasible)
}

/// A Table-1-shaped placement MIP: one binary per (app, site), each app
/// on exactly one site, per-site/bucket displacement variables with
/// `d ≥ load − capacity` rows and a displacement-minimising objective —
/// the same structure `vb-sched`'s MipPolicy emits. Returns the model
/// plus its binary variables (all boxed `[0, 1]`).
fn placement_mip(
    rng: &mut rand::rngs::StdRng,
    apps: usize,
    sites: usize,
    buckets: usize,
) -> (Model, Vec<VarId>) {
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<VarId>> = (0..apps)
        .map(|a| {
            (0..sites)
                .map(|s| m.bin_var(&format!("a{a}s{s}")))
                .collect()
        })
        .collect();
    for row in &x {
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.add_eq(e, 1.0);
    }
    let cores: Vec<f64> = (0..apps)
        .map(|_| rng.gen_range(1..=4) as f64 * 20.0)
        .collect();
    let total: f64 = cores.iter().sum();
    let mut objective = Vec::new();
    for s in 0..sites {
        for b in 0..buckets {
            let d = m.var(&format!("d{s}b{b}"), 0.0, f64::INFINITY);
            // Site capacity varies per bucket; some site-buckets dip.
            let frac = if rng.gen_range(0..4u32) == 0 {
                0.2
            } else {
                0.9
            };
            let capacity = total / sites as f64 * frac;
            let mut lhs = vec![(d, 1.0)];
            for (a, xr) in x.iter().enumerate() {
                lhs.push((xr[s], -cores[a]));
            }
            let e = m.expr(&lhs);
            m.add_ge(e, -capacity);
            objective.push((d, 4.0));
        }
    }
    // Mild per-placement preference costs, so placements are not all tied.
    for row in &x {
        for &v in row {
            objective.push((v, rng.gen_range(0..6) as f64));
        }
    }
    let e = m.expr(&objective);
    m.set_objective(e);
    (m, x.into_iter().flatten().collect())
}

#[test]
fn table1_shaped_mips_agree_with_the_reference_branch_and_bound() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E);
    for case in 0..12 {
        let apps = 3 + case % 3;
        let sites = 2 + case % 2;
        let (model, binaries) = placement_mip(&mut rng, apps, sites, 3);
        let int_vars: Vec<(VarId, f64, f64)> = binaries.iter().map(|&v| (v, 0.0, 1.0)).collect();
        let reference =
            reference_mip(&model, false, &int_vars).expect("placement MIPs are feasible");
        for warm in [false, true] {
            let got = solve_mip_bounded_with(&model, 200_000, warm)
                .expect("production solve must succeed");
            assert!(
                (got.objective - reference).abs() < TOL,
                "case {case} warm={warm}: production {} vs reference {}",
                got.objective,
                reference
            );
        }
    }
}
