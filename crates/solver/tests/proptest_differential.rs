//! Property-based differential tests against the row-expansion oracle
//! ([`vb_solver::dense::solve_lp_reference`]):
//!
//! 1. random *sparse* bounded LPs — the CSR production simplex and the
//!    dense oracle agree on status and objective, including expressions
//!    with duplicate terms (the canonicalization path);
//! 2. Table-1-shaped placement MIP relaxations, at the root and under
//!    branch-style bound overrides warm-started from the root basis;
//! 3. presolve round-trips — presolve → solve the reduced model →
//!    postsolve must agree with a direct solve of the original, on both
//!    random sparse LPs and placement relaxations with branch-style
//!    singleton fixings (the rows presolve eliminates outright).

use proptest::prelude::*;
use vb_solver::dense::solve_lp_reference;
use vb_solver::presolve::presolve_lp;
use vb_solver::simplex::{solve_lp, solve_lp_state};
use vb_solver::{Model, Sense, Solution, SolveError, VarId};

const TOL: f64 = 1e-6;

/// Declarative spec of a random sparse bounded LP. Per row entry:
/// `(keep, coef)` — the term is present iff `keep < 4` and `coef != 0`
/// (≈ 1/3 density), and `keep < 2` splits it into two half-coefficient
/// duplicates so expression canonicalization is on the differential
/// path too.
/// `(entries, cmp selector, rhs)` for one constraint row.
type RowSpec = (Vec<(u32, i32)>, u32, i32);

#[derive(Debug, Clone)]
struct SparseLp {
    maximize: bool,
    /// `(lb, width)` per variable; the box is `[lb, lb + width]`.
    bounds: Vec<(i32, i32)>,
    rows: Vec<RowSpec>,
    obj: Vec<i32>,
}

fn sparse_lp(n: usize, m_rows: usize) -> impl Strategy<Value = SparseLp> {
    (
        any::<bool>(),
        proptest::collection::vec((-3..=0i32, 0..=4i32), n),
        proptest::collection::vec(
            (
                proptest::collection::vec((0..10u32, -3..=3i32), n),
                0..3u32,
                -6..=10i32,
            ),
            m_rows,
        ),
        proptest::collection::vec(-5..=5i32, n),
    )
        .prop_map(|(maximize, bounds, rows, obj)| SparseLp {
            maximize,
            bounds,
            rows,
            obj,
        })
}

/// Materialize the spec.
fn build(lp: &SparseLp) -> Model {
    let sense = if lp.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<VarId> = lp
        .bounds
        .iter()
        .enumerate()
        .map(|(j, &(lb, w))| m.var(&format!("x{j}"), lb as f64, (lb + w) as f64))
        .collect();
    for (entries, cmp, rhs) in &lp.rows {
        let mut terms = Vec::new();
        for (j, &(keep, c)) in entries.iter().enumerate() {
            if keep >= 4 || c == 0 {
                continue;
            }
            if keep < 2 {
                terms.push((vars[j], c as f64 * 0.5));
                terms.push((vars[j], c as f64 * 0.5));
            } else {
                terms.push((vars[j], c as f64));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let e = m.expr(&terms);
        let rhs = *rhs as f64;
        match cmp {
            0 => m.add_le(e, rhs),
            1 => m.add_ge(e, rhs),
            // Loose third arm keeps feasible instances common.
            _ => m.add_le(e, rhs.abs() + 4.0),
        }
    }
    let obj: Vec<(VarId, f64)> = vars
        .iter()
        .zip(&lp.obj)
        .map(|(&v, &c)| (v, c as f64))
        .collect();
    let e = m.expr(&obj);
    m.set_objective(e);
    m
}

fn assert_agree(new: &Result<Solution, SolveError>, oracle: &Result<Solution, SolveError>) {
    match (new, oracle) {
        (Ok(a), Ok(b)) => assert!(
            (a.objective - b.objective).abs() < TOL,
            "objectives diverge: sparse {} vs oracle {}",
            a.objective,
            b.objective
        ),
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
        (a, b) => panic!("status diverges: sparse {a:?} vs oracle {b:?}"),
    }
}

/// A Table-1-shaped placement model: `apps × sites` binaries with
/// one-site-per-app rows, per-(site, bucket) displacement variables,
/// displacement + per-placement costs.
#[derive(Debug, Clone)]
struct PlacementSpec {
    /// Core demand selector per app (scaled ×20).
    cores: Vec<u32>,
    /// Tight/loose capacity selector per (site, bucket).
    frac: Vec<u32>,
    /// Per-placement cost selector, row-major apps × sites.
    costs: Vec<u32>,
}

const SITES: usize = 3;
const BUCKETS: usize = 2;

fn placement_spec(apps: usize) -> impl Strategy<Value = PlacementSpec> {
    (
        proptest::collection::vec(1..=4u32, apps),
        proptest::collection::vec(0..4u32, SITES * BUCKETS),
        proptest::collection::vec(0..6u32, apps * SITES),
    )
        .prop_map(|(cores, frac, costs)| PlacementSpec { cores, frac, costs })
}

fn build_placement(spec: &PlacementSpec) -> (Model, Vec<VarId>) {
    let apps = spec.cores.len();
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<VarId>> = (0..apps)
        .map(|a| {
            (0..SITES)
                .map(|s| m.bin_var(&format!("a{a}s{s}")))
                .collect()
        })
        .collect();
    for row in &x {
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.add_eq(e, 1.0);
    }
    let cores: Vec<f64> = spec.cores.iter().map(|&c| c as f64 * 20.0).collect();
    let total: f64 = cores.iter().sum();
    let mut objective = Vec::new();
    for s in 0..SITES {
        for b in 0..BUCKETS {
            let d = m.var(&format!("d{s}b{b}"), 0.0, f64::INFINITY);
            let frac = if spec.frac[s * BUCKETS + b] == 0 {
                0.2
            } else {
                0.9
            };
            let capacity = total / SITES as f64 * frac;
            let mut lhs = vec![(d, 1.0)];
            for (a, xr) in x.iter().enumerate() {
                lhs.push((xr[s], -cores[a]));
            }
            let e = m.expr(&lhs);
            m.add_ge(e, -capacity);
            objective.push((d, 4.0));
        }
    }
    for (a, row) in x.iter().enumerate() {
        for (s, &v) in row.iter().enumerate() {
            objective.push((v, spec.costs[a * SITES + s] as f64));
        }
    }
    let e = m.expr(&objective);
    m.set_objective(e);
    let binaries = x.into_iter().flatten().collect();
    (m, binaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_lps_agree_with_the_dense_oracle(lp in sparse_lp(6, 4)) {
        let m = build(&lp);
        assert_agree(&solve_lp(&m, &[]), &solve_lp_reference(&m, &[]));
    }

    #[test]
    fn placement_relaxations_agree_with_the_dense_oracle(spec in placement_spec(4)) {
        let (m, binaries) = build_placement(&spec);
        let root = solve_lp_state(&m, &[], None);
        assert_agree(
            &root.as_ref().map(|(s, _)| s.clone()).map_err(Clone::clone),
            &solve_lp_reference(&m, &[]),
        );
        // Branch-style fixings warm-started from the root basis, the way
        // the branch & bound drives the simplex.
        if let Ok((_, state)) = root {
            for (k, &v) in binaries.iter().enumerate() {
                let fix = if k % 2 == 0 { 1.0 } else { 0.0 };
                let overrides = [(v, fix, fix)];
                let warm = solve_lp_state(&m, &overrides, Some(&state)).map(|(s, _)| s);
                assert_agree(&warm, &solve_lp_reference(&m, &overrides));
            }
        }
    }

    #[test]
    fn presolve_round_trips_on_random_sparse_lps(lp in sparse_lp(6, 4)) {
        let m = build(&lp);
        let direct = solve_lp(&m, &[]);
        match presolve_lp(&m) {
            // Presolve may prove infeasibility on its own; the direct
            // solve must agree.
            Err(e) => assert_agree(&Err(e), &direct),
            Ok(pre) => {
                let round_trip =
                    solve_lp(pre.reduced(), &[]).map(|s| pre.postsolve(&m, &s));
                assert_agree(&round_trip, &direct);
                assert_agree(&round_trip, &solve_lp_reference(&m, &[]));
            }
        }
    }

    #[test]
    fn presolve_round_trips_on_branch_fixed_placements(
        spec in placement_spec(4),
        fixings in proptest::collection::vec(0..=2u32, 4),
    ) {
        // Bake branch-style decisions in as singleton equality rows —
        // exactly the rows presolve folds into fixed variables — fixing
        // app k at site (fixings[k] % SITES) for even k.
        let (mut m, binaries) = build_placement(&spec);
        for (k, &site) in fixings.iter().enumerate() {
            if k % 2 != 0 {
                continue;
            }
            for s in 0..SITES {
                let v = binaries[k * SITES + s];
                let fix = if s == site as usize { 1.0 } else { 0.0 };
                let e = m.expr(&[(v, 1.0)]);
                m.add_eq(e, fix);
            }
        }
        let direct = solve_lp(&m, &[]);
        match presolve_lp(&m) {
            Err(e) => assert_agree(&Err(e), &direct),
            Ok(pre) => {
                // The singleton rows must actually have been eliminated.
                prop_assert!(pre.num_fixed() >= 2 * SITES);
                let round_trip =
                    solve_lp(pre.reduced(), &[]).map(|s| pre.postsolve(&m, &s));
                assert_agree(&round_trip, &direct);
                assert_agree(&round_trip, &solve_lp_reference(&m, &[]));
            }
        }
    }
}
