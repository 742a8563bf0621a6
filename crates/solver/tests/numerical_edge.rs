//! Property-based numerical-edge tests for the factorized revised
//! simplex ([`vb_solver::revised`]), differential against the dense
//! row-expansion oracle ([`vb_solver::dense::solve_lp_reference`]):
//!
//! 1. **near-degenerate** LPs — stacked copies of the same row with
//!    RHS values an epsilon apart, so the ratio test ties across many
//!    rows and pivots make little or no objective progress. Solved
//!    with a tiny `refactor_after` so the scheduled-refactorization
//!    path runs every couple of pivots, and with a tiny `bland_after`
//!    so the Bland anti-cycling fallback takes over from steepest-edge
//!    pricing (the weighted rule must coexist with index-order entry);
//! 2. **rank-deficient-after-presolve** LPs — singleton equality rows
//!    fix a subset of variables; presolve substitutes them out, which
//!    can leave duplicated or zeroed rows in the reduced model. The
//!    revised engine must solve the *reduced* model (phase 1 freezes
//!    the redundant rows' artificials) and postsolve must agree with
//!    the oracle on the original.
//!
//! Degeneracy is exactly where steepest-edge weights drift, so these
//! instances pin the weight maintenance and its resets to the oracle.

use proptest::prelude::*;
use vb_solver::dense::solve_lp_reference;
use vb_solver::presolve::presolve_lp;
use vb_solver::revised::{self, Params};
use vb_solver::{Model, Sense, Solution, SolveError, VarId};

const TOL: f64 = 1e-6;

fn assert_agree(
    label: &str,
    got: &Result<Solution, SolveError>,
    oracle: &Result<Solution, SolveError>,
) {
    match (got, oracle) {
        (Ok(a), Ok(b)) => assert!(
            (a.objective - b.objective).abs() < TOL,
            "{label}: objectives diverge: revised {} vs oracle {}",
            a.objective,
            b.objective
        ),
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
        (a, b) => panic!("{label}: status diverges: revised {a:?} vs oracle {b:?}"),
    }
}

/// A near-degenerate LP: `copies` stacked `≤` rows share one left-hand
/// side over all variables, with RHS values `base + k·eps` — at the
/// optimum many slacks sit within `eps` of zero, so ratio-test ties and
/// zero-progress pivots are the common case, not the exception.
#[derive(Debug, Clone)]
struct DegenerateSpec {
    maximize: bool,
    coefs: Vec<i32>,
    obj: Vec<i32>,
    copies: usize,
    base: i32,
    /// RHS spacing selector: 0 → exactly equal RHS, else `10^-6`.
    spacing: u32,
}

fn degenerate_spec(n: usize) -> impl Strategy<Value = DegenerateSpec> {
    (
        any::<bool>(),
        proptest::collection::vec(0..=3i32, n),
        proptest::collection::vec(-3..=3i32, n),
        2..6usize,
        1..=8i32,
        0..2u32,
    )
        .prop_map(
            |(maximize, coefs, obj, copies, base, spacing)| DegenerateSpec {
                maximize,
                coefs,
                obj,
                copies,
                base,
                spacing,
            },
        )
}

fn build_degenerate(spec: &DegenerateSpec) -> Model {
    let sense = if spec.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<VarId> = (0..spec.coefs.len())
        .map(|j| m.var(&format!("x{j}"), 0.0, 6.0))
        .collect();
    let eps = if spec.spacing == 0 { 0.0 } else { 1e-6 };
    for k in 0..spec.copies {
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .zip(&spec.coefs)
            .filter(|&(_, &c)| c != 0)
            .map(|(&v, &c)| (v, c as f64))
            .collect();
        if terms.is_empty() {
            break;
        }
        let e = m.expr(&terms);
        m.add_le(e, spec.base as f64 + k as f64 * eps);
    }
    let obj: Vec<(VarId, f64)> = vars
        .iter()
        .zip(&spec.obj)
        .map(|(&v, &c)| (v, c as f64))
        .collect();
    let e = m.expr(&obj);
    m.set_objective(e);
    m
}

/// Singleton-pinned placement-flavoured LP whose reduced model is prone
/// to redundant (rank-deficient) rows: `x_j = fix_j` singleton equality
/// rows alongside a shared coupling row. After presolve substitutes the
/// pinned variables, the coupling rows collapse toward duplicates of
/// each other (or all-zero rows when everything in them was pinned).
#[derive(Debug, Clone)]
struct PinnedSpec {
    pins: Vec<(u32, i32)>,
    coefs: Vec<i32>,
    obj: Vec<i32>,
    rhs: i32,
}

fn pinned_spec(n: usize) -> impl Strategy<Value = PinnedSpec> {
    (
        proptest::collection::vec((0..3u32, 0..=3i32), n),
        proptest::collection::vec(1..=3i32, n),
        proptest::collection::vec(-4..=4i32, n),
        4..=20i32,
    )
        .prop_map(|(pins, coefs, obj, rhs)| PinnedSpec {
            pins,
            coefs,
            obj,
            rhs,
        })
}

fn build_pinned(spec: &PinnedSpec) -> Model {
    let n = spec.coefs.len();
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<VarId> = (0..n).map(|j| m.var(&format!("x{j}"), 0.0, 5.0)).collect();
    // Two copies of the coupling row (one ≤, one ≥ with slack) so that
    // after substitution a pair of structurally dependent rows remains.
    let terms: Vec<(VarId, f64)> = vars
        .iter()
        .zip(&spec.coefs)
        .map(|(&v, &c)| (v, c as f64))
        .collect();
    let e = m.expr(&terms);
    m.add_le(e, spec.rhs as f64);
    let e = m.expr(&terms);
    m.add_ge(e, -(spec.rhs as f64));
    for (j, &(keep, fix)) in spec.pins.iter().enumerate() {
        // ~1/3 of the variables get pinned by a singleton equality.
        if keep == 0 {
            let e = m.expr(&[(vars[j], 1.0)]);
            m.add_eq(e, fix as f64);
        }
    }
    let obj: Vec<(VarId, f64)> = vars
        .iter()
        .zip(&spec.obj)
        .map(|(&v, &c)| (v, c as f64))
        .collect();
    let e = m.expr(&obj);
    m.set_objective(e);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Near-degenerate instances under a refactorize-every-2-pivots
    /// schedule: the scheduled refactorization path (fresh Markowitz
    /// factorization + recomputed basic values) must be invisible in
    /// the results.
    #[test]
    fn degenerate_with_tiny_refactor_interval_matches_oracle(spec in degenerate_spec(6)) {
        let m = build_degenerate(&spec);
        let oracle = solve_lp_reference(&m, &[]);
        let params = Params { refactor_after: 2, ..Params::default() };
        let got = revised::solve_lp_state_params(&m, &[], None, params).map(|(sol, _)| sol);
        assert_agree("refactor_after=2", &got, &oracle);
    }

    /// The same instances with the Bland anti-cycling fallback forced
    /// almost immediately (`bland_after: 3`): index-order entry must
    /// override the steepest-edge weights without disagreeing with the
    /// oracle — degeneracy-heavy models are exactly where Bland engages
    /// in production.
    #[test]
    fn degenerate_bland_fallback_matches_oracle(spec in degenerate_spec(6)) {
        let m = build_degenerate(&spec);
        let oracle = solve_lp_reference(&m, &[]);
        let params = Params { bland_after: 3, ..Params::default() };
        let got = revised::solve_lp_state_params(&m, &[], None, params).map(|(sol, _)| sol);
        assert_agree("bland_after=3", &got, &oracle);
    }

    /// Rank-deficient-after-presolve round trip: presolve the pinned
    /// model, solve the reduced LP on the factorized engine (phase 1
    /// must freeze the redundant rows' artificials), postsolve, and
    /// compare with the oracle on the *original* model.
    #[test]
    fn rank_deficient_after_presolve_matches_oracle(spec in pinned_spec(8)) {
        let m = build_pinned(&spec);
        let oracle = solve_lp_reference(&m, &[]);
        match presolve_lp(&m) {
            // Presolve may prove infeasibility on its own; the oracle
            // must agree.
            Err(e) => assert_agree("presolve-infeasible", &Err(e), &oracle),
            Ok(pre) => {
                let got = revised::solve_lp_state(pre.reduced(), &[], None)
                    .map(|(sol, _)| pre.postsolve(&m, &sol));
                assert_agree("presolve", &got, &oracle);
            }
        }
    }
}
