//! Telemetry-backed acceptance check for the warm-started branch &
//! bound: on Table-1-shaped placement MIPs the warm path must do
//! substantially less pivot work than cold solves at every node, while
//! returning the same placements.
//!
//! Kept in its own test binary: it reads the process-global telemetry
//! registry, so it must not race with other tests mutating it.

use rand::{Rng, SeedableRng};
use vb_solver::branch::solve_mip_bounded_with;
use vb_solver::{Model, Sense, VarId};

/// Same shape as `vb-sched`'s MipPolicy output: app-site binaries, one
/// site per app, per-site/bucket displacement vars and costs.
fn placement_mip(rng: &mut rand::rngs::StdRng, apps: usize, sites: usize, buckets: usize) -> Model {
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
    for row in &x {
        for &v in row {
            objective.push((v, rng.gen_range(0..6) as f64));
        }
    }
    let e = m.expr(&objective);
    m.set_objective(e);
    m
}

fn pivots_for(models: &[Model], warm: bool) -> (u64, Vec<f64>) {
    vb_telemetry::reset();
    let objectives: Vec<f64> = models
        .iter()
        .map(|m| {
            solve_mip_bounded_with(m, 200_000, warm)
                .expect("placement MIPs are feasible")
                .objective
        })
        .collect();
    let snap = vb_telemetry::snapshot();
    (snap.counter("solver.pivots").unwrap_or(0), objectives)
}

#[test]
fn warm_starts_cut_total_pivots_without_changing_placements() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E5);
    let models: Vec<Model> = (0..8)
        .map(|case| placement_mip(&mut rng, 4 + case % 3, 2 + case % 2, 3))
        .collect();

    let (cold_pivots, cold_obj) = pivots_for(&models, false);
    if cold_pivots == 0 {
        // Telemetry compiled out (--no-default-features): counters stay
        // zero and the ratio below is meaningless.
        return;
    }
    let (warm_pivots, warm_obj) = pivots_for(&models, true);

    for (case, (c, w)) in cold_obj.iter().zip(&warm_obj).enumerate() {
        assert!(
            (c - w).abs() < 1e-6,
            "case {case}: warm objective {w} diverges from cold {c}"
        );
    }
    eprintln!(
        "warm starts: {warm_pivots} pivots vs {cold_pivots} cold ({:.0}% saved)",
        100.0 * (1.0 - warm_pivots as f64 / cold_pivots as f64)
    );
    assert!(
        (warm_pivots as f64) <= 0.7 * cold_pivots as f64,
        "warm start saved too little: {warm_pivots} warm vs {cold_pivots} cold"
    );
}
