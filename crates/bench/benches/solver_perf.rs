//! Solver kernel scaling benchmark.
//!
//! Scales a Table-1-shaped placement MIP (`VB_SOLVER_SCALES`, default
//! `1x,10x,100x` on the app count) into fleet-shaped MIPs where ~60 %
//! of the apps are pinned to their home site by singleton equality
//! rows — the shape presolve dissolves — and solves each scale's epochs
//! cold with [`solve_mip_kernel`], as the co-scheduler does. Each row
//! reports the wall-clock next to the exact work behind it: LP solves,
//! pivots, eta updates, refactorizations, branch-and-bound nodes,
//! presolve fixings, and the sum of the epochs' optimal objectives.
//! Like the fleet bench, a 1000× fleet-shaped row is opt-in:
//! `VB_SOLVER_SCALES=1x,10x,100x,1000x` (it solves a single epoch at
//! that size to keep wall-clock sane).
//!
//! The rows are written to `BENCH_solver.json` (override the path with
//! `VB_BENCH_OUT`; empty string disables the file).

use std::time::Instant;
use vb_bench::report::counter_now;
use vb_solver::{solve_mip_kernel, Model, Sense, VarId};
use vb_telemetry::Json;

const APPS: usize = 16;
const SITES: usize = 3;
const BUCKETS: usize = 6;
const MAX_NODES: usize = 100_000;

/// Deterministic pseudo-random stream (epoch-independent structure).
fn mix(seed: usize) -> f64 {
    let h = (seed as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Epoch `e` of a placement sequence over `apps` apps: app demands,
/// placement costs and the constraint matrix are the same every epoch;
/// only the per-site capacity forecast (the displacement rows' RHS)
/// drifts with `e`. Three of every five apps are held at their home
/// site by a singleton equality row — real fleets pin most placements
/// (data gravity, licensing, latency) and only the movable minority is
/// decided per epoch. The singletons are exactly what presolve folds
/// away, so the rows measure the solver on the model shape it was
/// built for.
fn epoch_model(apps: usize, e: usize) -> Model {
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
        let expr = m.expr(&terms);
        m.add_eq(expr, 1.0);
    }
    for (a, row) in x.iter().enumerate() {
        if a % 5 < 3 {
            let expr = m.expr(&[(row[a % SITES], 1.0)]);
            m.add_eq(expr, 1.0);
        }
    }
    let cores: Vec<f64> = (0..apps).map(|a| 20.0 * (1.0 + (a % 4) as f64)).collect();
    // Each app has a home site (zero placement cost) and distinct
    // positive costs elsewhere, and every site runs a drifting deficit:
    // the root relaxation has a unique, integral optimum (everyone
    // stays home), which is the co-scheduler's common case — epochs are
    // root-dominated rather than branching-dominated.
    let home_load: Vec<f64> = (0..SITES)
        .map(|s| (0..apps).filter(|a| a % SITES == s).map(|a| cores[a]).sum())
        .collect();
    let mut objective = Vec::new();
    for s in 0..SITES {
        for b in 0..BUCKETS {
            let d = m.var(&format!("d{s}b{b}"), 0.0, f64::INFINITY);
            let deficit = 0.6 + 0.3 * mix(1000 * e + 10 * s + b);
            let capacity = home_load[s] * deficit;
            let mut lhs = vec![(d, 1.0)];
            for (a, xr) in x.iter().enumerate() {
                lhs.push((xr[s], -cores[a]));
            }
            let expr = m.expr(&lhs);
            m.add_ge(expr, -capacity.round());
            objective.push((d, 4.0));
        }
    }
    for (a, row) in x.iter().enumerate() {
        for (s, &v) in row.iter().enumerate() {
            if s != a % SITES {
                objective.push((v, (10 + (7 * a + 3 * s) % 13) as f64));
            }
        }
    }
    let expr = m.expr(&objective);
    m.set_objective(expr);
    m
}

/// One model-size scaling measurement: the epoch sequence solved cold
/// by `solve_mip_kernel` (presolve + revised simplex + parallel B&B).
struct ScaleRow {
    label: String,
    apps: usize,
    vars: usize,
    rows: usize,
    epochs: usize,
    kernel_secs: f64,
    kernel_pivots: u64,
    presolve_vars_fixed: u64,
    refactorizations: u64,
    eta_updates: u64,
    lp_solves: u64,
    nodes_expanded: u64,
    objective_sum: f64,
}

/// The telemetry counters a row reports, as deltas over its solves.
const COUNTERS: [&str; 6] = [
    "solver.pivots",
    "solver.presolve_vars_fixed",
    "solver.refactorizations",
    "solver.eta_updates",
    "solver.lp_solves",
    "solver.mip_nodes_expanded",
];

fn run_scale(label: &str, mult: usize) -> ScaleRow {
    let apps = APPS * mult;
    // Bigger instances need fewer epochs to dominate the measurement;
    // the opt-in 1000x row gets a single epoch.
    let epochs = if mult >= 1000 {
        1
    } else if mult >= 100 {
        2
    } else if mult >= 10 {
        4
    } else {
        8
    };
    let models: Vec<Model> = (0..epochs).map(|e| epoch_model(apps, e)).collect();
    let before = COUNTERS.map(counter_now);
    let t = Instant::now();
    let objective_sum: f64 = models
        .iter()
        .map(|m| {
            solve_mip_kernel(m, MAX_NODES)
                .expect("scaled placement epochs are feasible")
                .objective
        })
        .sum();
    let kernel_secs = t.elapsed().as_secs_f64();
    let [kernel_pivots, presolve_vars_fixed, refactorizations, eta_updates, lp_solves, nodes_expanded] =
        std::array::from_fn(|k| counter_now(COUNTERS[k]) - before[k]);
    ScaleRow {
        label: label.to_string(),
        apps,
        vars: models[0].num_vars(),
        rows: models[0].num_constraints(),
        epochs,
        kernel_secs,
        kernel_pivots,
        presolve_vars_fixed,
        refactorizations,
        eta_updates,
        lp_solves,
        nodes_expanded,
        objective_sum,
    }
}

fn main() {
    let run = vb_bench::report::BenchRun::start("solver_perf");
    let scales_env = std::env::var("VB_SOLVER_SCALES").unwrap_or_else(|_| "1x,10x,100x".into());
    let scales = match vb_bench::scales::parse_scales(&scales_env, "VB_SOLVER_SCALES") {
        Ok(scales) => scales,
        Err(err) => {
            eprintln!("solver_perf: {err}");
            std::process::exit(2);
        }
    };
    let mut rows: Vec<Json> = Vec::new();
    println!("kernel scaling (presolve + revised simplex + parallel B&B):");
    for (label, mult) in &scales {
        let row = run_scale(label, *mult as usize);
        println!(
            "  {}: {} apps ({} vars x {} rows) x {} epochs: \
             {:.4}s, {} LP solves, {} pivots, {} eta updates, \
             {} refactorizations, {} nodes, {} vars presolved away, \
             objective sum {}",
            row.label,
            row.apps,
            row.vars,
            row.rows,
            row.epochs,
            row.kernel_secs,
            row.lp_solves,
            row.kernel_pivots,
            row.eta_updates,
            row.refactorizations,
            row.nodes_expanded,
            row.presolve_vars_fixed,
            row.objective_sum,
        );
        rows.push(Json::Obj(vec![
            ("scale".into(), row.label.into()),
            ("apps".into(), row.apps.into()),
            ("vars".into(), row.vars.into()),
            ("rows".into(), row.rows.into()),
            ("epochs".into(), row.epochs.into()),
            ("kernel_secs".into(), row.kernel_secs.into()),
            ("kernel_pivots".into(), row.kernel_pivots.into()),
            ("presolve_vars_fixed".into(), row.presolve_vars_fixed.into()),
            ("refactorizations".into(), row.refactorizations.into()),
            ("eta_updates".into(), row.eta_updates.into()),
            ("lp_solves".into(), row.lp_solves.into()),
            ("nodes_expanded".into(), row.nodes_expanded.into()),
            ("objective_sum".into(), row.objective_sum.into()),
        ]));
    }

    vb_bench::report::write_bench_json(
        "BENCH_solver.json",
        &[
            ("bench", "solver_scaling".into()),
            ("scaling", Json::Arr(rows)),
        ],
    );
    run.finish();
}
