//! Cold vs warm cross-epoch solver benchmark, plus model-size scaling.
//!
//! Part 1 solves the same Table-1-shaped placement MIP over a sequence
//! of epochs whose forecasts (RHS) drift while the structure stays
//! fixed — once with independent cold solves per epoch, once through
//! [`vb_solver::solve_mip_epoch`]'s cached-root reuse.
//!
//! Part 2 scales the instance (`VB_SOLVER_SCALES`, default
//! `1x,10x,100x` on the app count) into fleet-shaped MIPs where ~60 %
//! of the apps are pinned to their home site by singleton equality
//! rows — the shape presolve dissolves — and runs each scale through
//! the epoch path twice: once with [`KernelConfig::baseline`] (the
//! pre-presolve/devex/parallel explicit-tableau kernel) and once with
//! [`KernelConfig::production`] (factorized revised simplex +
//! steepest-edge), asserting identical optima. Rows report the
//! production kernel's refactorization and eta-update counts alongside
//! pivots. Like the fleet bench, a 1000× fleet-shaped row is opt-in:
//! `VB_SOLVER_SCALES=1x,10x,100x,1000x` (it solves a single epoch at
//! that size to keep wall-clock sane).
//!
//! Both parts are written to `BENCH_solver.json` (override the path
//! with `VB_BENCH_OUT`; empty string disables the file).

use std::time::Instant;
use vb_solver::branch::solve_mip_bounded_with;
use vb_solver::{
    solve_mip_epoch, solve_mip_epoch_with, EpochCache, KernelConfig, Model, Sense, VarId,
};

const EPOCHS: usize = 96;
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

/// Epoch `e` of the placement sequence: app demands, placement costs,
/// and the constraint matrix are epoch-invariant; only the per-site
/// capacity forecast (the displacement rows' RHS) drifts with `e`.
fn epoch_model(e: usize) -> Model {
    scaled_epoch_model(APPS, e, false)
}

/// [`epoch_model`] parameterized on the app count for the scaling
/// section. With `pin`, three of every five apps are additionally held
/// at their home site by a singleton equality row — real fleets pin
/// most placements (data gravity, licensing, latency) and only the
/// movable minority is decided per epoch. The singletons are exactly
/// what presolve folds away, so the scaling rows measure the production
/// kernel on the model shape it was built for.
fn scaled_epoch_model(apps: usize, e: usize, pin: bool) -> Model {
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
    if pin {
        for (a, row) in x.iter().enumerate() {
            if a % 5 < 3 {
                let expr = m.expr(&[(row[a % SITES], 1.0)]);
                m.add_eq(expr, 1.0);
            }
        }
    }
    let cores: Vec<f64> = (0..apps).map(|a| 20.0 * (1.0 + (a % 4) as f64)).collect();
    // Each app has a home site (zero placement cost) and distinct
    // positive costs elsewhere, and every site runs a drifting deficit:
    // the root relaxation has a unique, integral optimum (everyone
    // stays home), which is the co-scheduler's common case — epochs are
    // root-dominated rather than branching-dominated, and the RHS drift
    // is what the warm repair has to absorb.
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

fn pivots_now() -> u64 {
    counter_now("solver.pivots")
}

fn counter_now(name: &str) -> u64 {
    vb_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// One model-size scaling measurement: the same epoch sequence pushed
/// through the epoch path with the PR-7-era baseline kernel and with
/// the production kernel (presolve + steepest-edge revised simplex +
/// parallel B&B).
struct ScaleRow {
    label: String,
    apps: usize,
    vars: usize,
    rows: usize,
    epochs: usize,
    baseline_secs: f64,
    kernel_secs: f64,
    speedup: f64,
    baseline_pivots: u64,
    kernel_pivots: u64,
    presolve_vars_fixed: u64,
    refactorizations: u64,
    eta_updates: u64,
    max_objective_drift: f64,
}

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
    let models: Vec<Model> = (0..epochs)
        .map(|e| scaled_epoch_model(apps, e, true))
        .collect();
    let run_kernel = |kernel: &KernelConfig| {
        let p = pivots_now();
        let t = Instant::now();
        let mut cache: Option<EpochCache> = None;
        let mut objs: Vec<f64> = Vec::with_capacity(epochs);
        for m in &models {
            let (sol, next, _hit) = solve_mip_epoch_with(m, MAX_NODES, cache.as_ref(), kernel)
                .expect("scaled placement epochs are feasible");
            cache = Some(next);
            objs.push(sol.objective);
        }
        (t.elapsed().as_secs_f64(), pivots_now() - p, objs)
    };
    let (baseline_secs, baseline_pivots, base_obj) = run_kernel(&KernelConfig::baseline());
    let fixed0 = counter_now("solver.presolve_vars_fixed");
    let refac0 = counter_now("solver.refactorizations");
    let eta0 = counter_now("solver.eta_updates");
    let (kernel_secs, kernel_pivots, kern_obj) = run_kernel(&KernelConfig::production());
    let presolve_vars_fixed = counter_now("solver.presolve_vars_fixed") - fixed0;
    let refactorizations = counter_now("solver.refactorizations") - refac0;
    let eta_updates = counter_now("solver.eta_updates") - eta0;
    let max_objective_drift = base_obj
        .iter()
        .zip(&kern_obj)
        .map(|(b, k)| (b - k).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_objective_drift < 1e-6,
        "{label}: production kernel changed an optimum by {max_objective_drift}"
    );
    ScaleRow {
        label: label.to_string(),
        apps,
        vars: models[0].num_vars(),
        rows: models[0].num_constraints(),
        epochs,
        baseline_secs,
        kernel_secs,
        speedup: if kernel_secs > 0.0 {
            baseline_secs / kernel_secs
        } else {
            0.0
        },
        baseline_pivots,
        kernel_pivots,
        presolve_vars_fixed,
        refactorizations,
        eta_updates,
        max_objective_drift,
    }
}

fn main() {
    let run = vb_bench::report::BenchRun::start("solver_perf");
    let models: Vec<Model> = (0..EPOCHS).map(epoch_model).collect();

    // Cold path: every epoch solved from scratch (B&B children still
    // warm-start from their parents — that part is shared). The bench is
    // single-threaded, so per-epoch pivot deltas off the global counter
    // are exact — they go into the `solver.epoch_series` so a regression
    // can be pinned to the epoch that blew the pivot budget.
    let p0 = pivots_now();
    let t0 = Instant::now();
    let mut cold_obj: Vec<f64> = Vec::with_capacity(EPOCHS);
    for (e, m) in models.iter().enumerate() {
        let ep = pivots_now();
        let et = Instant::now();
        let sol =
            solve_mip_bounded_with(m, MAX_NODES, true).expect("placement epochs are feasible");
        vb_telemetry::series_sample(
            "solver.epoch_series",
            "cold",
            e as u64,
            &[
                ("pivots", (pivots_now() - ep) as f64),
                ("secs", et.elapsed().as_secs_f64()),
                ("objective", sol.objective),
            ],
        );
        cold_obj.push(sol.objective);
    }
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_pivots = pivots_now() - p0;

    // Warm path: each epoch's root repaired from the previous optimum.
    let p1 = pivots_now();
    let t1 = Instant::now();
    let mut cache: Option<EpochCache> = None;
    let mut warm_hits = 0usize;
    let mut warm_obj: Vec<f64> = Vec::with_capacity(EPOCHS);
    for (e, m) in models.iter().enumerate() {
        let ep = pivots_now();
        let et = Instant::now();
        let (sol, next, start) =
            solve_mip_epoch(m, MAX_NODES, cache.as_ref()).expect("placement epochs are feasible");
        cache = Some(next);
        let hit = start.is_warm();
        warm_hits += hit as usize;
        vb_telemetry::series_sample(
            "solver.epoch_series",
            "warm",
            e as u64,
            &[
                ("pivots", (pivots_now() - ep) as f64),
                ("secs", et.elapsed().as_secs_f64()),
                ("objective", sol.objective),
                ("warm_hit", hit as u64 as f64),
            ],
        );
        warm_obj.push(sol.objective);
    }
    let warm_secs = t1.elapsed().as_secs_f64();
    let warm_pivots = pivots_now() - p1;

    let drift = cold_obj
        .iter()
        .zip(&warm_obj)
        .map(|(c, w)| (c - w).abs())
        .fold(0.0f64, f64::max);
    assert!(drift < 1e-6, "warm epochs changed an optimum by {drift}");

    let pivot_cut = if cold_pivots > 0 {
        1.0 - warm_pivots as f64 / cold_pivots as f64
    } else {
        0.0
    };
    let speedup = if warm_secs > 0.0 {
        cold_secs / warm_secs
    } else {
        0.0
    };
    println!("epoch reuse over {EPOCHS} epochs ({APPS} apps x {SITES} sites x {BUCKETS} buckets):");
    println!("  cold: {cold_secs:.4}s, {cold_pivots} pivots");
    println!(
        "  warm: {warm_secs:.4}s, {warm_pivots} pivots ({warm_hits}/{} hits)",
        EPOCHS - 1
    );
    println!(
        "  speedup {speedup:.2}x, pivots cut {:.0}%",
        100.0 * pivot_cut
    );

    // Part 2: model-size scaling, baseline kernel vs production kernel.
    let scales_env = std::env::var("VB_SOLVER_SCALES").unwrap_or_else(|_| "1x,10x,100x".into());
    let scales = match vb_bench::scales::parse_scales(&scales_env, "VB_SOLVER_SCALES") {
        Ok(scales) => scales,
        Err(err) => {
            eprintln!("solver_perf: {err}");
            std::process::exit(2);
        }
    };
    let mut scale_rows: Vec<ScaleRow> = Vec::new();
    println!("kernel scaling (baseline vs presolve+steepest-edge+parallel):");
    for (label, mult) in &scales {
        let row = run_scale(label, *mult as usize);
        println!(
            "  {}: {} apps ({} vars x {} rows) x {} epochs: \
             baseline {:.4}s/{} pivots, kernel {:.4}s/{} pivots, \
             speedup {:.2}x, {} vars presolved away, \
             {} refactorizations, {} eta updates, drift {:.1e}",
            row.label,
            row.apps,
            row.vars,
            row.rows,
            row.epochs,
            row.baseline_secs,
            row.baseline_pivots,
            row.kernel_secs,
            row.kernel_pivots,
            row.speedup,
            row.presolve_vars_fixed,
            row.refactorizations,
            row.eta_updates,
            row.max_objective_drift,
        );
        scale_rows.push(row);
    }

    let scaling_json: Vec<String> = scale_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"scale\": \"{}\",\n      \"apps\": {},\n      \"vars\": {},\n      \"rows\": {},\n      \"epochs\": {},\n      \"baseline_secs\": {:.6},\n      \"kernel_secs\": {:.6},\n      \"speedup\": {:.4},\n      \"baseline_pivots\": {},\n      \"kernel_pivots\": {},\n      \"presolve_vars_fixed\": {},\n      \"refactorizations\": {},\n      \"eta_updates\": {},\n      \"max_objective_drift\": {:.3e}\n    }}",
                r.label,
                r.apps,
                r.vars,
                r.rows,
                r.epochs,
                r.baseline_secs,
                r.kernel_secs,
                r.speedup,
                r.baseline_pivots,
                r.kernel_pivots,
                r.presolve_vars_fixed,
                r.refactorizations,
                r.eta_updates,
                r.max_objective_drift,
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"solver_epoch_reuse\",\n  \"epochs\": {EPOCHS},\n  \"apps\": {APPS},\n  \"sites\": {SITES},\n  \"buckets\": {BUCKETS},\n  \"cold_secs\": {cold_secs:.6},\n  \"warm_secs\": {warm_secs:.6},\n  \"speedup\": {speedup:.4},\n  \"cold_pivots\": {cold_pivots},\n  \"warm_pivots\": {warm_pivots},\n  \"pivot_reduction\": {pivot_cut:.4},\n  \"warm_hits\": {warm_hits},\n  \"max_objective_drift\": {drift:.3e},\n  \"scaling\": [\n{}\n  ]\n}}\n",
        scaling_json.join(",\n")
    );
    // Default next to the workspace root (cargo runs benches from the
    // package directory), overridable with VB_BENCH_OUT.
    let path = std::env::var("VB_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json").into());
    if !path.is_empty() {
        // Create the parent dir: VB_BENCH_OUT may point into a report
        // dir that only exists after `run.finish()` (see fleet_perf).
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
    run.finish();
}
