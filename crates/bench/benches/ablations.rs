//! Ablation sweeps over the design choices DESIGN.md calls out:
//!
//! * **Clique size k** — availability/latency trade-off of larger
//!   multi-VB groups (§3.1's "k = 2 to 5").
//! * **Look-ahead horizon** — greedy (none) → 24 h → full week.
//! * **Peak-objective weight** — O2 strength in MIP-peak.
//! * **Utilization target** — the 70 % admission-control knob of §3.
//! * **Forecast quality** — scheduler value under degraded forecasts
//!   (the week-ahead error model applied at every horizon).

use vb_sched::{
    identify_subgraphs, GreedyPolicy, GroupSim, GroupSimConfig, MipConfig, MipPolicy,
    PipelineConfig, Policy,
};
use vb_stats::report::{thousands, Table};
use vb_trace::{Catalog, TRIO};

fn run_policy(
    catalog: &Catalog,
    names: &[&str],
    cfg: &GroupSimConfig,
    p: &mut dyn Policy,
) -> (f64, f64, u64) {
    let s = GroupSim::new(catalog, names, cfg.clone())
        .expect("benchmark sites must exist in the catalog")
        .run(p);
    (s.total_gb, s.peak_gb, s.unavailable_app_steps)
}

fn ablate_k(catalog: &Catalog) {
    println!("== Ablation: clique size k (subgraph identification) ==");
    let mut t = Table::new(&["k", "best-clique cov", "diameter (ms)", "candidates"]);
    for k in 2..=5 {
        let cfg = PipelineConfig {
            k,
            candidates: 50,
            ..PipelineConfig::default()
        };
        let ranked = identify_subgraphs(catalog, &cfg);
        if let Some(best) = ranked.first() {
            t.row(&[
                k.to_string(),
                format!("{:.3}", best.cov),
                format!("{:.1}", best.diameter_ms),
                ranked.len().to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!("(lower cov = steadier group; diameter grows with k — the paper's latency/availability trade-off)\n");
}

fn ablate_horizon(catalog: &Catalog, cfg: &GroupSimConfig) {
    println!("== Ablation: look-ahead horizon ==");
    let mut t = Table::new(&["Policy", "Total (GB)", "Peak (GB)", "Unavail (app-steps)"]);
    let mut add = |name: &str, r: (f64, f64, u64)| {
        t.row(&[name.into(), thousands(r.0), thousands(r.1), r.2.to_string()]);
    };
    add(
        "Greedy (none)",
        run_policy(catalog, &TRIO, cfg, &mut GreedyPolicy::new()),
    );
    for (label, steps) in [
        ("MIP 6h", 24u32),
        ("MIP 24h", 96),
        ("MIP 3d", 288),
        ("MIP 7d", 672),
    ] {
        let mut mc = MipConfig::mip();
        mc.horizon_steps = steps;
        mc.name = label.into();
        add(
            label,
            run_policy(catalog, &TRIO, cfg, &mut MipPolicy::new(mc)),
        );
    }
    print!("{}", t.render());
    println!();
}

fn ablate_peak_weight(catalog: &Catalog, cfg: &GroupSimConfig) {
    println!("== Ablation: O2 peak weight (MIP-peak) ==");
    let mut t = Table::new(&["Peak weight", "Total (GB)", "Peak (GB)", "Std (GB)"]);
    for w in [0.0, 12.0, 24.0, 48.0] {
        let mut mc = MipConfig::mip_peak();
        mc.peak_weight = w;
        mc.name = format!("MIP-peak w{w}");
        let s = GroupSim::new(catalog, &TRIO, cfg.clone())
            .expect("benchmark sites must exist in the catalog")
            .run(&mut MipPolicy::new(mc));
        t.row(&[
            format!("{w}"),
            thousands(s.total_gb),
            thousands(s.peak_gb),
            thousands(s.std_gb),
        ]);
    }
    print!("{}", t.render());
    println!();
}

fn ablate_util(catalog: &Catalog) {
    println!("== Ablation: admission-control utilization target ==");
    let mut t = Table::new(&["Target util", "Total (GB)", "Peak (GB)", "Unavail"]);
    for util in [0.6, 0.7, 0.8] {
        let cfg = GroupSimConfig {
            target_util: util,
            ..GroupSimConfig::default()
        };
        let mc = MipConfig {
            name: format!("MIP util {util}"),
            ..MipConfig::mip()
        };
        let r = run_policy(catalog, &TRIO, &cfg, &mut MipPolicy::new(mc));
        t.row(&[
            format!("{util}"),
            thousands(r.0),
            thousands(r.1),
            r.2.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(tighter targets absorb more power variation for free, §3)\n");
}

fn ablate_forecast_quality(catalog: &Catalog, cfg: &GroupSimConfig) {
    println!("== Ablation: scheduler value vs forecast horizon used ==");
    // Approximate forecast degradation by shortening the fresh-forecast
    // window: a 6h-horizon MIP sees mostly 3h-quality forecasts; a
    // 7-day MIP leans on week-ahead quality for most of its horizon.
    let mut t = Table::new(&["Setup", "Total (GB)", "Peak (GB)"]);
    for (label, bucket) in [("fine buckets (3h)", 12u32), ("coarse buckets (12h)", 48)] {
        let cfg = GroupSimConfig {
            bucket_steps: bucket,
            ..cfg.clone()
        };
        let mc = MipConfig {
            name: format!("MIP {}h buckets", bucket / 4),
            ..MipConfig::mip()
        };
        let r = run_policy(catalog, &TRIO, &cfg, &mut MipPolicy::new(mc));
        t.row(&[label.into(), thousands(r.0), thousands(r.1)]);
    }
    print!("{}", t.render());
}

fn ablate_subgraphs(catalog: &Catalog) {
    println!("== Ablation: subgraph (latency) constraint — Fig 6 step 2 ==");
    // Four sites; compare free re-hosting across all of them against
    // two disjoint 2-site subgraphs (apps stay within their group).
    let names = [TRIO[0], TRIO[1], TRIO[2], "ES-wind"];
    let mut t = Table::new(&[
        "Structure",
        "Total (GB)",
        "Peak (GB)",
        "Unavail (app-steps)",
    ]);
    for (label, groups) in [
        ("one 4-site group", None),
        ("2 disjoint pairs", Some(vec![vec![0usize, 1], vec![2, 3]])),
    ] {
        let cfg = GroupSimConfig {
            subgraphs: groups,
            ..GroupSimConfig::default()
        };
        let mc = MipConfig {
            name: format!("MIP {label}"),
            ..MipConfig::mip()
        };
        let r = run_policy(catalog, &names, &cfg, &mut MipPolicy::new(mc));
        t.row(&[
            label.into(),
            thousands(r.0),
            thousands(r.1),
            r.2.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(smaller subgraphs respect latency but strand more apps — the §3.1 availability/latency trade-off)\n");
}

fn main() {
    let run = vb_bench::report::BenchRun::start("ablations");
    let catalog = Catalog::europe(vb_bench::DEFAULT_SEED);
    let cfg = GroupSimConfig::default();
    ablate_subgraphs(&catalog);
    ablate_k(&catalog);
    ablate_horizon(&catalog, &cfg);
    ablate_peak_weight(&catalog, &cfg);
    ablate_util(&catalog);
    ablate_forecast_quality(&catalog, &cfg);
    run.finish();
}
