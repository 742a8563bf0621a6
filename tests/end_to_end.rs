//! Cross-crate integration tests: the full Virtual Battery pipeline from
//! synthetic weather to scheduled migrations, exercised through the
//! public APIs the examples use.

use virtual_battery::vb_core::energy::WINDOW_3_DAYS;
use virtual_battery::vb_core::{optimize_purchase, MultiVb, VirtualBattery};
use virtual_battery::vb_net::{k_cliques, rank_cliques_by_cov, SiteGraph, WanModel};
use virtual_battery::vb_sched::{
    select_group, GreedyPolicy, GroupSim, GroupSimConfig, MipConfig, MipPolicy, PipelineConfig,
    Policy,
};
use virtual_battery::vb_stats::TimeSeries;
use virtual_battery::vb_trace::Catalog;

const SEED: u64 = 42;

#[test]
fn pipeline_selects_a_low_latency_complementary_group() {
    // Fig 6 steps 1-2 end to end: the selected group must be a real
    // clique of the 50 ms graph and steadier than its members.
    let catalog = Catalog::europe(SEED);
    let cfg = PipelineConfig::default();
    let names = select_group(&catalog, &cfg);
    assert_eq!(names.len(), cfg.k);

    let graph = SiteGraph::with_default_threshold(catalog.sites().to_vec());
    let ids: Vec<usize> = names
        .iter()
        .map(|n| {
            catalog
                .sites()
                .iter()
                .position(|s| &s.name == n)
                .expect("site exists")
        })
        .collect();
    assert!(graph.is_clique(&ids), "selected group must be a clique");
    assert!(graph.diameter_ms(&ids) < 50.0);

    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let group = MultiVb::from_catalog(&catalog, &refs, cfg.start_day, cfg.window_days);
    assert!(group.cov_improvement() > 1.0, "aggregation must help");
}

#[test]
fn scheduling_and_energy_views_agree_on_the_same_world() {
    // The VirtualBattery energy view and the GroupSim runtime must see
    // the same generated power for the same site and window.
    let catalog = Catalog::europe(SEED);
    let vb = VirtualBattery::from_catalog(&catalog, "UK-wind", 120, 2);
    let cfg = GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    };
    let sim = GroupSim::new(&catalog, &["UK-wind"], cfg).unwrap();
    assert_eq!(sim.n_steps(), vb.normalized().len() as u64);
}

#[test]
fn policies_share_identical_worlds_and_differ_only_in_decisions() {
    let catalog = Catalog::europe(SEED);
    let names = ["UK-wind", "PT-wind"];
    let cfg = GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    };

    // Same policy twice: identical output (the world is deterministic).
    let a = GroupSim::new(&catalog, &names, cfg.clone())
        .unwrap()
        .run(&mut GreedyPolicy::new());
    let b = GroupSim::new(&catalog, &names, cfg.clone())
        .unwrap()
        .run(&mut GreedyPolicy::new());
    assert_eq!(a.per_step_gb, b.per_step_gb);

    // A different policy produces a different trajectory over the same
    // arrivals (if it never differed, the comparison would be vacuous).
    let m = GroupSim::new(&catalog, &names, cfg)
        .unwrap()
        .run(&mut MipPolicy::new(MipConfig::mip_24h()));
    assert_eq!(m.per_step_gb.len(), a.per_step_gb.len());
    assert_ne!(m.per_step_gb, a.per_step_gb);
}

#[test]
fn clique_ranking_is_consistent_with_multivb_cov() {
    // vb-net's clique scores and vb-core's MultiVb must compute the same
    // combined cov for the same group.
    let catalog = Catalog::europe(SEED);
    let graph = SiteGraph::with_default_threshold(catalog.sites().to_vec());
    let traces: Vec<TimeSeries> = catalog
        .sites()
        .iter()
        .map(|s| {
            virtual_battery::vb_trace::generate_in(s, 90, 3, catalog.field()).scale(s.capacity_mw)
        })
        .collect();
    let ranked = rank_cliques_by_cov(&graph, &k_cliques(&graph, 2), &traces);
    let best = &ranked[0];
    let sites: Vec<_> = best
        .nodes
        .iter()
        .map(|&i| catalog.sites()[i].clone())
        .collect();
    let member_traces: Vec<TimeSeries> = best.nodes.iter().map(|&i| traces[i].clone()).collect();
    let group = MultiVb::new(sites, member_traces);
    assert!((group.cov() - best.cov).abs() < 1e-9);
}

#[test]
fn purchase_composes_with_decomposition() {
    // After applying the purchase plan, re-decomposing the (generation +
    // purchase) series must reproduce the plan's stable_after energy.
    let catalog = Catalog::europe(SEED);
    let group = MultiVb::from_catalog(&catalog, &["NO-solar", "UK-wind"], 90, 3);
    let combined = group.combined();
    let plan = optimize_purchase(&combined, WINDOW_3_DAYS, 2_000.0);

    let patched = TimeSeries {
        start_secs: combined.start_secs,
        interval_secs: combined.interval_secs,
        values: combined
            .values
            .iter()
            .zip(&plan.purchased_mw)
            .map(|(p, b)| p + b)
            .collect(),
    };
    let after = virtual_battery::vb_core::decompose(&patched, WINDOW_3_DAYS);
    assert!(
        (after.stable_mwh - plan.stable_after_mwh).abs() < 1e-6,
        "decompose({}) vs plan ({})",
        after.stable_mwh,
        plan.stable_after_mwh
    );
}

#[test]
fn cluster_migration_fits_the_wan_model() {
    // §5's headroom argument end-to-end: simulate a week and check the
    // WAN busy time stays in single digits of percent.
    let catalog = Catalog::europe(SEED);
    let power = catalog.trace("BE-wind", 122, 7);
    let out = virtual_battery::vb_cluster::simulate_paper_site(&power, SEED);
    let all: Vec<f64> = out
        .out_gb()
        .iter()
        .zip(out.in_gb().iter())
        .map(|(a, b)| a + b)
        .collect();
    let wan = WanModel::default();
    let busy = wan.busy_fraction(&all, 900.0);
    assert!(busy < 0.10, "site link busy {busy}");
}

// The example's WAN sizing, compiled here so the test reads the same
// rows the example prints.
#[path = "../examples/migration_planner.rs"]
#[allow(dead_code)]
mod migration_planner;

#[test]
fn migration_planner_link_sizing_is_pinned() {
    // `migration_planner`'s default series (BE-wind, 30 days from day
    // 60): worst transfer delay in intervals and largest backlog in GB,
    // as the example prints them at each link capacity.
    let catalog = Catalog::europe(SEED);
    let power = catalog.trace("BE-wind", 60, 30);
    let out = virtual_battery::vb_cluster::simulate_paper_site(&power, SEED);
    let all: Vec<f64> = out
        .out_gb()
        .iter()
        .zip(out.in_gb().iter())
        .map(|(a, b)| a + b)
        .collect();
    for (gbps, delay, backlog) in [
        (50.0, 6, "30639"),
        (100.0, 3, "25014"),
        (200.0, 1, "13764"),
        (400.0, 0, "0"),
    ] {
        let (_, max_backlog, worst_delay) = migration_planner::link_sizing(&all, gbps);
        assert_eq!(worst_delay, delay, "worst delay at {gbps} Gbps");
        assert_eq!(
            format!("{max_backlog:.0}"),
            backlog,
            "largest backlog at {gbps} Gbps"
        );
    }
}

#[test]
fn mip_policy_solves_exactly_throughout_a_run() {
    let catalog = Catalog::europe(SEED);
    let cfg = GroupSimConfig {
        days: 2,
        ..GroupSimConfig::default()
    };
    let mut policy = MipPolicy::new(MipConfig::mip());
    let _ = GroupSim::new(&catalog, &["UK-wind", "PT-wind", "NO-solar"], cfg)
        .unwrap()
        .run(&mut policy);
    assert_eq!(
        policy.stats().fallback_epochs,
        0,
        "no greedy fallbacks expected"
    );
}

#[test]
fn facade_reexports_are_usable() {
    // The root crate must expose the whole workspace.
    let _ = virtual_battery::vb_stats::mean(&[1.0, 2.0]);
    let _ = virtual_battery::vb_solver::Model::new(virtual_battery::vb_solver::Sense::Minimize);
    let catalog = virtual_battery::vb_trace::Catalog::europe(1);
    assert!(!catalog.is_empty());
    let _ = GreedyPolicy::new().name();
}
