//! Extension experiments: the paper's *arguments* (as opposed to its
//! figures) made measurable.
//!
//! * **§1 / motivation** — chemical batteries vs multi-VB: how many MWh
//!   of Li-ion storage a single site needs to match the stable-energy
//!   share that aggregating three sites provides for free.
//! * **§2.1 economics** — transmission savings, curtailment capture, and
//!   the revenue uplift of aggregation under the stable-vs-spot price
//!   split.
//! * **§3 replication vs migration** — the hot/cold standby alternative:
//!   continuous smooth traffic and doubled capacity vs bursty on-demand
//!   migration.
//! * **§5 energy accounting** — how much energy migrations add, and how
//!   much of the farm's energy the site actually harvests.

use vb_cluster::{energy_report, simulate_paper_site, PowerModel};
use vb_core::energy::WINDOW_3_DAYS;
use vb_core::{decompose, required_capacity_for_stable_fraction, EconomicModel, MultiVb};
use vb_net::WanModel;
use vb_sched::{GreedyPolicy, GroupSim, GroupSimConfig, ReplicationModel, StandbyMode};
use vb_stats::report::{thousands, Table};
use vb_trace::{Catalog, TRIO};

fn battery_vs_multivb(catalog: &Catalog) {
    println!("== §1: chemical battery vs multi-VB aggregation ==");
    let group = MultiVb::from_catalog(catalog, &TRIO, 90, 7);
    let combined = decompose(&group.combined(), WINDOW_3_DAYS);
    println!(
        "multi-VB trio stable share: {:.0}% of {:.0} MWh (no storage at all)",
        100.0 * combined.stable_fraction(),
        combined.total_mwh()
    );

    let mut t = Table::new(&[
        "Site",
        "Own stable %",
        "Li-ion MWh to match trio",
        "% of 3-day gen",
    ]);
    for (i, site) in group.sites().iter().enumerate() {
        let trace = &group.traces()[i];
        let own = decompose(trace, WINDOW_3_DAYS);
        let needed =
            required_capacity_for_stable_fraction(trace, WINDOW_3_DAYS, combined.stable_fraction());
        let (cap, pct) = match needed {
            Some(c) => (thousands(c), format!("{:.0}%", 100.0 * c / trace.energy())),
            None => ("unreachable".to_string(), "-".to_string()),
        };
        t.row(&[
            site.name.clone(),
            format!("{:.0}%", 100.0 * own.stable_fraction()),
            cap,
            pct,
        ]);
    }
    print!("{}", t.render());
    println!("(the paper: US grid battery capacity is ~0.4% of solar+wind capacity — nowhere near these numbers)\n");
}

fn economics(catalog: &Catalog) {
    println!("== §2.1: the economic case ==");
    let model = EconomicModel::default();
    println!(
        "transmission savings: {:.0}% of total opex  [paper: ~10% = 20% x 50%]",
        100.0 * model.transmission_savings_fraction()
    );

    let group = MultiVb::from_catalog(catalog, &TRIO, 90, 7);
    let generated = group.combined().energy();
    println!(
        "curtailment capture: {:.0} MWh/week on the trio ({:.0}% of generation)  [paper: up to 6%]",
        model.curtailment_capture_mwh(generated),
        100.0 * model.curtailment_fraction
    );

    let members: Vec<_> = group
        .traces()
        .iter()
        .map(|t| decompose(t, WINDOW_3_DAYS))
        .collect();
    let combined = group.breakdown(WINDOW_3_DAYS);
    println!(
        "aggregation revenue uplift: {:.2}x (same energy, more of it stable; spot at {:.0}% of stable price)",
        model.aggregation_uplift(&members, &combined),
        100.0 * model.spot_price_ratio
    );
    println!();
}

fn replication_vs_migration(catalog: &Catalog) {
    println!("== §3: replication vs migration for stable apps ==");
    let cfg = GroupSimConfig::default();
    let run = GroupSim::new(catalog, &TRIO, cfg)
        .expect("benchmark sites must exist in the catalog")
        .run_detailed(&mut GreedyPolicy::new());

    let mut t = Table::new(&[
        "Mechanism",
        "Total (GB)",
        "Peak (GB/15min)",
        "Capacity overhead",
    ]);
    t.row(&[
        "Migration (measured)".into(),
        thousands(run.summary.total_gb),
        thousands(run.summary.peak_gb),
        "0%".into(),
    ]);
    for (label, model) in [
        ("Hot standby (Remus-style)", ReplicationModel::default()),
        (
            "Cold standby (hourly ckpt)",
            ReplicationModel {
                mode: StandbyMode::Cold,
                checkpoint_interval_steps: 4,
                ..ReplicationModel::default()
            },
        ),
    ] {
        let r = model.evaluate(&run);
        t.row(&[
            label.into(),
            thousands(r.total_gb),
            thousands(r.peak_gb),
            format!("{:.0}%", 100.0 * r.capacity_overhead),
        ]);
    }
    print!("{}", t.render());
    println!("(migration is bursty but rare; continuous replication is smooth but moves far more data and doubles hot capacity — the §3 trade-off)\n");
}

fn energy_accounting(catalog: &Catalog) {
    println!("== §5: energy accounting of a VB site ==");
    let power = catalog.trace("BE-wind", 122, 7);
    let out = simulate_paper_site(&power, vb_bench::DEFAULT_SEED);
    let model = PowerModel::default();
    let report = energy_report(&model, &out.steps, 28_000, 900.0);
    println!(
        "available {:.1} MWh, used {:.1} MWh ({:.0}% harvested)",
        report.available_mwh,
        report.used_mwh,
        100.0 * report.utilization
    );

    // Migration energy: bytes moved over the WAN at ~25 GB/s per 200 Gbps
    // link; NIC+switch draw while active ≈ a few kW.
    let wan = WanModel::default();
    let total_gb: f64 = out.out_gb().iter().chain(out.in_gb().iter()).sum();
    let busy_hours = wan.drain_secs(total_gb) / 3_600.0;
    let wan_mwh = busy_hours * 5e-3; // ~5 kW of transport gear at full rate
    println!(
        "migration energy: {:.1} TB moved -> link busy {:.1} h -> ~{:.3} MWh ({:.4}% of used)  [paper: negligible vs up-to-50% transmission loss]",
        total_gb / 1_000.0,
        busy_hours,
        wan_mwh,
        100.0 * wan_mwh / report.used_mwh.max(1e-9)
    );
}

fn main() {
    let run = vb_bench::report::BenchRun::start("extensions");
    let catalog = Catalog::europe(vb_bench::DEFAULT_SEED);
    battery_vs_multivb(&catalog);
    economics(&catalog);
    replication_vs_migration(&catalog);
    energy_accounting(&catalog);
    run.finish();
}
