//! Quickstart: build a Virtual Battery, look at its energy, aggregate a
//! multi-VB group, and run the co-scheduler over a week.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vb_core::energy::WINDOW_3_DAYS;
use vb_core::{MultiVb, VirtualBattery};
use vb_sched::{GreedyPolicy, GroupSim, GroupSimConfig, MipConfig, MipPolicy};
use vb_trace::{Catalog, TRIO};

fn main() {
    // A catalog of synthetic European renewable sites sharing one
    // weather system (seeded -> fully reproducible).
    let catalog = Catalog::europe(42);

    // 1. One Virtual Battery: a renewable farm + co-located data center.
    let vb = VirtualBattery::from_catalog(&catalog, "UK-wind", 120, 7);
    let stats = vb.summary();
    println!("UK-wind, one week:");
    println!(
        "  mean output     : {:>5.1}% of nameplate",
        100.0 * stats.mean
    );
    println!("  variability cov : {:>5.2}", vb.cov());
    let split = vb.breakdown(WINDOW_3_DAYS);
    println!(
        "  energy split    : {:.0} MWh stable / {:.0} MWh variable",
        split.stable_mwh, split.variable_mwh
    );

    // 2. A multi-VB group: complementary sites flatten the variability.
    let group = MultiVb::from_catalog(&catalog, &TRIO, 120, 7);
    println!("\nNO-solar + UK-wind + PT-wind:");
    println!(
        "  combined cov    : {:.2} ({:.1}x steadier than the steadiest member)",
        group.cov(),
        group.cov_improvement()
    );
    let split = group.breakdown(WINDOW_3_DAYS);
    println!(
        "  stable fraction : {:.0}% (vs {:.0}% for UK-wind alone)",
        100.0 * split.stable_fraction(),
        100.0 * vb.breakdown(WINDOW_3_DAYS).stable_fraction()
    );

    // 3. Schedule applications across the group for a week: the greedy
    //    baseline vs the forecast-driven MIP co-scheduler.
    let cfg = GroupSimConfig::default();
    println!("\nscheduling one week of applications across the group…");
    let greedy = GroupSim::new(&catalog, &TRIO, cfg.clone())
        .expect("quickstart sites must exist in the catalog")
        .run(&mut GreedyPolicy::new());
    let mip = GroupSim::new(&catalog, &TRIO, cfg)
        .expect("quickstart sites must exist in the catalog")
        .run(&mut MipPolicy::new(MipConfig::mip()));
    for s in [&greedy, &mip] {
        println!(
            "  {:<8}: {:>7.0} GB migrated, peak {:>6.0} GB/15min, {:.0}% quiet intervals",
            s.policy,
            s.total_gb,
            s.peak_gb,
            100.0 * s.zero_fraction
        );
    }
    println!(
        "\nthe power- & network-aware MIP moved {:.0}% less data than greedy.",
        100.0 * (1.0 - mip.total_gb / greedy.total_gb)
    );
}
