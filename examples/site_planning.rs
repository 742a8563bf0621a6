//! Site planning: given a catalog of candidate renewable sites, find the
//! multi-VB groups worth building — the §2.3 / Fig 6 "subgraph
//! identification" workflow, plus the grid-purchase analysis.
//!
//! ```sh
//! cargo run --release --example site_planning
//! ```

use vb_core::energy::WINDOW_3_DAYS;
use vb_core::{optimize_purchase, search_pairs, MultiVb};
use vb_net::{k_cliques, rank_cliques_by_cov, SiteGraph};
use vb_stats::TimeSeries;
use vb_trace::Catalog;

fn main() {
    let catalog = Catalog::europe(7);
    let start_day = 90;
    let days = 3;

    // --- Which pairs complement each other? (§2.3's sweep) ---
    let (mut pairs, stats) = search_pairs(&catalog, start_day, days, 50.0);
    pairs.sort_by(|a, b| b.improvement.partial_cmp(&a.improvement).expect("finite"));
    println!(
        "pair sweep: {} pairs within 50 ms; {:.0}% improve cov by >50%",
        stats.pairs,
        100.0 * stats.improved_50pct_fraction
    );
    println!("top 5 complementary pairs:");
    for p in pairs.iter().take(5) {
        println!(
            "  {:<10} + {:<10}  cov {:.2} -> {:.2}  ({:.1}x, {:.0} ms apart)",
            p.a, p.b, p.worst_single_cov, p.combined_cov, p.improvement, p.rtt_ms
        );
    }

    // --- The best k-cliques of the 50 ms site graph (Fig 6 step 1) ---
    let graph = SiteGraph::with_default_threshold(catalog.sites().to_vec());
    let traces: Vec<TimeSeries> = catalog
        .traces(start_day, days)
        .iter()
        .zip(catalog.sites())
        .map(|(t, s)| t.scale(s.capacity_mw))
        .collect();
    println!("\nbest multi-VB groups per clique size:");
    for k in 2..=5 {
        let ranked = rank_cliques_by_cov(&graph, &k_cliques(&graph, k), &traces);
        if let Some(best) = ranked.first() {
            let names: Vec<&str> = best
                .nodes
                .iter()
                .map(|&i| catalog.sites()[i].name.as_str())
                .collect();
            println!(
                "  k={k}: {:<45} cov {:.2}, diameter {:.0} ms",
                names.join(" + "),
                best.cov,
                best.diameter_ms
            );
        }
    }

    // --- How much would a small grid purchase stabilize the best trio? ---
    let ranked = rank_cliques_by_cov(&graph, &k_cliques(&graph, 3), &traces);
    let best = &ranked[0];
    let names: Vec<&str> = best
        .nodes
        .iter()
        .map(|&i| catalog.sites()[i].name.as_str())
        .collect();
    let group = MultiVb::from_catalog(&catalog, &names, start_day, days);
    let combined = group.combined();
    let before = group.breakdown(WINDOW_3_DAYS);
    println!(
        "\nbest trio {}: {:.0} MWh stable / {:.0} MWh variable",
        names.join("+"),
        before.stable_mwh,
        before.variable_mwh
    );
    for budget_pct in [5.0, 10.0, 20.0] {
        let budget = combined.energy() * budget_pct / 100.0;
        let plan = optimize_purchase(&combined, combined.len(), budget);
        println!(
            "  buy {:>5.0} MWh ({budget_pct:>2.0}% of generation) -> +{:>6.0} MWh stable (leverage {:.1}x)",
            plan.purchased_mwh,
            plan.stable_gain_mwh(),
            plan.leverage()
        );
    }
}
