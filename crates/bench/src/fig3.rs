//! Figure 3 — "Reducing variability in energy production by aggregating
//! multiple VB sites", plus the §2.3 pair-sweep and grid-purchase
//! statistics.
//!
//! * **Fig 3a**: the NO-solar / UK-wind / PT-wind stack over ~3 days,
//!   with cov reductions of 3.7× (adding UK wind) and a further ~2.3×
//!   (adding PT wind), and the purchased-energy fill of the worst gaps.
//! * **Fig 3b**: the stable/variable energy split of all 7 combinations
//!   (variable shares ≈ 100/65/91/62/83/32/33 % in the paper).
//! * **§2.3 pair statistic**: ">52 % of possible 2-site combinations
//!   improved cov by >50 %".
//! * **§2.3 purchase**: "purchasing an additional 4 000 MWh … a total
//!   additional 12 000 MWh of stable energy" (leverage 3×).

use vb_core::energy::WINDOW_3_DAYS;
use vb_core::multivb::ComboBreakdown;
use vb_core::{optimize_purchase, search_pairs, ComboStats, MultiVb, PurchasePlan};
use vb_stats::TimeSeries;
use vb_trace::{Catalog, TRIO};

/// Everything Figure 3 shows.
#[derive(Debug, Clone)]
pub struct Fig3Report {
    /// Per-site MW traces of the trio over the 3-day window (Fig 3a).
    pub stack: Vec<(String, TimeSeries)>,
    /// cov of NO-solar alone, NO+UK, NO+UK+PT.
    pub cov_no: f64,
    pub cov_no_uk: f64,
    pub cov_trio: f64,
    /// Energy split per combination (Fig 3b).
    pub combos: Vec<ComboBreakdown>,
    /// Pair-sweep statistics over the whole catalog.
    pub pair_stats: ComboStats,
    /// Grid-purchase plan on the trio (§2.3's 4 000 MWh experiment).
    pub purchase: PurchasePlan,
}

/// Generate the Figure 3 data over a 3-day early-spring window — like
/// the paper's hand-picked May 2015 days, a window where the trio's
/// complementarity is clearly visible (solar still weak in Norway,
/// Atlantic fronts crossing UK and Portugal out of phase).
pub fn run(seed: u64) -> Fig3Report {
    let catalog = Catalog::europe(seed);
    let start_day = 90;
    let days = 3;
    let group = MultiVb::from_catalog(&catalog, &TRIO, start_day, days);

    let traces = group.traces();
    let stack: Vec<(String, TimeSeries)> = group
        .sites()
        .iter()
        .zip(traces)
        .map(|(s, t)| (s.name.clone(), t.clone()))
        .collect();

    let no = MultiVb::new(vec![group.sites()[0].clone()], vec![traces[0].clone()]);
    let no_uk = MultiVb::new(group.sites()[..2].to_vec(), traces[..2].to_vec());

    let combos = group.subset_breakdowns(WINDOW_3_DAYS);
    let (_, pair_stats) = search_pairs(&catalog, start_day, days, 50.0);

    // §2.3: buy a small amount of grid energy to fill the worst gaps.
    // The paper buys 4 000 MWh against a trio producing ~30 000 MWh over
    // 3 days; we budget the same ~13 % of total energy.
    let combined = group.combined();
    let budget = combined.energy() * 0.13;
    let purchase = optimize_purchase(&combined, combined.len(), budget);

    Fig3Report {
        stack,
        cov_no: no.cov(),
        cov_no_uk: no_uk.cov(),
        cov_trio: group.cov(),
        combos,
        pair_stats,
        purchase,
    }
}

/// Print the figure's rows.
pub fn print(report: &Fig3Report) {
    println!("== Figure 3a: complementary generation (MW, 3-hour means) ==");
    print!("hour");
    for (name, _) in &report.stack {
        print!("  {name:>9}");
    }
    println!();
    let coarse: Vec<TimeSeries> = report.stack.iter().map(|(_, t)| t.downsample(12)).collect();
    for i in 0..coarse[0].len() {
        print!("{:>4}", i * 3);
        for t in &coarse {
            print!("  {:>9.1}", t.values[i]);
        }
        println!();
    }

    println!("\ncov(NO solar)            = {:.2}", report.cov_no);
    println!(
        "cov(NO + UK wind)        = {:.2}  ({:.1}x reduction) [paper: 3.7x]",
        report.cov_no_uk,
        report.cov_no / report.cov_no_uk
    );
    println!(
        "cov(NO + UK + PT wind)   = {:.2}  (further {:.1}x)    [paper: 2.3x]",
        report.cov_trio,
        report.cov_no_uk / report.cov_trio
    );

    println!("\n== Figure 3b: stable vs variable energy ==");
    println!("combination  stable(MWh)  variable(MWh)  %variable [paper]");
    let paper_pct = [
        ("NO", 100),
        ("UK", 65),
        ("PT", 91),
        ("NO+UK", 62),
        ("NO+PT", 83),
        ("UK+PT", 32),
        ("NO+UK+PT", 33),
    ];
    for c in &report.combos {
        let paper = paper_pct
            .iter()
            .find(|(l, _)| *l == c.label)
            .map(|(_, p)| format!("{p}%"))
            .unwrap_or_default();
        println!(
            "{:<11}  {:>11.0}  {:>13.0}  {:>8.0}%  [{paper}]",
            c.label,
            c.breakdown.stable_mwh,
            c.breakdown.variable_mwh,
            100.0 * c.breakdown.variable_fraction()
        );
    }

    println!(
        "\n== §2.3 pair sweep ({} pairs < 50 ms) ==",
        report.pair_stats.pairs
    );
    println!(
        "pairs improving cov by >50%: {:.0}%  [paper: >52%]",
        100.0 * report.pair_stats.improved_50pct_fraction
    );
    println!(
        "median improvement: {:.1}x; best pair: {}",
        report.pair_stats.median_improvement,
        report
            .pair_stats
            .best
            .as_ref()
            .map(|b| format!("{}+{} ({:.1}x)", b.a, b.b, b.improvement))
            .unwrap_or_default()
    );

    println!("\n== §2.3 grid purchase ==");
    println!(
        "purchased {:.0} MWh -> +{:.0} MWh stable (stabilized {:.0} MWh of variable energy; leverage {:.1}x) [paper: 4,000 -> +12,000; 3x]",
        report.purchase.purchased_mwh,
        report.purchase.stable_gain_mwh(),
        report.purchase.stabilized_variable_mwh(),
        report.purchase.leverage()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_reduces_cov_stepwise() {
        let r = run(42);
        assert!(r.cov_no > r.cov_no_uk, "adding UK wind helps");
        assert!(r.cov_no_uk > r.cov_trio, "adding PT wind helps further");
        // Both aggregation steps should be substantial factors (the
        // paper's hand-picked window shows 3.7x and 2.3x).
        assert!(r.cov_no / r.cov_no_uk > 1.5, "{}", r.cov_no / r.cov_no_uk);
        assert!(
            r.cov_no_uk / r.cov_trio > 1.3,
            "{}",
            r.cov_no_uk / r.cov_trio
        );
    }

    #[test]
    fn combos_cover_all_seven_subsets() {
        let r = run(42);
        assert_eq!(r.combos.len(), 7);
        // The trio's variable share must be far below NO solar alone.
        let find = |label: &str| {
            r.combos
                .iter()
                .find(|c| c.label == label)
                .expect("combo present")
                .breakdown
                .variable_fraction()
        };
        assert!(find("NO") > 0.9, "solar alone is almost all variable");
        assert!(find("NO+UK+PT") < find("NO"));
        assert!(find("NO+UK+PT") < find("NO+UK"));
    }

    #[test]
    fn purchase_has_leverage() {
        let r = run(42);
        assert!(r.purchase.leverage() > 1.0);
        assert!(r.purchase.stable_gain_mwh() > 0.0);
    }
}
