//! Golden digests of trace and forecast synthesis.
//!
//! Every trace, and every forecast the scheduler plans against, comes
//! out of the weather field's AR(1) drivers, so the synthesis engine
//! must stay bit-identical across refactors and performance work. Each
//! constant below is an FNV-1a hash over the bit patterns of a site's
//! actual trace and its 3-hour, day-ahead and week-ahead forecasts,
//! folded over a whole site set in catalog order. They were recorded
//! with the one-stream-at-a-time AR(1) filter, before draws were shared
//! between the sites of a group. A mismatch means some sample moved,
//! not just a changed speed.

use vb_stats::TimeSeries;
use vb_trace::{forecast_for, generate_in, Catalog, Horizon, Site};

const SEED: u64 = 42;

/// FNV-1a over 64-bit words, byte by byte (little-endian).
fn fnv1a(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fold_series(h: &mut u64, series: &TimeSeries) {
    fnv1a(
        h,
        [series.start_secs, series.interval_secs, series.len() as u64],
    );
    fnv1a(h, series.values.iter().map(|v| v.to_bits()));
}

/// Digest of `generate_in` plus the three `forecast_for` outputs of each
/// site over `[start_day, start_day + days)`.
fn one_site_digest(catalog: &Catalog, sites: &[Site], start_day: u32, days: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for site in sites {
        let actual = generate_in(site, start_day, days, catalog.field());
        assert_eq!(actual.len(), days as usize * vb_trace::STEPS_PER_DAY);
        fold_series(&mut h, &actual);
        for horizon in Horizon::all() {
            fold_series(
                &mut h,
                &forecast_for(&actual, site, horizon, catalog.field()),
            );
        }
    }
    h
}

#[test]
fn europe_table1_window_matches_golden_digest() {
    let catalog = Catalog::europe(SEED);
    assert_eq!(
        one_site_digest(&catalog, catalog.sites(), 120, 7),
        0x5f3d_8bc7_321a_fd90,
        "Europe days 120-127 digest"
    );
}

#[test]
fn europe_figure4_window_matches_golden_digest() {
    let catalog = Catalog::europe(SEED);
    assert_eq!(
        one_site_digest(&catalog, catalog.sites(), 60, 90),
        0x79dc_1fdd_eeea_e68f,
        "Europe days 60-150 digest"
    );
}

#[test]
fn fleet_shards_match_golden_digests() {
    let catalog = Catalog::fleet(SEED, 9);
    let digests: Vec<u64> = catalog
        .sites()
        .chunks(3)
        .map(|shard| one_site_digest(&catalog, shard, 120, 84))
        .collect();
    assert_eq!(
        digests,
        [
            0xad22_7f98_cb8f_eaf1,
            0x42a5_e3f4_e4a6_72d1,
            0xee31_d108_d883_ce1d
        ],
        "fleet shard digests"
    );
}
