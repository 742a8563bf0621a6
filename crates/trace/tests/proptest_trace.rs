//! Property tests for the trace generators and serialization.

use proptest::prelude::*;
use vb_stats::TimeSeries;
use vb_trace::io::{dataset_from_csv, dataset_to_csv};
use vb_trace::{forecast_for, generate_in, Catalog, Horizon, Site, SourceKind, WeatherField};

type SeriesBits = (u64, u64, Vec<u64>);

/// A series' sample bits, so equality is bit-for-bit (`-0.0 != 0.0`).
fn bits(ts: &TimeSeries) -> SeriesBits {
    let values = ts.values.iter().map(|v| v.to_bits()).collect();
    (ts.start_secs, ts.interval_secs, values)
}

/// 1–6 fleet-site indices, one of them listed twice.
fn arb_group() -> impl Strategy<Value = Vec<usize>> {
    (proptest::collection::vec(0usize..24, 1..6), 0usize..6).prop_map(|(mut picks, dup)| {
        picks.push(picks[dup % picks.len()]);
        picks
    })
}

/// A start day that is day 0 a quarter of the time: the drivers'
/// warm-up then reaches negative sample indices.
fn arb_start_day() -> impl Strategy<Value = u32> {
    (0u32..4, 0u32..365).prop_map(|(coin, day)| if coin == 0 { 0 } else { day })
}

fn arb_site() -> impl Strategy<Value = Site> {
    (
        36.0..66.0f64,
        -10.0..26.0f64,
        proptest::bool::ANY,
        "[a-z]{3,8}",
    )
        .prop_map(|(lat, lon, solar, name)| {
            if solar {
                Site::solar(&name, lat, lon)
            } else {
                Site::wind(&name, lat, lon)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_is_always_normalized(site in arb_site(), start in 0u32..360, seed in 0u64..50) {
        let field = WeatherField::new(seed);
        let t = generate_in(&site, start, 2, &field);
        prop_assert_eq!(t.len(), 2 * 96);
        for &v in &t.values {
            prop_assert!((0.0..=1.0).contains(&v), "out of range: {v}");
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn windows_are_consistent_across_start_days(site in arb_site(), start in 1u32..200) {
        // Generating [start, start+2) must agree with the tail of
        // [start-1, start+2): same absolute days, same values.
        let field = WeatherField::new(7);
        let long = generate_in(&site, start - 1, 3, &field);
        let short = generate_in(&site, start, 2, &field);
        for i in 0..short.len() {
            prop_assert!((long.values[96 + i] - short.values[i]).abs() < 1e-9,
                "mismatch at {i}");
        }
    }

    #[test]
    fn solar_sites_are_dark_at_local_midnight(lat in 40.0..60.0f64, lon in -8.0..20.0f64, seed in 0u64..20) {
        let site = Site::solar("s", lat, lon);
        let field = WeatherField::new(seed);
        let t = generate_in(&site, 172, 1, &field); // summer solstice
        // Local solar midnight sample: hour ≈ 24 - lon/15.
        let midnight_hour = (24.0 - lon / 15.0) % 24.0;
        let idx = ((midnight_hour * 4.0) as usize) % 96;
        prop_assert_eq!(t.values[idx], 0.0);
    }

    #[test]
    fn forecasts_stay_normalized_and_aligned(site in arb_site(), seed in 0u64..20) {
        let field = WeatherField::new(seed);
        let actual = generate_in(&site, 100, 3, &field);
        for h in Horizon::all() {
            let f = forecast_for(&actual, &site, h, &field);
            prop_assert_eq!(f.len(), actual.len());
            prop_assert_eq!(f.interval_secs, actual.interval_secs);
            for &v in &f.values {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn group_synthesis_matches_one_site_synthesis(
        group in arb_group(),
        start in arb_start_day(),
        days in 1u32..=10,
        seed in 0u64..50,
    ) {
        let catalog = Catalog::fleet(seed, 24);
        let group_bits = |catalog: &Catalog, start: u32| -> Vec<Vec<SeriesBits>> {
            catalog
                .group_series(&group, start, days, Horizon::all())
                .expect("synthetic sites cover every window")
                .iter()
                .map(|s| std::iter::once(&s.actual).chain(&s.forecasts).map(bits).collect())
                .collect()
        };
        // On a fresh thread, whose anchor memo is empty.
        let series = std::thread::scope(|s| {
            s.spawn(|| group_bits(&catalog, start)).join().expect("group on a fresh thread")
        });
        prop_assert_eq!(series.len(), group.len());
        for (&i, s) in group.iter().zip(&series) {
            let site = &catalog.sites()[i];
            let alone = generate_in(site, start, days, catalog.field());
            prop_assert_eq!(&s[0], &bits(&alone), "{} trace", site.name);
            for (f, h) in s[1..].iter().zip(Horizon::all()) {
                let lone = forecast_for(&alone, site, h, catalog.field());
                prop_assert_eq!(f, &bits(&lone), "{} {:?} forecast", site.name, h);
            }
        }

        // The same call after the thread's memo was filled by other work.
        let site = &catalog.sites()[group[0]];
        let other_seed = Catalog::fleet(seed + 50, 24);
        let warmers: [(&str, &dyn Fn()); 4] = [
            ("another seed", &|| {
                group_bits(&other_seed, start);
            }),
            ("window 288 samples later", &|| {
                group_bits(&catalog, start + 3);
            }),
            ("forecast-error windows", &|| {
                let actual = generate_in(site, start, days, catalog.field());
                for h in Horizon::all() {
                    forecast_for(&actual, site, h, catalog.field());
                }
            }),
            ("replaced held windows", &|| {
                group_bits(&catalog, start);
                generate_in(site, start + 1, 1, catalog.field());
            }),
        ];
        for (name, warm) in warmers {
            warm();
            prop_assert_eq!(&group_bits(&catalog, start), &series, "after {}", name);
        }
    }

    #[test]
    fn csv_roundtrip_is_lossless_to_printed_precision(
        values in proptest::collection::vec(0.0..1.0f64, 1..100),
        start in 0u64..10_000,
    ) {
        let ts = TimeSeries::with_start(start * 900, 900, values);
        let site = Site::wind("UK-wind", 53.5, -1.0);
        let csv = dataset_to_csv(std::slice::from_ref(&site), std::slice::from_ref(&ts));
        let (sites, traces) = dataset_from_csv(&csv).unwrap();
        prop_assert_eq!(sites, vec![site]);
        prop_assert_eq!(traces.len(), 1);
        let parsed = &traces[0];
        prop_assert_eq!(parsed.start_secs, ts.start_secs);
        prop_assert_eq!(parsed.interval_secs, ts.interval_secs);
        prop_assert_eq!(parsed.len(), ts.len());
        for (a, b) in ts.values.iter().zip(&parsed.values) {
            prop_assert!((a - b).abs() < 1e-6, "CSV keeps 6 decimals");
        }
    }

    #[test]
    fn distance_satisfies_triangle_inequality(a in arb_site(), b in arb_site(), c in arb_site()) {
        let ab = a.distance_km(&b);
        let bc = b.distance_km(&c);
        let ac = a.distance_km(&c);
        prop_assert!(ac <= ab + bc + 1e-6, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn rtt_is_symmetric(a in arb_site(), b in arb_site()) {
        prop_assert!((a.rtt_ms(&b) - b.rtt_ms(&a)).abs() < 1e-9);
    }
}

#[test]
fn regression_window_consistency_at_first_day() {
    // Pinned from `proptest_trace.proptest-regressions` (the offline
    // proptest stand-in does not read that file): a wind site queried at
    // start = 1 overlaps the first generated day, where the look-back
    // window for [start-1, ...) begins at absolute day 0.
    let site = Site::wind("aaa", 36.0, 0.0);
    let field = WeatherField::new(7);
    let long = generate_in(&site, 0, 3, &field);
    let short = generate_in(&site, 1, 2, &field);
    for i in 0..short.len() {
        assert!(
            (long.values[96 + i] - short.values[i]).abs() < 1e-9,
            "mismatch at {i}"
        );
    }
}

#[test]
fn catalog_sites_have_distinct_stream_ids() {
    let catalog = Catalog::europe(1);
    let mut ids: Vec<u64> = catalog.sites().iter().map(|s| s.stream_id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), catalog.len(), "stream ids must be unique");
}

#[test]
fn solar_and_wind_sites_use_their_models() {
    // A solar site must have zero samples (night); a wind site must not
    // have solar's >50% zero share.
    let catalog = Catalog::europe(3);
    for site in catalog.sites() {
        let t = catalog.trace(&site.name, 0, 10);
        let zeros = t.values.iter().filter(|&&v| v == 0.0).count() as f64 / t.len() as f64;
        match site.kind {
            SourceKind::Solar => assert!(zeros > 0.3, "{} zeros {zeros}", site.name),
            SourceKind::Wind => assert!(zeros < 0.3, "{} zeros {zeros}", site.name),
        }
    }
}
