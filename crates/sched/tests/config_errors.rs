//! Degenerate `GroupSimConfig`s and non-finite measured traces fail
//! `GroupSim::new` with a typed error, instead of panicking (`days = 0`
//! in `Summary::of`, `epoch_steps = 0` as a remainder by zero, a
//! subgraph member outside the group as an index out of bounds, an
//! `app_cfg` with a zero lifetime cap or an empty VM-count range on its
//! first arrival), hanging (a NaN `target_util` or trace sample sizes a
//! workload whose Poisson sampler never returned, and so did a NaN
//! arrival rate in an explicit `app_cfg`) or running on garbage (a NaN
//! lifetime median or σ gave every app a 0-step lifetime). Cases that
//! used to hang run on a worker thread under a wall-clock bound, so a
//! regression fails the test instead of stalling the suite.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use vb_sched::{AppGenConfig, GreedyPolicy, GroupSim, GroupSimConfig, SimError};
use vb_stats::TimeSeries;
use vb_trace::{Catalog, CoverageError, Site, INTERVAL_15M};

/// Generous for a two-day, one-site run; a hang never finishes.
const BOUND: Duration = Duration::from_secs(60);

fn small() -> GroupSimConfig {
    GroupSimConfig {
        cores_per_site: 400,
        days: 2,
        ..GroupSimConfig::default()
    }
}

/// Build the group and, if that succeeds, run it under Greedy, on a
/// worker thread; the construction error, or `None` for a finished run.
/// A worker still busy after [`BOUND`] fails the test (and is left
/// behind); a worker's panic is re-raised.
fn build_and_run(catalog: Catalog, cfg: GroupSimConfig) -> Option<SimError> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = GroupSim::new(&catalog, &["NO-solar"], cfg)
            .map(|sim| sim.run(&mut GreedyPolicy::new()))
            .err();
        tx.send(out).expect("the test waits for the result");
    });
    match rx.recv_timeout(BOUND) {
        Ok(out) => {
            worker.join().expect("the worker sent its result");
            out
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("GroupSim::new or the run did not finish within {BOUND:?}")
        }
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            worker
                .join()
                .expect_err("the worker dropped its sender by panicking"),
        ),
    }
}

fn config_field(err: Option<SimError>) -> &'static str {
    match err {
        Some(SimError::Config { field, .. }) => field,
        other => panic!("expected SimError::Config, got {other:?}"),
    }
}

#[test]
fn zero_days_is_a_config_error() {
    let cfg = GroupSimConfig { days: 0, ..small() };
    let err = GroupSim::new(&Catalog::europe(42), &["NO-solar"], cfg).err();
    assert_eq!(config_field(err), "days");
}

#[test]
fn zero_epoch_steps_is_a_config_error() {
    let cfg = GroupSimConfig {
        epoch_steps: 0,
        ..small()
    };
    let err = GroupSim::new(&Catalog::europe(42), &["NO-solar"], cfg).err();
    assert_eq!(config_field(err), "epoch_steps");
}

#[test]
fn target_util_outside_the_unit_interval_is_a_config_error() {
    for bad in [0.0, -0.5, 1.5, 5.0, f64::INFINITY, f64::NEG_INFINITY] {
        let cfg = GroupSimConfig {
            target_util: bad,
            ..small()
        };
        let err = GroupSim::new(&Catalog::europe(42), &["NO-solar"], cfg).err();
        assert_eq!(config_field(err), "target_util", "target_util {bad}");
    }
    // The edge of the interval is a valid target.
    let cfg = GroupSimConfig {
        target_util: 1.0,
        ..small()
    };
    assert!(GroupSim::new(&Catalog::europe(42), &["NO-solar"], cfg).is_ok());
}

#[test]
fn nan_target_util_fails_within_the_bound() {
    let cfg = GroupSimConfig {
        target_util: f64::NAN,
        ..small()
    };
    assert_eq!(
        config_field(build_and_run(Catalog::europe(42), cfg)),
        "target_util"
    );
}

#[test]
fn nan_measured_sample_fails_within_the_bound() {
    // Measured data for days 120–121 with one NaN at the start of day 121.
    let mut values = vec![0.4; 2 * 96];
    values[96] = f64::NAN;
    let data = TimeSeries::with_start(120 * 86_400, INTERVAL_15M, values);
    let catalog = Catalog::from_measured(vec![Site::solar("NO-solar", 60.0, 10.0)], vec![data], 42);
    assert_eq!(
        build_and_run(catalog, small()),
        Some(SimError::Coverage(CoverageError::NonFinite {
            site: "NO-solar".into(),
            offset: 96
        }))
    );
}

fn with_arrival_rate(rate: f64) -> GroupSimConfig {
    GroupSimConfig {
        app_cfg: Some(AppGenConfig {
            arrivals_per_step: rate,
            ..AppGenConfig::default()
        }),
        ..small()
    }
}

#[test]
fn nan_arrival_rate_fails_within_the_bound() {
    // A NaN rate used to spin forever in the Poisson sampler.
    assert_eq!(
        config_field(build_and_run(
            Catalog::europe(42),
            with_arrival_rate(f64::NAN)
        )),
        "app_cfg.arrivals_per_step"
    );
}

#[test]
fn negative_or_infinite_arrival_rate_is_a_config_error() {
    for bad in [-1.0, f64::INFINITY, f64::NEG_INFINITY] {
        let err = GroupSim::new(&Catalog::europe(42), &["NO-solar"], with_arrival_rate(bad)).err();
        assert_eq!(config_field(err), "app_cfg.arrivals_per_step", "rate {bad}");
    }
    // No arrivals at all is a valid (if idle) workload.
    let cfg = with_arrival_rate(0.0);
    assert!(GroupSim::new(&Catalog::europe(42), &["NO-solar"], cfg).is_ok());
}

fn with_apps(app: AppGenConfig) -> GroupSimConfig {
    GroupSimConfig {
        app_cfg: Some(app),
        ..small()
    }
}

/// The `SimError::Config` field `GroupSim::new` names for `app`, or
/// `None` when the group builds.
fn app_error(app: AppGenConfig) -> Option<&'static str> {
    GroupSim::new(&Catalog::europe(42), &["NO-solar"], with_apps(app))
        .err()
        .map(|err| config_field(Some(err)))
}

#[test]
fn zero_lifetime_cap_is_a_config_error() {
    // A zero cap used to panic in `f64::clamp` on the first arrival.
    let app = |max_lifetime_steps| AppGenConfig {
        max_lifetime_steps,
        ..AppGenConfig::default()
    };
    assert_eq!(app_error(app(0)), Some("app_cfg.max_lifetime_steps"));
    assert_eq!(app_error(app(1)), None);
}

#[test]
fn empty_vm_count_range_is_a_config_error() {
    // `vms_min > vms_max` used to panic in `gen_range` on the first
    // arrival.
    let app = |vms_min, vms_max| AppGenConfig {
        vms_min,
        vms_max,
        ..AppGenConfig::default()
    };
    assert_eq!(app_error(app(6, 5)), Some("app_cfg.vms_min"));
    assert_eq!(app_error(app(5, 5)), None);
}

#[test]
fn median_lifetime_that_is_not_finite_and_positive_is_a_config_error() {
    // A NaN median used to give every app a 0-step lifetime.
    for bad in [f64::NAN, 0.0, -144.0, f64::INFINITY] {
        let app = AppGenConfig {
            median_lifetime_steps: bad,
            ..AppGenConfig::default()
        };
        assert_eq!(
            app_error(app),
            Some("app_cfg.median_lifetime_steps"),
            "median {bad}"
        );
    }
}

#[test]
fn lifetime_sigma_that_is_not_finite_is_a_config_error() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let app = AppGenConfig {
            lifetime_sigma: bad,
            ..AppGenConfig::default()
        };
        assert_eq!(app_error(app), Some("app_cfg.lifetime_sigma"), "σ {bad}");
    }
    // A zero σ gives every app the median lifetime: valid.
    let app = AppGenConfig {
        lifetime_sigma: 0.0,
        ..AppGenConfig::default()
    };
    assert_eq!(app_error(app), None);
}

#[test]
fn out_of_range_subgraph_member_is_a_config_error() {
    // Site 7 of a 2-site group would panic mid-run, where re-hosting
    // indexes the group's site snapshots by subgraph member.
    let cfg = GroupSimConfig {
        subgraphs: Some(vec![vec![0, 7], vec![1]]),
        ..small()
    };
    let err = GroupSim::new(&Catalog::europe(42), &["NO-solar", "UK-wind"], cfg).err();
    assert_eq!(config_field(err), "subgraphs");
    // Every member in range is a valid structure.
    let cfg = GroupSimConfig {
        subgraphs: Some(vec![vec![0], vec![1]]),
        ..small()
    };
    assert!(GroupSim::new(&Catalog::europe(42), &["NO-solar", "UK-wind"], cfg).is_ok());
}
