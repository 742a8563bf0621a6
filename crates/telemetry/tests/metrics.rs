//! Metric primitive semantics: counter saturation, concurrent updates,
//! histogram bucket boundaries, and span aggregation.
//!
//! Metric names are unique per test: the registry is process-global and
//! the test harness runs tests concurrently in one process.

use vb_telemetry::{counter, float_counter, histogram, span};

#[test]
fn counter_counts_and_saturates() {
    let c = counter!("test.counter.basic");
    assert_eq!(c.get(), 0);
    c.inc();
    c.add(41);
    assert_eq!(c.get(), 42);

    let s = counter!("test.counter.saturating");
    s.add(u64::MAX - 1);
    s.add(5);
    assert_eq!(s.get(), u64::MAX, "must saturate, not wrap");
    s.inc();
    assert_eq!(s.get(), u64::MAX);
}

#[test]
fn call_sites_with_the_same_name_share_a_metric() {
    fn bump() {
        counter!("test.counter.shared").inc();
    }
    counter!("test.counter.shared").inc();
    bump();
    bump();
    assert_eq!(counter!("test.counter.shared").get(), 3);
}

#[test]
fn concurrent_increments_are_not_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    counter!("test.counter.concurrent").inc();
                    float_counter!("test.float.concurrent").add(0.5);
                }
            });
        }
    });
    assert_eq!(
        counter!("test.counter.concurrent").get(),
        (THREADS * PER_THREAD) as u64
    );
    let total = float_counter!("test.float.concurrent").get();
    assert!(
        (total - THREADS as f64 * PER_THREAD as f64 * 0.5).abs() < 1e-9,
        "float accumulation lost updates: {total}"
    );
}

#[test]
fn float_sums_do_not_depend_on_the_order_of_their_terms() {
    // f64 addition is not associative: these terms summed left to right
    // and right to left differ, and both lose digits to the 1e10 pair.
    let terms: [f64; 9] = [0.1, 1e10, 0.2, -1e10, 0.3, 7.123_456_789, 1e-7, 0.75, 0.75];
    let forward = terms.iter().fold(0.0, |s, &t| s + t);
    let backward = terms.iter().rev().fold(0.0, |s, &t| s + t);
    assert_ne!(
        forward.to_bits(),
        backward.to_bits(),
        "terms must expose order"
    );

    static BOUNDS: [f64; 1] = [1.0];
    for &t in &terms {
        float_counter!("test.float.forward").add(t);
        histogram!("test.hist.forward", &BOUNDS).observe(t);
    }
    for &t in terms.iter().rev() {
        float_counter!("test.float.backward").add(t);
        histogram!("test.hist.backward", &BOUNDS).observe(t);
    }
    let a = float_counter!("test.float.forward").get();
    let b = float_counter!("test.float.backward").get();
    assert_eq!(a.to_bits(), b.to_bits());
    let exact = 0.1 + 0.2 + 0.3 + 7.123_456_789 + 1e-7 + 1.5;
    assert!((a - exact).abs() < 1e-12, "{a} vs {exact}");
    let snap = vb_telemetry::snapshot();
    let h = |name| snap.histogram(name).expect("registered").sum;
    assert_eq!(h("test.hist.forward").to_bits(), a.to_bits());
    assert_eq!(h("test.hist.backward").to_bits(), a.to_bits());

    // Carries out of the low word, and negative totals.
    let c = float_counter!("test.float.carry");
    for _ in 0..4 {
        c.add(0.75);
    }
    assert_eq!(c.get(), 3.0);
    c.add(-3.5);
    assert_eq!(c.get(), -0.5);
}

#[test]
fn histogram_buckets_use_inclusive_upper_bounds() {
    static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];
    let h = histogram!("test.hist.bounds", &BOUNDS);
    h.observe(0.5); // <= 1.0        -> bucket 0
    h.observe(1.0); // == bound      -> bucket 0 (inclusive upper bound)
    h.observe(1.0000001); //          -> bucket 1
    h.observe(10.0); //               -> bucket 1
    h.observe(99.9); //               -> bucket 2
    h.observe(1e6); // overflow       -> bucket 3

    let snap = vb_telemetry::snapshot();
    let hist = snap.histogram("test.hist.bounds").expect("registered");
    assert_eq!(hist.bounds, vec![1.0, 10.0, 100.0]);
    assert_eq!(hist.counts, vec![2, 2, 1, 1]);
    assert_eq!(hist.count, 6);
    assert_eq!(hist.min, 0.5);
    assert_eq!(hist.max, 1e6);
    assert!((hist.sum - (0.5 + 1.0 + 1.0000001 + 10.0 + 99.9 + 1e6)).abs() < 1e-6);
}

#[test]
fn histogram_observations_survive_concurrency() {
    static BOUNDS: [f64; 2] = [10.0, 1000.0];
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..1_000 {
                    histogram!("test.hist.concurrent", &BOUNDS).observe((t * i) as f64);
                }
            });
        }
    });
    let snap = vb_telemetry::snapshot();
    let hist = snap.histogram("test.hist.concurrent").expect("registered");
    assert_eq!(hist.count, 4_000);
    assert_eq!(hist.counts.iter().sum::<u64>(), 4_000);
    assert_eq!(hist.min, 0.0);
    assert_eq!(hist.max, 3.0 * 999.0);
}

#[test]
fn spans_aggregate_across_nesting_and_threads() {
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let _outer = span!("test.span.outer");
                for _ in 0..5 {
                    let _inner = span!("test.span.inner");
                    std::hint::black_box(());
                }
            });
        }
    });
    let snap = vb_telemetry::snapshot();
    let outer = snap.span("test.span.outer").expect("outer merged");
    let inner = snap.span("test.span.inner").expect("inner merged");
    assert_eq!(outer.count, 3);
    assert_eq!(inner.count, 15);
    assert!(outer.min_ns <= outer.max_ns);
    assert!(outer.total_ns >= outer.max_ns);
    assert!(
        inner.mean_ns() <= outer.mean_ns(),
        "inner spans nest inside outer"
    );
}
