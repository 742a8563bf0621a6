//! Fixture suite: one positive and one negative case per lint, plus
//! allow-directive parsing. Fixtures live under `tests/fixtures/` and
//! are audited as text — they are never compiled.

use vb_audit::{Engine, FileSpec, Finding, Manifest};

const FIXTURE_MANIFEST: &str = r#"
[counters]
"fixture.ticks" = "ticks"
"fixture.undeclared_elsewhere" = "red herring"
"solver.ftran_nnz" = "FTRAN result nonzeros"
"solver.btran_nnz" = "BTRAN result nonzeros"
"solver.refactorizations" = "basis refactorizations"
"solver.eta_updates" = "eta updates"
"solver.steepest_resets" = "steepest-edge weight resets"

[float_counters]
"fixture.volume_gb" = "volume"
"fixture.level" = "level"

[histograms]
"fixture.latency_ms" = "latency"

[spans]
"fixture.step" = "step"

[events]
"fixture.done" = "done"

[series]
"fixture.step_series" = "per-step series"
"#;

fn audit(name: &str, spec: FileSpec) -> Vec<Finding> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let src = std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    let manifest = Manifest::parse(FIXTURE_MANIFEST).expect("fixture manifest parses");
    Engine::new(manifest).audit_source(name, &src, spec)
}

fn lints(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
}

fn no_panic() -> FileSpec {
    FileSpec {
        no_panic: true,
        ..FileSpec::default()
    }
}

fn div_guard() -> FileSpec {
    FileSpec {
        div_guard: true,
        ..FileSpec::default()
    }
}

#[test]
fn no_panic_positive() {
    let findings = audit("no_panic_bad.rs", no_panic());
    assert_eq!(lints(&findings), ["no-panic"; 5]);
    assert_eq!(findings[0].line, 4, "unwrap");
    assert_eq!(findings[1].line, 8, "expect");
    assert_eq!(findings[2].line, 12, "panic!");
    assert_eq!(findings[3].line, 16, "unwrap on an identifier");
    assert_eq!(findings[4].line, 20, "expect on an identifier");
}

#[test]
fn no_panic_negative() {
    // unwrap_or, strings, allowed lines and #[cfg(test)] bodies all pass.
    let findings = audit("no_panic_ok.rs", no_panic());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn float_cmp_positive() {
    let findings = audit("float_cmp_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["float-cmp"]);
    assert_eq!(findings[0].line, 4);
}

#[test]
fn float_cmp_negative() {
    // total_cmp call sites and a `fn partial_cmp` definition are clean.
    let findings = audit("float_cmp_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn horizon_literal_positive() {
    let findings = audit("horizon_bad.rs", FileSpec::default());
    assert_eq!(
        lints(&findings),
        ["horizon-literal", "horizon-literal", "horizon-literal"]
    );
    assert_eq!(findings[0].line, 4, "96");
    assert_eq!(findings[1].line, 8, "672");
    assert_eq!(findings[2].line, 12, "96.0");
}

#[test]
fn horizon_literal_negative() {
    // The const definitions themselves and 960/1672/9.6 are clean.
    let findings = audit("horizon_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn metric_name_positive() {
    let findings = audit("metric_bad.rs", FileSpec::default());
    assert_eq!(
        lints(&findings),
        ["metric-name", "metric-name", "metric-name"]
    );
    assert!(
        findings[0].message.contains("fixture.undeclared"),
        "undeclared counter: {}",
        findings[0]
    );
    assert!(
        findings[1].message.contains("fixture.level"),
        "float counter used as histogram: {}",
        findings[1]
    );
    assert!(
        findings[2].message.contains("BadName"),
        "non-dot.snake name: {}",
        findings[2]
    );
}

#[test]
fn metric_name_negative() {
    let findings = audit("metric_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn solver_counter_names_positive() {
    let findings = audit("solver_metric_bad.rs", FileSpec::default());
    assert_eq!(
        lints(&findings),
        ["metric-name", "metric-name", "metric-name"]
    );
    assert!(
        findings[0].message.contains("solver.ftran_nzz"),
        "typo'd counter is undeclared: {}",
        findings[0]
    );
    assert!(
        findings[1].message.contains("solver.eta_updates"),
        "counter used as histogram: {}",
        findings[1]
    );
    assert!(
        findings[2].message.contains("solver.steepestResets"),
        "non-dot.snake name: {}",
        findings[2]
    );
}

#[test]
fn solver_counter_names_negative() {
    let findings = audit("solver_metric_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn span_name_positive() {
    let findings = audit("span_bad.rs", FileSpec::default());
    assert_eq!(
        lints(&findings),
        ["metric-name", "metric-name", "metric-name"]
    );
    assert_eq!(findings[0].line, 6, "undeclared span");
    assert!(
        findings[0].message.contains("fixture.undeclared_span"),
        "undeclared span: {}",
        findings[0]
    );
    assert_eq!(findings[1].line, 7, "span name used as a series");
    assert!(
        findings[1].message.contains("[series]"),
        "kind mismatch names the expected kind: {}",
        findings[1]
    );
    assert_eq!(findings[2].line, 8, "non-dot.snake span");
    assert!(
        findings[2].message.contains("FixtureStep"),
        "non-dot.snake span name: {}",
        findings[2]
    );
}

#[test]
fn span_name_negative() {
    // Declared span and series names, plus a span call inside a string
    // literal that must not register as a call site.
    let findings = audit("span_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn div_guard_positive() {
    let findings = audit("div_bad.rs", div_guard());
    assert_eq!(lints(&findings), ["div-guard"]);
    assert_eq!(findings[0].line, 5);
}

#[test]
fn div_guard_negative() {
    // Guarded divisions, literal denominators and a reasoned allow.
    let findings = audit("div_ok.rs", div_guard());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn malformed_allow_directives_are_findings_and_do_not_suppress() {
    let findings = audit("allow_bad.rs", no_panic());
    // Each malformed directive: one allow-parse finding, and the
    // violation beneath it still fires. The final comment is not a
    // recognised directive shape at all, so it too is an allow-parse
    // error rather than silently ignored prose.
    let parse_errors: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == "allow-parse")
        .collect();
    let violations: Vec<&Finding> = findings.iter().filter(|f| f.lint == "no-panic").collect();
    assert_eq!(parse_errors.len(), 4, "{findings:#?}");
    assert_eq!(violations.len(), 4, "{findings:#?}");
    assert!(
        parse_errors[0].message.contains("reason"),
        "missing reason names the problem: {}",
        parse_errors[0]
    );
}

#[test]
fn div_guard_lint_is_path_scoped() {
    // The same unguarded division passes when the file is outside the
    // div-guard scope.
    let findings = audit("div_bad.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn no_panic_lint_is_path_scoped() {
    let findings = audit("no_panic_bad.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn no_panic_covers_the_hot_path_crates_and_vb_stats() {
    for rel in [
        "crates/sched/src/sim.rs",
        "crates/cluster/src/cluster.rs",
        "crates/net/src/wan.rs",
        "crates/core/src/fleet.rs",
        "crates/stats/src/summary.rs",
    ] {
        assert!(vb_audit::spec_for(rel).no_panic, "{rel} is in scope");
    }
    for rel in [
        "crates/stats/tests/proptest_stats.rs",
        "crates/solver/src/branch.rs",
    ] {
        assert!(!vb_audit::spec_for(rel).no_panic, "{rel} is out of scope");
    }
}

#[test]
fn the_step_cores_are_deterministic_core_files() {
    // No taint root reaches `GroupSim`'s step core (the index does not
    // resolve `run_fleet`'s cross-crate `sim.run(policy)`), so the
    // determinism family checks it only through this whole-file scope.
    for rel in ["crates/sched/src/sim.rs", "crates/cluster/src/cluster.rs"] {
        assert!(
            vb_audit::spec_for(rel).det_core,
            "{rel} is deterministic core"
        );
    }
}

// ---- determinism family ------------------------------------------------

#[test]
fn unordered_iter_positive() {
    // `run_fleet` is a taint root; `helper` is reachable through the
    // call edge. `unreached_scratch` and the module-level `use` line
    // are outside every tainted extent, so they stay clean.
    let findings = audit("det_unordered_bad.rs", FileSpec::default());
    assert_eq!(
        lints(&findings),
        ["unordered-iter", "unordered-iter", "unordered-iter"]
    );
    assert_eq!(findings[0].line, 7, "HashMap::new in run_fleet");
    assert_eq!(findings[1].line, 14, "HashMap in helper's signature");
    assert_eq!(findings[2].line, 15, "HashSet in helper's body");
    assert!(
        findings[0].message.contains("run_fleet"),
        "message names the tainted function: {}",
        findings[0]
    );
}

#[test]
fn unordered_iter_negative() {
    // BTreeMap in the entry point, HashMap behind a reasoned allow,
    // HashMap in an unreached helper and in #[cfg(test)] all pass —
    // and the allow is used, so no stale-allow either.
    let findings = audit("det_unordered_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn unordered_iter_det_core_flags_module_level() {
    // In a deterministic-core crate the rule covers the whole file:
    // the `use` line and the unreached helper are findings too.
    let spec = FileSpec {
        det_core: true,
        ..FileSpec::default()
    };
    let findings = audit("det_unordered_bad.rs", spec);
    let module_level: Vec<&Finding> = findings.iter().filter(|f| f.line == 4).collect();
    assert_eq!(module_level.len(), 2, "use line flags both containers");
    assert!(
        module_level[0].message.contains("module level"),
        "{}",
        module_level[0]
    );
    assert!(
        findings.iter().any(|f| f.line == 23),
        "unreached helper is in scope under det_core: {findings:#?}"
    );
}

#[test]
fn wallclock_positive() {
    let findings = audit("det_wallclock_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["wallclock-in-logic"]);
    assert_eq!(findings[0].line, 7, "Instant::now inside Policy::plan");
}

#[test]
fn wallclock_negative_unreached_helper() {
    let findings = audit("det_wallclock_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn wallclock_sanctioned_layer_is_exempt() {
    // The same Instant::now passes in the telemetry layer.
    let spec = FileSpec {
        wallclock_ok: true,
        ..FileSpec::default()
    };
    let findings = audit("det_wallclock_bad.rs", spec);
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn env_read_positive() {
    let findings = audit("det_env_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["env-read"]);
    assert_eq!(findings[0].line, 5, "env::var inside solve_mip_kernel");
}

#[test]
fn env_read_negative_and_sanctioned() {
    let findings = audit("det_env_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
    let spec = FileSpec {
        env_ok: true,
        ..FileSpec::default()
    };
    let findings = audit("det_env_bad.rs", spec);
    assert_eq!(findings, [], "env_ok exempts the layer: {findings:#?}");
}

#[test]
fn thread_derived_positive() {
    // Both worker-count sources fire inside GroupSim::step: the
    // available_parallelism call and the env-var name (seen through
    // the string-preserving view).
    let findings = audit("det_threads_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["thread-derived", "thread-derived"]);
    assert_eq!(findings[0].line, 10, "available_parallelism");
    assert_eq!(findings[1].line, 11, "worker-count env var");
}

#[test]
fn thread_derived_negative_and_sanctioned() {
    let findings = audit("det_threads_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
    let spec = FileSpec {
        threads_ok: true,
        ..FileSpec::default()
    };
    let findings = audit("det_threads_bad.rs", spec);
    assert_eq!(findings, [], "threads_ok exempts the layer: {findings:#?}");
}

#[test]
fn float_reduce_order_positive() {
    // Taint-independent: accumulating into shared state inside any
    // par_map closure is non-associative regardless of reachability.
    let findings = audit("det_float_reduce_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["float-reduce-order"]);
    assert_eq!(findings[0].line, 8, "fetch_add inside the closure");
    assert!(
        findings[0].message.contains("par_map"),
        "message names the combinator: {}",
        findings[0]
    );
}

#[test]
fn float_reduce_order_sees_owned_item_maps() {
    let findings = audit("det_float_reduce_owned_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["float-reduce-order"]);
    assert_eq!(findings[0].line, 8, "lock inside the closure");
    assert!(
        findings[0].message.contains("`par_map`"),
        "message names the combinator: {}",
        findings[0]
    );
}

#[test]
fn float_reduce_order_negative() {
    let findings = audit("det_float_reduce_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn cross_crate_taint_flags_unordered_iter() {
    // run_fleet in crate `a` calls vb_b::helper; the HashMap inside
    // crate `b` is flagged only when both files are indexed together.
    let a = "pub fn run_fleet(n: u64) -> u64 {\n    vb_b::helper(n)\n}\n";
    let b = "pub fn helper(n: u64) -> u64 {\n    let mut m = std::collections::HashMap::new();\n    m.insert(n, n);\n    m.len() as u64\n}\n";
    let manifest = Manifest::parse(FIXTURE_MANIFEST).expect("fixture manifest parses");
    let engine = Engine::new(manifest);

    let alone = engine.audit_source("crates/b/src/lib.rs", b, FileSpec::default());
    assert_eq!(alone, [], "helper alone is unreached: {alone:#?}");

    let together = engine.audit_sources(&[
        (
            "crates/a/src/lib.rs".to_string(),
            a.to_string(),
            FileSpec::default(),
        ),
        (
            "crates/b/src/lib.rs".to_string(),
            b.to_string(),
            FileSpec::default(),
        ),
    ]);
    assert_eq!(lints(&together), ["unordered-iter"], "{together:#?}");
    assert_eq!(together[0].file, "crates/b/src/lib.rs");
    assert_eq!(together[0].line, 2);
}

// ---- suppression meta-rules --------------------------------------------

#[test]
fn stale_allow_positive() {
    // A well-formed allow whose lint never fires is itself a finding,
    // reported at the line the directive targets.
    let findings = audit("stale_allow_bad.rs", no_panic());
    assert_eq!(lints(&findings), ["stale-allow"]);
    assert_eq!(findings[0].line, 6);
    assert!(
        findings[0].message.contains("no-panic"),
        "message names the stale lint: {}",
        findings[0]
    );
}

#[test]
fn stale_allow_skips_test_code_and_index_only_files() {
    // The same directive inside #[cfg(test)] or an index-only bench
    // binary is not reported: most rules never run there, so "the lint
    // no longer fires" carries no signal.
    let src =
        "#[cfg(test)]\nmod tests {\n    // vb-audit: allow(no-panic, fixture)\n    fn f() {}\n}\n";
    let manifest = Manifest::parse(FIXTURE_MANIFEST).expect("fixture manifest parses");
    let findings = Engine::new(manifest.clone()).audit_source("lib.rs", src, no_panic());
    assert_eq!(findings, [], "test-code allows are exempt: {findings:#?}");

    let spec = FileSpec {
        index_only: true,
        ..FileSpec::default()
    };
    let src = "// vb-audit: allow(no-panic, fixture)\nfn f() { None::<u64>.unwrap(); }\n";
    let findings = Engine::new(manifest).audit_source("benches/fig.rs", src, spec);
    assert_eq!(findings, [], "index-only allows are exempt: {findings:#?}");
}

// ---- dead-metric -------------------------------------------------------

const DEAD_METRIC_MANIFEST: &str = r#"
[counters]
"fixture.ticks" = "ticks"
"fixture.orphan" = "never emitted"
# vb-audit: allow(dead-metric, retained for the dashboard until the next schema rev)
"fixture.parked" = "declared dead on purpose"
"#;

#[test]
fn dead_metric_positive_with_manifest_allow() {
    // `fixture.orphan` has no emission site; `fixture.parked` is dead
    // too but carries a manifest allow; `fixture.ticks` is emitted.
    let manifest = Manifest::parse(DEAD_METRIC_MANIFEST).expect("manifest parses");
    let src = "pub fn run_fleet() {\n    vb_telemetry::counter!(\"fixture.ticks\", 1);\n}\n";
    let findings = Engine::new(manifest).with_dead_metrics(true).audit_source(
        "lib.rs",
        src,
        FileSpec::default(),
    );
    assert_eq!(lints(&findings), ["dead-metric"], "{findings:#?}");
    assert_eq!(findings[0].file, "metrics-manifest.toml");
    assert_eq!(findings[0].line, 4, "points at the declaration line");
    assert!(
        findings[0].message.contains("fixture.orphan"),
        "{}",
        findings[0]
    );
}

#[test]
fn dead_metric_sees_multiline_and_test_emissions_correctly() {
    // A call whose name sits on the line after the opening paren still
    // counts as an emission; one inside #[cfg(test)] does not.
    let manifest = Manifest::parse(DEAD_METRIC_MANIFEST).expect("manifest parses");
    let src = "pub fn run_fleet() {\n    vb_telemetry::counter!(\n        \"fixture.ticks\",\n        1,\n    );\n    vb_telemetry::counter!(\"fixture.orphan\", 1);\n}\n";
    let findings = Engine::new(manifest.clone())
        .with_dead_metrics(true)
        .audit_source("lib.rs", src, FileSpec::default());
    assert_eq!(findings, [], "both metrics emitted: {findings:#?}");

    let src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        vb_telemetry::counter!(\"fixture.orphan\", 1);\n    }\n}\npub fn run_fleet() {\n    vb_telemetry::counter!(\"fixture.ticks\", 1);\n}\n";
    let findings = Engine::new(manifest).with_dead_metrics(true).audit_source(
        "lib.rs",
        src,
        FileSpec::default(),
    );
    assert_eq!(
        lints(&findings),
        ["dead-metric"],
        "a test-only emission does not keep a metric alive: {findings:#?}"
    );
}

#[test]
fn dead_metric_manifest_allow_goes_stale() {
    // When the parked metric gains an emission site, its manifest
    // allow suppresses nothing and is reported as stale.
    let manifest = Manifest::parse(DEAD_METRIC_MANIFEST).expect("manifest parses");
    let src = "pub fn run_fleet() {\n    vb_telemetry::counter!(\"fixture.ticks\", 1);\n    vb_telemetry::counter!(\"fixture.orphan\", 1);\n    vb_telemetry::counter!(\"fixture.parked\", 1);\n}\n";
    let findings = Engine::new(manifest).with_dead_metrics(true).audit_source(
        "lib.rs",
        src,
        FileSpec::default(),
    );
    assert_eq!(lints(&findings), ["stale-allow"], "{findings:#?}");
    assert_eq!(findings[0].file, "metrics-manifest.toml");
    assert_eq!(findings[0].line, 6, "points at the allowed entry");
}

#[test]
fn dead_metric_off_by_default() {
    // Single-fixture runs would see almost every manifest entry as
    // dead; the rule only arms via with_dead_metrics(true).
    let manifest = Manifest::parse(DEAD_METRIC_MANIFEST).expect("manifest parses");
    let findings =
        Engine::new(manifest).audit_source("lib.rs", "pub fn f() {}\n", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}
