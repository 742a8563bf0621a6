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
fn every_scanned_file_but_bench_binaries_is_checked_whole() {
    // The determinism family has one scope: every line of every scanned
    // file, so a module-level `HashMap` import is a finding wherever it
    // sits, the step cores included, with no path list naming them.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = Manifest::parse(FIXTURE_MANIFEST).expect("fixture manifest parses");
    let engine = Engine::new(manifest);
    let mut checked = Vec::new();
    for path in vb_audit::workspace_sources(&root).expect("workspace sources") {
        let rel = path
            .strip_prefix(&root)
            .expect("source under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let findings = engine.audit_source(
            &rel,
            "use std::collections::HashMap;\n",
            vb_audit::spec_for(&rel),
        );
        if rel.contains("/benches/") {
            assert_eq!(findings, [], "{rel} is a bench binary");
        } else {
            assert_eq!(lints(&findings), ["unordered-iter"], "{rel}");
            checked.push(rel);
        }
    }
    for rel in ["crates/sched/src/sim.rs", "crates/cluster/src/cluster.rs"] {
        assert!(checked.iter().any(|c| c == rel), "{rel} is scanned");
    }
}

// ---- determinism family ------------------------------------------------

#[test]
fn unordered_iter_positive() {
    // Every HashMap/HashSet token outside test code: both names in the
    // module-level `use`, a body, a signature and a helper nothing calls.
    let findings = audit("det_unordered_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["unordered-iter"; 6]);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [5, 5, 8, 15, 16, 24]);
    assert!(
        findings[0].message.contains("`HashMap`"),
        "message names the container: {}",
        findings[0]
    );
}

#[test]
fn unordered_iter_negative() {
    // BTreeMap, HashMap behind a reasoned allow, and HashMap in
    // #[cfg(test)] all pass — and the allow is used, so no stale-allow
    // either.
    let findings = audit("det_unordered_ok.rs", FileSpec::default());
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn wallclock_positive() {
    // The module-level `use`, Policy::plan and a helper nothing calls;
    // the read in test code passes.
    let findings = audit("det_wallclock_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["wallclock-in-logic"; 3]);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [5, 11, 19]);
}

#[test]
fn wallclock_sanctioned_layer_is_exempt() {
    // The same reads pass in the telemetry layer.
    let spec = FileSpec {
        wallclock_ok: true,
        ..FileSpec::default()
    };
    let findings = audit("det_wallclock_bad.rs", spec);
    assert_eq!(findings, [], "expected clean, got: {findings:#?}");
}

#[test]
fn env_read_positive() {
    // solve_mip_kernel and a helper nothing calls; the read in test
    // code passes.
    let findings = audit("det_env_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["env-read"; 2]);
    assert_eq!(findings[0].line, 6, "env::var inside solve_mip_kernel");
    assert_eq!(findings[1].line, 15, "env::var in the unreferenced helper");
}

#[test]
fn env_read_sanctioned_layer_is_exempt() {
    let spec = FileSpec {
        env_ok: true,
        ..FileSpec::default()
    };
    let findings = audit("det_env_bad.rs", spec);
    assert_eq!(findings, [], "env_ok exempts the layer: {findings:#?}");
}

#[test]
fn thread_derived_positive() {
    // Both worker-count sources fire: the available_parallelism import
    // and calls, and the env-var name (seen through the
    // string-preserving view). The probe in test code passes.
    let findings = audit("det_threads_bad.rs", FileSpec::default());
    assert_eq!(lints(&findings), ["thread-derived"; 4]);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [5, 13, 14, 21]);
}

#[test]
fn thread_derived_sanctioned_layer_is_exempt() {
    let spec = FileSpec {
        threads_ok: true,
        ..FileSpec::default()
    };
    let findings = audit("det_threads_bad.rs", spec);
    assert_eq!(findings, [], "threads_ok exempts the layer: {findings:#?}");
}

#[test]
fn float_reduce_order_positive() {
    // Accumulating into shared state inside any par_map closure
    // combines in completion order, which is non-associative.
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
fn stale_allow_skips_test_code_and_metric_only_files() {
    // The same directive inside #[cfg(test)] or a metric-only bench
    // binary is not reported: most rules never run there, so "the lint
    // no longer fires" carries no signal.
    let src =
        "#[cfg(test)]\nmod tests {\n    // vb-audit: allow(no-panic, fixture)\n    fn f() {}\n}\n";
    let manifest = Manifest::parse(FIXTURE_MANIFEST).expect("fixture manifest parses");
    let findings = Engine::new(manifest.clone()).audit_source("lib.rs", src, no_panic());
    assert_eq!(findings, [], "test-code allows are exempt: {findings:#?}");

    let spec = FileSpec {
        metric_only: true,
        ..FileSpec::default()
    };
    let src = "// vb-audit: allow(no-panic, fixture)\nfn f() { None::<u64>.unwrap(); }\n";
    let findings = Engine::new(manifest).audit_source("benches/fig.rs", src, spec);
    assert_eq!(findings, [], "metric-only allows are exempt: {findings:#?}");
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
