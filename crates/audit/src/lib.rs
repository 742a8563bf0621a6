//! vb-audit: the workspace lint engine.
//!
//! A lexical analysis pipeline over every non-shim, non-test Rust
//! source in the workspace: the column-preserving scanner ([`scanner`])
//! strips comments, blanks string contents, and tracks `#[cfg(test)]`
//! extents; the token layer ([`tokens`]) lifts the code view into
//! identifiers/numbers/lifetimes/punctuation with nesting depths.
//!
//! The rules ([`rules`]) run on top: the per-line lexical lints, the
//! determinism family (`unordered-iter`, `wallclock-in-logic`,
//! `thread-derived`, `env-read`, `float-reduce-order`), which checks
//! every line of every library file (bench binaries only emit metrics),
//! the bidirectional manifest checks (`metric-name` / `dead-metric`),
//! and the suppression meta-rules (`allow-parse`, `stale-allow`). Run
//! it with:
//!
//! ```text
//! cargo run -p vb-audit -- --workspace [--format=text|json|github]
//! ```
//!
//! Exit status is non-zero when any finding survives suppression, so
//! the CI `audit` job is blocking (`-D` semantics).

pub mod manifest;
pub mod rules;
pub mod scanner;
pub mod tokens;

pub use manifest::Manifest;
pub use rules::{FileSpec, Finding, PreparedFile};

use std::path::{Path, PathBuf};

/// The lint engine: a parsed metrics manifest plus the rule set.
pub struct Engine {
    manifest: Manifest,
    check_dead_metrics: bool,
}

impl Engine {
    pub fn new(manifest: Manifest) -> Engine {
        Engine {
            manifest,
            check_dead_metrics: false,
        }
    }

    /// Enable the cross-file `dead-metric` rule (on for workspace
    /// audits; off by default so single-fixture runs do not see every
    /// unemitted manifest entry as dead).
    pub fn with_dead_metrics(mut self, on: bool) -> Engine {
        self.check_dead_metrics = on;
        self
    }

    /// Audit a single source text under the given label and spec.
    pub fn audit_source(&self, label: &str, src: &str, spec: FileSpec) -> Vec<Finding> {
        self.audit_sources(&[(label.to_string(), src.to_string(), spec)])
    }

    /// Audit a set of sources as one workspace, so the cross-file
    /// `dead-metric` rule sees the emissions of all of them.
    pub fn audit_sources(&self, sources: &[(String, String, FileSpec)]) -> Vec<Finding> {
        let files: Vec<PreparedFile> = sources
            .iter()
            .map(|(rel, src, spec)| PreparedFile::new(rel, src, *spec))
            .collect();
        rules::run_all(&files, &self.manifest, self.check_dead_metrics)
    }
}

/// Which path-scoped rules and sanctioned layers apply to a
/// workspace-relative path (forward-slash separated).
pub fn spec_for(rel: &str) -> FileSpec {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
    let no_panic = starts(&[
        "crates/sched/src/",
        "crates/cluster/src/",
        "crates/net/src/",
        "crates/core/src/",
        "crates/stats/src/",
    ]);
    let div_guard = rel == "crates/net/src/wan.rs" || rel.starts_with("crates/stats/src/");
    // Sanctioned layers: vb-telemetry owns wall-clock, vb-par owns
    // thread partitioning, and harness crates own env configuration.
    let telemetry = starts(&["crates/telemetry/src/"]);
    let par = starts(&["crates/par/src/"]);
    let bench_src = starts(&["crates/bench/src/"]);
    let bench_bin = rel.contains("/benches/");
    FileSpec {
        no_panic,
        div_guard,
        wallclock_ok: telemetry,
        env_ok: telemetry || par || bench_src || bench_bin,
        threads_ok: par,
        metric_only: bench_bin,
    }
}

/// Collect the workspace-relative paths of every scannable source file:
/// `src/**/*.rs` at the root, `crates/*/src/**/*.rs`, and
/// `crates/*/benches/*.rs` (bench binaries are metric emitters, so
/// `metric-name` and `dead-metric` see them). Shims, tests and examples
/// live outside those trees and are never visited.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
            let benches = member.join("benches");
            if benches.is_dir() {
                collect_rs(&benches, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audit the whole workspace rooted at `root`. Returns the surviving
/// findings (manifest problems included) or an I/O error message.
pub fn audit_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let manifest_path = root.join("metrics-manifest.toml");
    let mut findings = Vec::new();
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => match Manifest::parse(&text) {
            Ok(m) => m,
            Err(errors) => {
                for (line, message) in errors {
                    findings.push(Finding {
                        file: "metrics-manifest.toml".to_string(),
                        line,
                        lint: "metric-name",
                        message,
                    });
                }
                Manifest::default()
            }
        },
        Err(err) => return Err(format!("{}: {err}", manifest_path.display())),
    };

    let engine = Engine::new(manifest).with_dead_metrics(true);
    let mut sources = Vec::new();
    for path in workspace_sources(root).map_err(|e| e.to_string())? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec = spec_for(&rel);
        sources.push((rel, src, spec));
    }
    findings.extend(engine.audit_sources(&sources));
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(findings)
}
