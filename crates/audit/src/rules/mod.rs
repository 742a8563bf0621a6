//! Rule orchestration: prepared files in, surviving findings out.
//!
//! Individual rule families emit *raw* findings ([`lexical`] for the
//! per-line lints, [`determinism`] for the determinism family); this
//! module owns everything cross-cutting:
//!
//! * **suppression** — `// vb-audit: allow(lint, reason)` directives
//!   filter matching findings on their target line, and each use is
//!   recorded;
//! * **`stale-allow`** — a well-formed directive that suppressed
//!   nothing is itself a finding, so suppressions cannot outlive their
//!   reason;
//! * **`allow-parse`** — malformed directives and directives naming an
//!   unknown lint are unsuppressable findings;
//! * **`dead-metric`** — the reverse direction of `metric-name`: every
//!   manifest entry must have at least one emission site somewhere in
//!   the scanned workspace (library sources and bench binaries), so
//!   the manifest cannot rot. Suppressable with a
//!   `# vb-audit: allow(dead-metric, reason)` directive in the
//!   manifest itself.

pub mod determinism;
pub mod lexical;

use crate::manifest::Manifest;
use crate::scanner::{self, Scanned};
use crate::tokens::{self, Tok};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Lint names a directive may suppress.
pub const KNOWN_LINTS: &[&str] = &[
    "no-panic",
    "float-cmp",
    "horizon-literal",
    "metric-name",
    "div-guard",
    "unordered-iter",
    "wallclock-in-logic",
    "thread-derived",
    "env-read",
    "float-reduce-order",
    "dead-metric",
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    /// 1-based.
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Which rules apply to a file, and which sanctioned layers it belongs
/// to. See [`crate::spec_for`] for the path mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileSpec {
    /// `no-panic` (library code of the instrumented crates).
    pub no_panic: bool,
    /// `div-guard` (`vb-net::wan` and `vb-stats`).
    pub div_guard: bool,
    /// Sanctioned wall-clock layer (`vb-telemetry`).
    pub wallclock_ok: bool,
    /// Sanctioned env configuration (`vb-par`, `vb-telemetry`, the
    /// bench harness).
    pub env_ok: bool,
    /// Sanctioned thread-count layer (`vb-par`): worker counts may
    /// partition work here.
    pub threads_ok: bool,
    /// Checked by `metric-name` only, and its emissions count for
    /// `dead-metric` (bench binaries).
    pub metric_only: bool,
}

/// One scanned + tokenized source, ready for the rule passes.
pub struct PreparedFile {
    pub rel: String,
    pub spec: FileSpec,
    pub scanned: Scanned,
    pub toks: Vec<Tok>,
}

impl PreparedFile {
    pub fn new(rel: &str, src: &str, spec: FileSpec) -> PreparedFile {
        let scanned = scanner::scan(src);
        let toks = tokens::tokenize(&scanned);
        PreparedFile {
            rel: rel.to_string(),
            spec,
            scanned,
            toks,
        }
    }
}

/// Run every rule over the prepared files and return the surviving,
/// sorted findings. `check_dead_metrics` enables the cross-file
/// manifest-coverage rule (on for workspace audits, off for
/// single-fixture runs, which would see almost every metric as dead).
pub fn run_all(
    files: &[PreparedFile],
    manifest: &Manifest,
    check_dead_metrics: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let mut raw = lexical::run(file, manifest);
        if !file.spec.metric_only {
            raw.extend(determinism::run(file));
        }
        findings.extend(apply_allows(file, raw));
    }

    if check_dead_metrics {
        findings.extend(dead_metrics(files, manifest));
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}

/// Filter raw findings through the file's allow directives, reporting
/// malformed/unknown directives and stale allows.
fn apply_allows(file: &PreparedFile, raw: Vec<Finding>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Malformed allow directives are hard errors.
    for err in &file.scanned.errors {
        findings.push(Finding {
            file: file.rel.clone(),
            line: err.line,
            lint: "allow-parse",
            message: err.message.clone(),
        });
    }

    // Directives naming an unknown lint are errors too (typos would
    // otherwise silently fail to suppress).
    let mut allowed: BTreeMap<usize, BTreeSet<&'static str>> = BTreeMap::new();
    for allow in &file.scanned.allows {
        match KNOWN_LINTS.iter().find(|l| **l == allow.lint) {
            Some(lint) => {
                allowed.entry(allow.line).or_default().insert(lint);
            }
            None => findings.push(Finding {
                file: file.rel.clone(),
                line: allow.line,
                lint: "allow-parse",
                message: format!("allow directive names unknown lint `{}`", allow.lint),
            }),
        }
    }

    let mut used: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for finding in raw {
        if allowed
            .get(&finding.line)
            .is_some_and(|set| set.contains(finding.lint))
        {
            used.insert((finding.line, finding.lint));
        } else {
            findings.push(finding);
        }
    }

    // Stale allows: a directive that suppressed nothing. Directives
    // targeting `#[cfg(test)]` lines are exempt (rules skip test code
    // wholesale), as are metric-only files (most rules do not run).
    if !file.spec.metric_only {
        for (line, lints) in &allowed {
            let in_test = file
                .scanned
                .lines
                .get(line.saturating_sub(1))
                .is_some_and(|l| l.in_test);
            if in_test {
                continue;
            }
            for lint in lints {
                if !used.contains(&(*line, lint)) {
                    findings.push(Finding {
                        file: file.rel.clone(),
                        line: *line,
                        lint: "stale-allow",
                        message: format!(
                            "allow({lint}, …) suppresses nothing on this line; the lint no longer fires — remove the directive or fix the reason"
                        ),
                    });
                }
            }
        }
    }

    findings
}

/// The reverse manifest check: every declared metric needs at least one
/// emission site in the scanned workspace.
fn dead_metrics(files: &[PreparedFile], manifest: &Manifest) -> Vec<Finding> {
    let mut emitted: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    for file in files {
        for site in lexical::metric_call_sites(&file.scanned) {
            if !site.in_test {
                emitted.entry(site.kind).or_default().insert(site.name);
            }
        }
    }

    let mut findings = Vec::new();
    let mut used_allows: BTreeSet<usize> = BTreeSet::new();
    for (kind, names) in &manifest.kinds {
        for name in names {
            if emitted
                .get(kind.as_str())
                .is_some_and(|set| set.contains(name))
            {
                continue;
            }
            let line = manifest.line_of(kind, name).unwrap_or(0);
            if manifest.allows_dead_metric(line) {
                used_allows.insert(line);
                continue;
            }
            findings.push(Finding {
                file: "metrics-manifest.toml".to_string(),
                line,
                lint: "dead-metric",
                message: format!(
                    "metric `{name}` ([{kind}]) has no emission site in the scanned workspace; remove the entry or add `# vb-audit: allow(dead-metric, reason)`"
                ),
            });
        }
    }

    // Stale manifest allows, same contract as in source files.
    for allow in &manifest.allows {
        if allow.lint == "dead-metric" && !used_allows.contains(&allow.line) {
            findings.push(Finding {
                file: "metrics-manifest.toml".to_string(),
                line: allow.line,
                lint: "stale-allow",
                message: "allow(dead-metric, …) suppresses nothing: the metric on this line has an emission site".to_string(),
            });
        }
    }
    findings
}
