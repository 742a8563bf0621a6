//! Parser for `metrics-manifest.toml`.
//!
//! The manifest is valid TOML but the audit tool only understands (and
//! only needs) a flat subset, parsed by hand since the workspace has no
//! registry access:
//!
//! ```toml
//! [counters]
//! "solver.pivots" = "total simplex pivots across all solves"
//!
//! [histograms]
//! "solver.nnz" = "nonzeros in the LP constraint matrix"
//! ```
//!
//! Section names are the metric kinds (`counters`, `float_counters`,
//! `histograms`, `spans`, `events`, `series`); keys are the declared
//! metric names. Every telemetry call site in the workspace must name a
//! metric declared under the matching kind.

use std::collections::{BTreeMap, BTreeSet};

/// A parsed `# vb-audit: allow(lint, reason)` directive inside the
/// manifest (the only lint that fires on manifest lines is
/// `dead-metric`).
#[derive(Debug, Clone)]
pub struct ManifestAllow {
    /// 1-based line the suppression applies to.
    pub line: usize,
    pub lint: String,
    #[allow(dead_code)]
    pub reason: String,
}

/// The metric kinds the telemetry layer exposes.
pub const KINDS: &[&str] = &[
    "counters",
    "float_counters",
    "histograms",
    "spans",
    "events",
    "series",
];

/// Parsed manifest: kind → set of declared metric names, plus the
/// declaration line of every entry (for `dead-metric` findings) and
/// any `#`-comment allow directives.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    pub kinds: BTreeMap<String, BTreeSet<String>>,
    /// `(kind, name)` → 1-based declaration line.
    pub lines: BTreeMap<(String, String), usize>,
    pub allows: Vec<ManifestAllow>,
}

impl Manifest {
    /// True when `name` is declared under `kind`.
    pub fn declares(&self, kind: &str, name: &str) -> bool {
        self.kinds.get(kind).is_some_and(|set| set.contains(name))
    }

    /// Declaration line of a manifest entry.
    pub fn line_of(&self, kind: &str, name: &str) -> Option<usize> {
        self.lines
            .get(&(kind.to_string(), name.to_string()))
            .copied()
    }

    /// True when a `dead-metric` allow directive targets this line.
    pub fn allows_dead_metric(&self, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.line == line && a.lint == "dead-metric")
    }

    /// Parse the manifest text. Returns the manifest or a list of
    /// line-numbered parse errors.
    pub fn parse(text: &str) -> Result<Manifest, Vec<(usize, String)>> {
        let mut manifest = Manifest::default();
        let mut errors = Vec::new();
        let mut section: Option<String> = None;

        for (lineno0, raw) in text.lines().enumerate() {
            let lineno = lineno0 + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            // Allow directives live in `#` comments; a directive on a
            // comment-only line applies to the next line, an inline one
            // to its own. Malformed directives are parse errors.
            let comment = raw.split_once('#').map_or("", |x| x.1);
            if let Some(pos) = comment.find("vb-audit:") {
                let rest = comment[pos + "vb-audit:".len()..].trim();
                match crate::scanner::parse_allow(rest) {
                    Ok((lint, reason)) => {
                        if lint != "dead-metric" {
                            errors.push((
                                lineno,
                                format!(
                                    "only dead-metric can be allowed in the manifest, not `{lint}`"
                                ),
                            ));
                        } else {
                            manifest.allows.push(ManifestAllow {
                                line: if line.is_empty() { lineno + 1 } else { lineno },
                                lint,
                                reason,
                            });
                        }
                    }
                    Err(message) => errors.push((lineno, message)),
                }
            }
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim();
                if !KINDS.contains(&name) {
                    errors.push((lineno, format!("unknown metric kind `[{name}]`")));
                    section = None;
                    continue;
                }
                section = Some(name.to_string());
                manifest.kinds.entry(name.to_string()).or_default();
                continue;
            }
            let Some((key, _value)) = line.split_once('=') else {
                errors.push((
                    lineno,
                    format!("expected `\"name\" = \"description\"`, got `{line}`"),
                ));
                continue;
            };
            let key = key.trim().trim_matches('"').trim();
            let Some(section) = section.as_ref() else {
                errors.push((
                    lineno,
                    format!("metric `{key}` declared outside any [kind] section"),
                ));
                continue;
            };
            if key.is_empty() {
                errors.push((lineno, "empty metric name".to_string()));
                continue;
            }
            if !is_dot_snake(key) {
                errors.push((lineno, format!("metric name `{key}` is not dot.snake")));
                continue;
            }
            let set = manifest.kinds.entry(section.clone()).or_default();
            if !set.insert(key.to_string()) {
                errors.push((lineno, format!("duplicate metric `{key}` in [{section}]")));
            }
            manifest
                .lines
                .insert((section.clone(), key.to_string()), lineno);
        }
        if errors.is_empty() {
            Ok(manifest)
        } else {
            Err(errors)
        }
    }
}

/// `dot.snake`: at least two lowercase/digit/underscore segments joined
/// by single dots.
pub fn is_dot_snake(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}
