//! The per-line lexical rules (the original PR 5/6 lint set).
//!
//! | lint              | rule                                                        |
//! |-------------------|-------------------------------------------------------------|
//! | `no-panic`        | no `.unwrap()` / `.expect(` / `panic!` in library code of   |
//! |                   | sched, cluster, net, core and stats                         |
//! | `float-cmp`       | no `.partial_cmp(` — float ordering must use `total_cmp`    |
//! | `horizon-literal` | no naked `96` / `672` outside the `STEPS_PER_DAY` /         |
//! |                   | `DAY_AHEAD_STEPS` definitions                               |
//! | `metric-name`     | telemetry metric names are `dot.snake` and declared in      |
//! |                   | `metrics-manifest.toml` under the matching kind             |
//! | `div-guard`       | float divisions in `vb-net::wan` and `vb-stats` carry a     |
//! |                   | visible degenerate-denominator guard                        |
//!
//! These rules emit *raw* findings; suppression (`allow` directives)
//! and stale-allow tracking happen in [`crate::rules`].

use crate::manifest::{is_dot_snake, Manifest};
use crate::rules::{Finding, PreparedFile};

/// How many preceding lines a `div-guard` guard expression may sit above
/// its division.
const DIV_GUARD_WINDOW: usize = 12;

/// Run the lexical rules over one file. Metric-only files (bench
/// binaries) check metric names only: they are metric emitters, not
/// general lint subjects.
pub fn run(file: &PreparedFile, manifest: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    let spec = file.spec;

    // Metric names are checked file-level so multi-line call sites
    // (name on the line after the opening paren) are still seen.
    for site in metric_call_sites(&file.scanned) {
        if site.in_test {
            continue;
        }
        let (kind, name) = (site.kind, &site.name);
        let message = if !is_dot_snake(name) {
            format!("metric name `{name}` is not dot.snake (`crate_area.metric_name`)")
        } else if !manifest.declares(kind, name) {
            format!("metric `{name}` is not declared under [{kind}] in metrics-manifest.toml")
        } else {
            continue;
        };
        findings.push(Finding {
            file: file.rel.clone(),
            line: site.line,
            lint: "metric-name",
            message,
        });
    }

    for (idx, line) in file.scanned.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let mut push = |lint: &'static str, message: String| {
            findings.push(Finding {
                file: file.rel.clone(),
                line: lineno,
                lint,
                message,
            });
        };

        if spec.metric_only {
            continue;
        }

        if spec.no_panic {
            for (pat, what) in [
                (".unwrap()", "unwrap()"),
                (".expect(", "expect()"),
                ("panic!", "panic!"),
            ] {
                if find_token(&line.code, pat).is_some() {
                    push(
                        "no-panic",
                        format!("`{what}` in library code; return a Result, fall back with telemetry, or add `vb-audit: allow(no-panic, reason)`"),
                    );
                }
            }
        }

        if line.code.contains(".partial_cmp(") && !line.code.contains("fn partial_cmp") {
            push(
                "float-cmp",
                "`partial_cmp` float ordering; use `total_cmp` for a total order over NaN"
                    .to_string(),
            );
        }

        if !line.code.contains("const STEPS_PER_DAY")
            && !line.code.contains("const DAY_AHEAD_STEPS")
        {
            for tok in number_tokens(&line.code) {
                if matches!(tok.as_str(), "96" | "96.0" | "672" | "672.0") {
                    push(
                        "horizon-literal",
                        format!("naked horizon literal `{tok}`; use vb_trace::STEPS_PER_DAY / DAY_AHEAD_STEPS"),
                    );
                }
            }
        }

        if spec.div_guard {
            for col in division_sites(&line.code) {
                let chars: Vec<char> = line.code.chars().collect();
                if literal_denominator(&chars, col) {
                    continue;
                }
                let start = idx.saturating_sub(DIV_GUARD_WINDOW);
                let guarded = file.scanned.lines[start..=idx]
                    .iter()
                    .any(|l| has_guard_token(&l.code));
                if !guarded {
                    push(
                        "div-guard",
                        "division without a visible degenerate-denominator guard within the preceding 12 lines".to_string(),
                    );
                }
            }
        }
    }
    findings
}

/// Find `pat` in `code`. A pattern that starts with an identifier
/// character must not be preceded by one (so `counter!(` never matches
/// inside `float_counter!(`, and `panic!` never matches `some_panic!`);
/// one that starts with `.` matches after any receiver, `x.unwrap()`
/// included.
fn find_token(code: &str, pat: &str) -> Option<usize> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let chars: Vec<char> = code.chars().collect();
    let pat_chars: Vec<char> = pat.chars().collect();
    let bounded = pat_chars.first().is_some_and(|&c| is_ident(c));
    let mut i = 0;
    while i + pat_chars.len() <= chars.len() {
        if chars[i..i + pat_chars.len()] == pat_chars[..] {
            let prev_ok = !bounded || i == 0 || !is_ident(chars[i - 1]);
            if prev_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Extract standalone numeric tokens: maximal digit/underscore runs not
/// preceded by an identifier char, with an optional `.digits` fraction.
fn number_tokens(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let starts = c.is_ascii_digit()
            && (i == 0 || !(chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_'));
        if !starts {
            i += 1;
            continue;
        }
        let mut tok = String::new();
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
            tok.push(chars[i]);
            i += 1;
        }
        // Decimal fraction, but not a `..` range.
        if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
            tok.push('.');
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                tok.push(chars[i]);
                i += 1;
            }
        }
        // Skip suffixed literals' suffix so the next token starts clean.
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        out.push(tok);
    }
    out
}

/// One telemetry emission site.
pub(crate) struct MetricSite {
    /// Manifest kind the call must be declared under.
    pub kind: &'static str,
    pub name: String,
    /// 1-based line of the metric name.
    pub line: usize,
    pub in_test: bool,
}

/// Telemetry call sites across a whole file.
///
/// The macro name and delimiters are matched against the string-blanked
/// code view (so a lint pattern inside a string literal can never
/// register), while the metric name itself is read from the
/// string-preserving view at the same character offsets. The views are
/// joined across lines first, so a call whose name sits on the line
/// after the opening paren is still seen — both by `metric-name` and
/// by the `dead-metric` emission-site collection.
pub(crate) fn metric_call_sites(scanned: &crate::scanner::Scanned) -> Vec<MetricSite> {
    const PATTERNS: &[(&str, &str)] = &[
        ("float_counter!(", "float_counters"),
        ("counter!(", "counters"),
        ("histogram!(", "histograms"),
        ("span!(", "spans"),
        ("vb_telemetry::event(", "events"),
        ("series_sample(", "series"),
        ("series_extend(", "series"),
    ];
    let mut code_chars: Vec<char> = Vec::new();
    let mut ws_chars: Vec<char> = Vec::new();
    // Line number (1-based) and test flag per joined-character offset.
    let mut line_at: Vec<(usize, bool)> = Vec::new();
    for (idx, line) in scanned.lines.iter().enumerate() {
        for c in line.code.chars() {
            code_chars.push(c);
            line_at.push((idx + 1, line.in_test));
        }
        code_chars.push('\n');
        line_at.push((idx + 1, line.in_test));
        ws_chars.extend(line.with_strings.chars());
        ws_chars.push('\n');
    }

    let code_joined: String = code_chars.iter().collect();
    let mut out = Vec::new();
    for &(pat, kind) in PATTERNS {
        let mut search_from = 0;
        while let Some(rel) =
            find_token(&code_joined[char_to_byte(&code_joined, search_from)..], pat)
        {
            // `find_token` walks chars, so `rel` is a char offset into
            // the suffix.
            let at = search_from + rel;
            let mut j = at + pat.chars().count();
            while j < code_chars.len() && code_chars[j].is_whitespace() {
                j += 1;
            }
            search_from = at + 1;
            // Only statically-known names are checkable: expect an
            // opening quote right after the paren (macro-internal `$…`
            // expansions and passthrough idents are skipped).
            if code_chars.get(j) != Some(&'"') {
                continue;
            }
            let open = j;
            let mut close = open + 1;
            while close < code_chars.len() && code_chars[close] != '"' {
                close += 1;
            }
            if close >= ws_chars.len() {
                continue;
            }
            let name: String = ws_chars[open + 1..close].iter().collect();
            let (line, in_test) = line_at[open];
            out.push(MetricSite {
                kind,
                name,
                line,
                in_test,
            });
        }
    }
    out
}

/// Byte offset of the `n`-th char (the views are overwhelmingly ASCII;
/// this keeps slicing correct when they are not).
fn char_to_byte(s: &str, n: usize) -> usize {
    s.char_indices().nth(n).map_or(s.len(), |(b, _)| b)
}

/// Character columns of division operators on a line (`/` that is not
/// part of a comment delimiter — those are already stripped).
fn division_sites(code: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '/' {
            continue;
        }
        // `/=` compound assignment counts as a division too.
        let prev = if i > 0 { chars[i - 1] } else { ' ' };
        if prev == '/' || chars.get(i + 1) == Some(&'/') {
            continue;
        }
        out.push(i);
    }
    out
}

/// True when the denominator that follows column `col` is a numeric
/// literal (possibly parenthesised), which can never be degenerate.
fn literal_denominator(chars: &[char], col: usize) -> bool {
    let mut j = col + 1;
    if chars.get(j) == Some(&'=') {
        j += 1;
    }
    while j < chars.len() && (chars[j].is_whitespace() || chars[j] == '(') {
        j += 1;
    }
    chars.get(j).is_some_and(|c| c.is_ascii_digit())
}

/// Guard expressions that make a nearby division visibly safe.
fn has_guard_token(code: &str) -> bool {
    const GUARDS: &[&str] = &[
        "is_empty",
        "is_nan",
        "is_finite",
        ".max(",
        ".min(",
        ".clamp(",
        "== 0",
        "!= 0",
        "<= 0",
        "< 0",
        "> 0",
        ">= 1",
        "< 2",
        "debug_assert",
        "assert!",
        "< 1e-",
        "> 1e-",
        ">= 1e-",
        "EPSILON",
    ];
    GUARDS.iter().any(|g| code.contains(g))
}
