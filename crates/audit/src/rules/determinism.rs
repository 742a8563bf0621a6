//! The determinism rule family.
//!
//! Every schedule, trace and bench artifact in this workspace must be
//! bit-identical at any `VB_THREADS`. These rules flag the lexical
//! *sources* of nondeterminism:
//!
//! | lint                 | source                                                  |
//! |----------------------|---------------------------------------------------------|
//! | `unordered-iter`     | `HashMap` / `HashSet`: iteration order varies per       |
//! |                      | process                                                 |
//! | `wallclock-in-logic` | `Instant::now` / `SystemTime` outside `vb-telemetry`    |
//! | `thread-derived`     | worker counts (`VB_THREADS`, `available_parallelism`)   |
//! |                      | outside `vb-par`, where they could influence results    |
//! |                      | rather than just partition work                         |
//! | `env-read`           | `std::env::var` outside the sanctioned config / bench   |
//! |                      | layers                                                  |
//! | `float-reduce-order` | shared-state accumulation inside a `par_map` closure —  |
//! |                      | float combining in completion order is non-associative  |
//!
//! Scope: every line of the file outside `#[cfg(test)]` code — function
//! bodies, struct fields and module-level items alike — in every scanned
//! file but bench binaries, which are only metric emitters. Nothing
//! decides which functions can reach an output: a source in a helper
//! nothing calls today is still a finding. Sanctioned layers opt out per
//! rule: `vb-telemetry` owns wall-clock timing, `vb-par` owns
//! thread-count partitioning, the bench harness owns its env
//! configuration. Anything else takes a reasoned allow.

use crate::rules::{Finding, PreparedFile};
use crate::tokens::TokKind;

/// The env-var name the executor reads; assembled from parts so the
/// audit's own pattern table never matches itself when self-scanning.
const THREADS_VAR: &str = concat!("VB_T", "HREADS");

pub fn run(file: &PreparedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let spec = file.spec;
    let push = |lint: &'static str, lineno: usize, message: String, out: &mut Vec<Finding>| {
        out.push(Finding {
            file: file.rel.clone(),
            line: lineno,
            lint,
            message,
        });
    };

    // unordered-iter: token-level, so string literals never trip it.
    for tok in &file.toks {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        if tok.text == "HashMap" || tok.text == "HashSet" {
            push(
                "unordered-iter",
                tok.line,
                format!(
                    "`{}` in library code; iteration order varies per process — use BTreeMap/BTreeSet, sort keys before iterating, or add a reasoned allow",
                    tok.text
                ),
                &mut findings,
            );
        }
    }

    // Line-pattern rules against the string-blanked code view.
    for (idx, line) in file.scanned.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test {
            continue;
        }
        if !spec.wallclock_ok {
            for pat in ["Instant::now", "SystemTime"] {
                if line.code.contains(pat) {
                    push(
                        "wallclock-in-logic",
                        lineno,
                        format!("`{pat}` in library code; wall-clock belongs to vb-telemetry (timings are excluded from determinism diffs there)"),
                        &mut findings,
                    );
                }
            }
        }
        if !spec.env_ok && line.code.contains("env::var") {
            push(
                "env-read",
                lineno,
                "`std::env::var` outside the sanctioned config/bench layers; thread configuration through typed config structs instead".to_string(),
                &mut findings,
            );
        }
        if !spec.threads_ok {
            let derived = line.code.contains("available_parallelism")
                || line.with_strings.contains(THREADS_VAR);
            if derived {
                push(
                    "thread-derived",
                    lineno,
                    format!("worker-count source (`{THREADS_VAR}` / `available_parallelism`) outside vb-par; thread counts may partition work but must never influence results"),
                    &mut findings,
                );
            }
        }
    }

    // float-reduce-order: shared-state accumulation inside the token
    // extent of a `par_map` call. vb-par itself is exempt — its
    // work-sharing queue is the partitioning mechanism, and results
    // are assembled in index order downstream of it.
    if !spec.threads_ok {
        findings.extend(par_closure_accumulation(file));
    }

    findings
}

const PAR_COMBINATORS: &[&str] = &["par_map"];
const SHARED_ACCUMULATORS: &[&str] = &["fetch_add", "fetch_sub", "fetch_update", "lock"];

/// Scan `par_map(...)` call extents for shared-state accumulation.
fn par_closure_accumulation(file: &PreparedFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut findings = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let opens_call = t.kind == TokKind::Ident
            && PAR_COMBINATORS.contains(&t.text.as_str())
            && !t.in_test
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
        if !opens_call {
            i += 1;
            continue;
        }
        let open = &toks[i + 1];
        // Matching `)`: first closer at the same paren depth.
        let mut j = i + 2;
        let mut end = toks.len();
        while j < toks.len() {
            let n = &toks[j];
            if n.kind == TokKind::Punct && n.text == ")" && n.paren_depth == open.paren_depth {
                end = j;
                break;
            }
            j += 1;
        }
        for k in (i + 2)..end {
            let n = &toks[k];
            if n.kind == TokKind::Ident
                && SHARED_ACCUMULATORS.contains(&n.text.as_str())
                && toks
                    .get(k + 1)
                    .is_some_and(|p| p.kind == TokKind::Punct && p.text == "(")
            {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: n.line,
                    lint: "float-reduce-order",
                    message: format!(
                        "`{}` inside a `{}` closure accumulates in completion order; return per-item values and combine them index-ordered after the join",
                        n.text, t.text
                    ),
                });
            }
        }
        i = end.max(i + 2);
    }
    findings
}
