//! Workspace symbol index and nondeterminism taint reachability.
//!
//! Built in one pass over every scanned file's token stream
//! ([`crate::tokens`]): `fn` definitions with their body extents
//! (qualified by the enclosing `impl` type), `struct` definitions,
//! `use` imports, and a lightweight call graph. Calls are resolved by
//! name within the defining crate, plus cross-crate edges through
//! `vb_xxx::name(...)` paths and `use vb_xxx::name` imports — a sound
//! over-approximation: a name collision adds edges, it never drops one.
//!
//! The determinism rule family uses the index one way: compute the set
//! of functions **reachable from output-affecting entry points**
//! (`Policy::plan`, every `step` method such as `Cluster::step`, the
//! fleet driver's `build_fleet` and `run_fleet`, `solve_mip_kernel`,
//! and every function in a bench-root file — the paper-figure loops),
//! then flag nondeterminism sources only inside those extents (plus,
//! for `unordered-iter`, anywhere in the deterministic-core crates,
//! where struct fields feed schedules without passing through a
//! function body).
//!
//! A method call on a value of another crate's type is not resolved:
//! `run_fleet`'s `sim.run(policy)` adds no edge, so of `GroupSim`'s
//! methods only `new` is reachable, and the step core behind `run` is
//! not. The determinism family checks the step core only because
//! [`crate::spec_for`] makes `crates/sched/src/` deterministic core,
//! whole files at a time.

use crate::tokens::{is_keyword, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Functions whose results are artifacts: schedules, fleet builds and
/// runs, per-epoch MIP solutions. Free functions match by name; `plan`
/// and `step` only as methods (an `impl` block qualifies them).
pub const ENTRY_FNS: &[&str] = &["build_fleet", "run_fleet", "solve_mip_kernel"];
pub const ENTRY_METHODS: &[&str] = &["plan", "step"];

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qual: String,
    /// Index into the file table.
    pub file: usize,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Line of the body's opening `{` (== `line` when on one line);
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    pub is_test: bool,
}

/// One `struct` definition (name and line; extents are not needed by
/// the current rules).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub file: usize,
    pub line: usize,
}

/// One `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    pub type_name: String,
    pub trait_name: Option<String>,
    pub file: usize,
    pub line: usize,
}

/// One imported leaf name: `use vb_telemetry::series_sample` records
/// `root = "vb_telemetry"`, `leaf = "series_sample"`.
#[derive(Debug, Clone)]
pub struct UseImport {
    pub file: usize,
    pub line: usize,
    pub root: String,
    pub leaf: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the enclosing function in `fns`.
    pub caller: usize,
    pub callee: String,
    /// First path segment when the callee was `::`-qualified
    /// (`vb_par::par_map` records `Some("vb_par")`).
    pub root: Option<String>,
    pub line: usize,
}

/// Per-file identity inside the index.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Workspace-relative, forward-slash path.
    pub rel: String,
    /// Crate key: the directory under `crates/` (`sched`, `solver`, …)
    /// or `root` for the top-level `src/` tree.
    pub crate_key: String,
    /// Every function in this file is a taint root (bench harness and
    /// paper-figure loops).
    pub bench_root: bool,
}

/// The workspace symbol index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    pub files: Vec<FileEntry>,
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    pub impls: Vec<ImplDef>,
    pub uses: Vec<UseImport>,
    pub calls: Vec<CallSite>,
}

/// Crate key for a workspace-relative path.
pub fn crate_key(rel: &str) -> String {
    match rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
    {
        Some(dir) => dir.to_string(),
        None => "root".to_string(),
    }
}

/// Map a path root segment (`vb_par`, `crate`, `self`, …) to a crate
/// key when it names a workspace crate.
fn root_to_crate(root: &str) -> Option<String> {
    root.strip_prefix("vb_").map(|r| r.replace('_', "-"))
}

impl SymbolIndex {
    /// Build the index over every file's token stream.
    pub fn build(files: Vec<FileEntry>, streams: &[Vec<Tok>]) -> SymbolIndex {
        let mut idx = SymbolIndex {
            files,
            ..SymbolIndex::default()
        };
        for (file_id, toks) in streams.iter().enumerate() {
            idx.index_file(file_id, toks);
        }
        idx
    }

    fn index_file(&mut self, file_id: usize, toks: &[Tok]) {
        // Stacks of open scopes, keyed by the brace depth their body
        // opened at: `impl` blocks (for method qualification) and
        // functions (to attribute call sites to the innermost one).
        let mut impl_stack: Vec<(String, u32)> = Vec::new();
        let mut fn_stack: Vec<(usize, u32)> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Punct && t.text == "}" {
                while impl_stack.last().is_some_and(|&(_, d)| d == t.brace_depth) {
                    impl_stack.pop();
                }
                while let Some(&(fid, d)) = fn_stack.last() {
                    if d == t.brace_depth {
                        self.fns[fid].body =
                            Some((self.fns[fid].body.map_or(t.line, |(s, _)| s), t.line));
                        fn_stack.pop();
                    } else {
                        break;
                    }
                }
                i += 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "fn" => {
                    let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)
                    else {
                        // `fn(...)` pointer type.
                        i += 1;
                        continue;
                    };
                    let name = name_tok.text.clone();
                    let qual = match impl_stack.last() {
                        Some((ty, _)) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    // Find the body's `{` (or `;` for a bodyless trait
                    // method) — signatures contain no braces.
                    let mut j = i + 2;
                    let mut body_open = None;
                    while let Some(n) = toks.get(j) {
                        if n.kind == TokKind::Punct {
                            if n.text == "{" {
                                body_open = Some((j, n.line, n.brace_depth));
                                break;
                            }
                            if n.text == ";" && n.paren_depth == t.paren_depth {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let fid = self.fns.len();
                    self.fns.push(FnDef {
                        name,
                        qual,
                        file: file_id,
                        line: t.line,
                        body: body_open.map(|(_, line, _)| (line, line)),
                        is_test: t.in_test,
                    });
                    if let Some((open_idx, _, depth)) = body_open {
                        fn_stack.push((fid, depth));
                        i = open_idx + 1;
                    } else {
                        i = j + 1;
                    }
                    continue;
                }
                "struct" => {
                    if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        self.structs.push(StructDef {
                            name: n.text.clone(),
                            file: file_id,
                            line: t.line,
                        });
                    }
                    i += 2;
                    continue;
                }
                "impl" => {
                    // Collect idents at angle-depth 0 up to the opening
                    // `{`; `impl Trait for Type` takes the last ident
                    // before/after `for`, `impl Type` the last overall.
                    let mut angle: i32 = 0;
                    let mut before_for: Option<String> = None;
                    let mut after_for: Option<String> = None;
                    let mut seen_for = false;
                    let mut j = i + 1;
                    let mut open = None;
                    while let Some(n) = toks.get(j) {
                        match (&n.kind, n.text.as_str()) {
                            (TokKind::Punct, "<") => angle += 1,
                            (TokKind::Punct, ">") => angle -= 1,
                            (TokKind::Punct, "{") => {
                                open = Some((j, n.brace_depth));
                                break;
                            }
                            (TokKind::Punct, ";") => break,
                            (TokKind::Ident, "for") if angle == 0 => seen_for = true,
                            (TokKind::Ident, word) if angle == 0 && !is_keyword(word) => {
                                if seen_for {
                                    after_for.get_or_insert_with(|| word.to_string());
                                } else {
                                    before_for = Some(word.to_string());
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some((open_idx, depth)) = open {
                        let (ty, tr) = if seen_for {
                            (
                                after_for.unwrap_or_else(|| "_".to_string()),
                                before_for.clone(),
                            )
                        } else {
                            (before_for.unwrap_or_else(|| "_".to_string()), None)
                        };
                        self.impls.push(ImplDef {
                            type_name: ty.clone(),
                            trait_name: tr,
                            file: file_id,
                            line: t.line,
                        });
                        impl_stack.push((ty, depth));
                        i = open_idx + 1;
                    } else {
                        i = j + 1;
                    }
                    continue;
                }
                "use" => {
                    i = self.index_use(file_id, toks, i);
                    continue;
                }
                word => {
                    // Call site: identifier directly followed by `(`.
                    let is_call = toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
                    if is_call && !is_keyword(word) && !t.in_test {
                        if let Some(&(caller, _)) = fn_stack.last() {
                            // Walk back over a `seg::seg::name` path to
                            // find the root segment.
                            let mut first = i;
                            while first >= 2
                                && toks[first - 1].kind == TokKind::Punct
                                && toks[first - 1].text == ":"
                                && toks[first - 2].kind == TokKind::Punct
                                && toks[first - 2].text == ":"
                                && first >= 3
                                && toks[first - 3].kind == TokKind::Ident
                            {
                                first -= 3;
                            }
                            let root = (first != i).then(|| toks[first].text.clone());
                            self.calls.push(CallSite {
                                caller,
                                callee: word.to_string(),
                                root,
                                line: t.line,
                            });
                        }
                    }
                    i += 1;
                    continue;
                }
            }
        }
    }

    /// Parse one `use` item starting at token `start` (the `use`
    /// keyword); returns the index one past its terminating `;`.
    fn index_use(&mut self, file_id: usize, toks: &[Tok], start: usize) -> usize {
        let mut j = start + 1;
        let mut root: Option<String> = None;
        let mut prev_ident: Option<(String, usize)> = None;
        let mut after_as = false;
        while let Some(n) = toks.get(j) {
            match (&n.kind, n.text.as_str()) {
                (TokKind::Punct, ";") => {
                    if let Some((leaf, line)) = prev_ident.take() {
                        self.push_use(file_id, line, &root, leaf);
                    }
                    return j + 1;
                }
                (TokKind::Punct, ",") | (TokKind::Punct, "}") => {
                    if let Some((leaf, line)) = prev_ident.take() {
                        self.push_use(file_id, line, &root, leaf);
                    }
                    after_as = false;
                }
                (TokKind::Punct, ":") => {
                    // Path continues: the pending ident was a segment,
                    // not a leaf (skip the second `:` implicitly).
                    prev_ident = None;
                }
                (TokKind::Ident, "as") => after_as = true,
                (TokKind::Ident, word) => {
                    if root.is_none() {
                        root = Some(word.to_string());
                    }
                    if after_as {
                        // Alias replaces the original leaf.
                        after_as = false;
                    }
                    prev_ident = Some((word.to_string(), n.line));
                }
                (TokKind::Punct, "*") => prev_ident = None,
                _ => {}
            }
            j += 1;
        }
        toks.len()
    }

    fn push_use(&mut self, file: usize, line: usize, root: &Option<String>, leaf: String) {
        let Some(root) = root else { return };
        if root == &leaf {
            // `use std;` style bare-crate import: nothing callable.
            return;
        }
        self.uses.push(UseImport {
            file,
            line,
            root: root.clone(),
            leaf,
        });
    }

    /// Compute the taint bit per function: reachable from an
    /// output-affecting entry point. Test functions are never roots and
    /// never propagate.
    pub fn tainted(&self) -> Vec<bool> {
        // (crate key, fn name) -> fn ids.
        let mut by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, f) in self.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let key = self.files[f.file].crate_key.clone();
            by_name.entry((key, f.name.clone())).or_default().push(id);
        }
        // Per-file import map: leaf name -> imported-from crate keys.
        let mut imports: BTreeMap<(usize, String), BTreeSet<String>> = BTreeMap::new();
        for u in &self.uses {
            if let Some(key) = root_to_crate(&u.root) {
                imports
                    .entry((u.file, u.leaf.clone()))
                    .or_default()
                    .insert(key);
            }
        }

        let mut tainted = vec![false; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (id, f) in self.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let is_entry = ENTRY_FNS.contains(&f.name.as_str())
                || (ENTRY_METHODS.contains(&f.name.as_str()) && f.qual.contains("::"))
                || self.files[f.file].bench_root;
            if is_entry {
                tainted[id] = true;
                queue.push(id);
            }
        }

        while let Some(id) = queue.pop() {
            let caller_file = self.fns[id].file;
            let caller_crate = self.files[caller_file].crate_key.clone();
            for call in self.calls.iter().filter(|c| c.caller == id) {
                let mut target_keys: BTreeSet<String> = BTreeSet::new();
                match &call.root {
                    Some(root) => {
                        match root_to_crate(root) {
                            Some(key) => {
                                target_keys.insert(key);
                            }
                            None => {
                                // `Type::method` or `self::`/`crate::`
                                // path: resolve within the crate.
                                target_keys.insert(caller_crate.clone());
                            }
                        }
                    }
                    None => {
                        target_keys.insert(caller_crate.clone());
                        if let Some(keys) = imports.get(&(caller_file, call.callee.clone())) {
                            target_keys.extend(keys.iter().cloned());
                        }
                    }
                }
                for key in target_keys {
                    if let Some(ids) = by_name.get(&(key, call.callee.clone())) {
                        for &tid in ids {
                            if !tainted[tid] {
                                tainted[tid] = true;
                                queue.push(tid);
                            }
                        }
                    }
                }
            }
        }
        tainted
    }

    /// Tainted body extents `(start_line, end_line)` for one file,
    /// given the taint bits from [`SymbolIndex::tainted`].
    pub fn tainted_extents(&self, file: usize, tainted: &[bool]) -> Vec<(usize, usize, &FnDef)> {
        self.fns
            .iter()
            .enumerate()
            .filter(|&(id, f)| tainted[id] && f.file == file)
            .filter_map(|(_, f)| f.body.map(|(_, end)| (f.line, end, f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;
    use crate::tokens::tokenize;

    fn build(files: &[(&str, &str, bool)]) -> SymbolIndex {
        let entries: Vec<FileEntry> = files
            .iter()
            .map(|(rel, _, bench)| FileEntry {
                rel: rel.to_string(),
                crate_key: crate_key(rel),
                bench_root: *bench,
            })
            .collect();
        let streams: Vec<Vec<Tok>> = files
            .iter()
            .map(|(_, src, _)| tokenize(&scan(src)))
            .collect();
        SymbolIndex::build(entries, &streams)
    }

    #[test]
    fn fn_defs_get_extents_and_impl_qualification() {
        let src = "impl GroupSim {\n    pub fn step(&mut self) {\n        helper();\n    }\n}\nfn helper() {\n}\n";
        let idx = build(&[("crates/sched/src/sim.rs", src, false)]);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].qual, "GroupSim::step");
        assert_eq!(idx.fns[0].body, Some((2, 4)));
        assert_eq!(idx.fns[1].qual, "helper");
        assert_eq!(idx.fns[1].body, Some((6, 7)));
        assert_eq!(idx.calls.len(), 1);
        assert_eq!(idx.calls[0].callee, "helper");
    }

    #[test]
    fn trait_impl_takes_the_for_type() {
        let src = "impl Policy for MipPolicy {\n    fn plan(&mut self) {}\n}\n";
        let idx = build(&[("crates/sched/src/mip.rs", src, false)]);
        assert_eq!(idx.impls[0].type_name, "MipPolicy");
        assert_eq!(idx.impls[0].trait_name.as_deref(), Some("Policy"));
        assert_eq!(idx.fns[0].qual, "MipPolicy::plan");
    }

    #[test]
    fn taint_reaches_through_intra_crate_calls() {
        let src = "impl P {\n    fn plan(&self) {\n        inner();\n    }\n}\nfn inner() {\n    deeper();\n}\nfn deeper() {}\nfn unrelated() {}\n";
        let idx = build(&[("crates/sched/src/mip.rs", src, false)]);
        let taint = idx.tainted();
        let by_name = |n: &str| {
            idx.fns
                .iter()
                .position(|f| f.name == n)
                .map(|i| taint[i])
                .unwrap_or(false)
        };
        assert!(by_name("plan"));
        assert!(by_name("inner"));
        assert!(by_name("deeper"));
        assert!(!by_name("unrelated"));
    }

    #[test]
    fn taint_crosses_crates_through_qualified_paths_and_uses() {
        let a = "fn run_fleet() {\n    vb_sched::drive();\n    imported_helper();\n}\n";
        let b = "pub fn drive() {}\npub fn imported_helper() {}\nfn dormant() {}\n";
        let a_full = format!("use vb_sched::imported_helper;\n{a}");
        let idx = build(&[
            ("crates/core/src/fleet.rs", &a_full, false),
            ("crates/sched/src/lib.rs", b, false),
        ]);
        let taint = idx.tainted();
        let get = |n: &str| taint[idx.fns.iter().position(|f| f.name == n).unwrap()];
        assert!(get("run_fleet"));
        assert!(get("drive"), "vb_sched::drive() path edge");
        assert!(get("imported_helper"), "use-import edge");
        assert!(!get("dormant"));
    }

    #[test]
    fn bench_root_files_taint_every_fn_but_tests_never_root() {
        let src = "fn figure_loop() {\n    vb_sched::drive();\n}\n#[cfg(test)]\nmod tests {\n    fn helper_in_test() {}\n}\n";
        let lib = "pub fn drive() {}\n";
        let idx = build(&[
            ("crates/bench/src/fig9.rs", src, true),
            ("crates/sched/src/lib.rs", lib, false),
        ]);
        let taint = idx.tainted();
        let get = |n: &str| taint[idx.fns.iter().position(|f| f.name == n).unwrap()];
        assert!(get("figure_loop"));
        assert!(get("drive"));
        assert!(!get("helper_in_test"));
    }

    #[test]
    fn free_fn_named_step_is_not_an_entry_point() {
        let src = "fn step() {}\n";
        let idx = build(&[("crates/trace/src/lib.rs", src, false)]);
        assert!(!idx.tainted()[0], "entry methods require an impl block");
    }
}
