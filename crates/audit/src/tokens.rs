//! Token-stream layer over the lexical scanner.
//!
//! The scanner ([`crate::scanner`]) strips comments and blanks string
//! contents while preserving columns; this module turns that code view
//! into a flat token stream — identifiers, numbers, lifetimes and
//! punctuation — each token carrying its 1-based line, the paren
//! nesting depth it sits at, and whether it is inside a `#[cfg(test)]`
//! item. The token-level rules are built on this stream instead of raw
//! line text, so they can reason about adjacency ("identifier followed
//! by `(`") and delimiter matching without re-deriving lexical
//! structure.
//!
//! Depth convention: an opening delimiter is recorded at the depth it
//! opens *from*, and its matching closer at the same depth, so a pair
//! can be matched by scanning forward for the first closer with an
//! equal depth value.

use crate::scanner::Scanned;

/// Kind of a lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the stream does not distinguish them).
    Ident,
    /// Numeric literal (digit-led run, underscores and suffix absorbed).
    Number,
    /// `'ident` lifetime marker (char literals were blanked upstream).
    Lifetime,
    /// A single punctuation character.
    Punct,
}

/// One token of the code view.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text; for `Punct` a single character.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// `()` nesting depth (see module docs for the convention).
    pub paren_depth: u32,
    /// True when the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// Tokenize a scanned file's code view.
pub fn tokenize(scanned: &Scanned) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut paren: u32 = 0;
    for (lineno0, line) in scanned.lines.iter().enumerate() {
        let lineno = lineno0 + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    paren_depth: paren,
                    in_test: line.in_test,
                });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                // Digits, underscores, then any alphanumeric suffix
                // (`1e9`, `0xff`, `16usize`) and a decimal fraction.
                while i < chars.len() && ident_char(chars[i]) {
                    i += 1;
                }
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && ident_char(chars[i]) {
                        i += 1;
                    }
                }
                out.push(Tok {
                    kind: TokKind::Number,
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    paren_depth: paren,
                    in_test: line.in_test,
                });
                continue;
            }
            if c == '\''
                && i + 1 < chars.len()
                && (chars[i + 1].is_ascii_alphabetic() || chars[i + 1] == '_')
            {
                // Lifetime: the scanner blanked char-literal interiors,
                // so `'a` followed by an identifier char here can only
                // be a lifetime (or a label, which reads the same).
                let start = i;
                i += 1;
                while i < chars.len() && ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                    paren_depth: paren,
                    in_test: line.in_test,
                });
                continue;
            }
            // Punctuation: record parens at the depth they open from /
            // close back to, so pairs share a depth value.
            let pd = match c {
                '(' => {
                    paren += 1;
                    paren - 1
                }
                ')' => {
                    paren = paren.saturating_sub(1);
                    paren
                }
                _ => paren,
            };
            out.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line: lineno,
                paren_depth: pd,
                in_test: line.in_test,
            });
            i += 1;
        }
    }
    out
}

fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        tokenize(&scan(src))
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_and_punct() {
        let toks = texts("let x = foo(42);");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["let", "x", "foo"]);
        assert!(toks.contains(&(TokKind::Number, "42".to_string())));
    }

    #[test]
    fn lifetimes_survive_but_char_literals_do_not() {
        let toks = texts("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            lifetimes,
            ["'a", "'a"],
            "char literal must not lex as a lifetime"
        );
    }

    #[test]
    fn depths_match_between_pairs() {
        let src = "fn f() {\n    g(h(1), 2);\n}\n";
        let toks = tokenize(&scan(src));
        let depths = |delim: &str| -> Vec<u32> {
            toks.iter()
                .filter(|t| t.kind == TokKind::Punct && t.text == delim)
                .map(|t| t.paren_depth)
                .collect()
        };
        // Inner call parens nest one deeper than the outer call's, and
        // each closer shares its opener's depth.
        assert_eq!(depths("("), [0, 0, 1]);
        assert_eq!(depths(")"), [0, 1, 0]);
    }

    #[test]
    fn string_contents_produce_no_tokens() {
        let toks = texts(r#"let s = "fn bogus() { HashMap }";"#);
        assert!(
            !toks.iter().any(|(_, t)| t == "bogus" || t == "HashMap"),
            "blanked string interiors must not tokenize: {toks:?}"
        );
    }

    #[test]
    fn numbers_with_suffix_and_fraction() {
        let toks = texts("a(1_000u64, 2.5, 0xff)");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["1_000u64", "2.5", "0xff"]);
    }
}
