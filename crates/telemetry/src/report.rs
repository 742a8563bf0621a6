//! Machine-readable run reports: a JSONL event stream, one line per
//! metric series, and a final metric-summary line. The reader is
//! `scripts/diff_run_reports.py`; nothing in Rust parses a report back.
//!
//! The JSON support here is deliberately tiny (one enum, one emitter,
//! one recursive-descent parser) to keep the crate dependency-free; the
//! workspace policy is "no serde_json". The parser serves the Chrome
//! trace reader ([`crate::analyze`]) and vbbench's result lines.

use crate::series::SeriesData;
use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so emitted reports are
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers emit without a decimal point and parse back exactly.
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Emit compact JSON. Non-finite numbers become `null`.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        // Keep a decimal point so the value parses back
                        // as Num, not Int.
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric accessor covering both `Int` and `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n.min(i64::MAX as u64) as i64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n.min(i64::MAX as usize) as i64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// One structured moment in a run (an epoch planned, a phase finished).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub kind: String,
    pub fields: Vec<(String, Json)>,
}

impl Event {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("type".into(), Json::from("event")),
            ("seq".into(), Json::from(self.seq)),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("fields".into(), Json::Obj(self.fields.clone())),
        ])
    }
}

/// A complete run report: name, event stream, per-epoch metric series,
/// and final metric snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    pub name: String,
    pub events: Vec<Event>,
    pub series: Vec<SeriesData>,
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Bundle the global registry's current events, recorded series and
    /// metrics under `name`.
    pub fn capture(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            events: crate::events(),
            series: crate::series_snapshot(),
            snapshot: crate::snapshot(),
        }
    }

    /// Serialize as JSONL: one line per event, one line per series, then
    /// one `summary` line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json().emit());
            out.push('\n');
        }
        for series in &self.series {
            out.push_str(&series_json(series).emit());
            out.push('\n');
        }
        out.push_str(&self.summary_json().emit());
        out.push('\n');
        out
    }

    fn summary_json(&self) -> Json {
        let snap = &self.snapshot;
        let num_map = |pairs: &[(String, f64)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Num(*v)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("type".into(), Json::from("summary")),
            ("name".into(), Json::Str(self.name.clone())),
            (
                "counters".into(),
                Json::Obj(
                    snap.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("float_counters".into(), num_map(&snap.float_counters)),
            (
                "histograms".into(),
                Json::Obj(
                    snap.histograms
                        .iter()
                        .map(|(n, h)| {
                            (
                                n.clone(),
                                Json::Obj(vec![
                                    (
                                        "bounds".into(),
                                        Json::Arr(h.bounds.iter().map(|&b| Json::Num(b)).collect()),
                                    ),
                                    (
                                        "counts".into(),
                                        Json::Arr(
                                            h.counts.iter().map(|&c| Json::from(c)).collect(),
                                        ),
                                    ),
                                    ("count".into(), Json::from(h.count)),
                                    ("sum".into(), Json::Num(h.sum)),
                                    ("min".into(), Json::Num(h.min)),
                                    ("max".into(), Json::Num(h.max)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn series_json(s: &SeriesData) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::from("series")),
        ("name".into(), Json::Str(s.name.clone())),
        ("instance".into(), Json::Str(s.instance.clone())),
        (
            "epochs".into(),
            Json::Arr(s.epochs.iter().map(|&e| Json::from(e)).collect()),
        ),
        (
            "columns".into(),
            Json::Obj(
                s.columns
                    .iter()
                    .map(|(c, vals)| {
                        (
                            c.clone(),
                            Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
