//! Trace serialization: the multi-site dataset CSV, the form real ELIA
//! and EMHIRES exports are converted to (layout at [`dataset_to_csv`]).
//! The parser rejects a non-finite number (`NaN`, `inf`, or a literal
//! that overflows `f64`) with a typed error.

use std::fmt::Write as _;
use vb_stats::TimeSeries;

/// Errors arising when decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIoError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A data line could not be parsed.
    BadLine {
        /// 1-based line number in the input.
        line_no: usize,
        /// The offending line's content.
        content: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadHeader(h) => write!(f, "bad trace header: {h}"),
            TraceIoError::BadLine { line_no, content } => {
                write!(f, "bad trace line {line_no}: {content}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

/// `text` as a finite `f64`; `None` for a malformed, NaN or infinite one.
fn finite(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok().filter(|v| v.is_finite())
}

fn parse_header(header: &str) -> Result<(u64, u64), TraceIoError> {
    let bad = || TraceIoError::BadHeader(header.to_string());
    if !header.starts_with('#') {
        return Err(bad());
    }
    let mut interval = None;
    let mut start = None;
    for tok in header.trim_start_matches('#').split_whitespace() {
        if let Some(v) = tok.strip_prefix("interval_secs=") {
            interval = v.parse::<u64>().ok();
        } else if let Some(v) = tok.strip_prefix("start_secs=") {
            start = v.parse::<u64>().ok();
        }
    }
    match (interval, start) {
        (Some(i), Some(s)) if i > 0 => Ok((i, s)),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = TraceIoError::BadLine {
            line_no: 3,
            content: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}

/// Serialize a whole dataset — several sites' aligned normalized traces —
/// into one CSV, the shape real ELIA/EMHIRES exports come in:
///
/// ```csv
/// # interval_secs=900 start_secs=0
/// # site NO-solar solar 59.3 10.5 400
/// # site UK-wind wind 53.5 -1.0 400
/// time_secs,NO-solar,UK-wind
/// 0,0.000000,0.412000
/// ```
///
/// # Panics
/// Panics if the vectors differ in length or the traces are misaligned.
pub fn dataset_to_csv(sites: &[crate::Site], traces: &[TimeSeries]) -> String {
    assert_eq!(sites.len(), traces.len(), "one trace per site");
    assert!(!traces.is_empty(), "empty dataset");
    let first = &traces[0];
    for t in traces {
        assert_eq!(t.interval_secs, first.interval_secs, "interval mismatch");
        assert_eq!(t.start_secs, first.start_secs, "start mismatch");
        assert_eq!(t.len(), first.len(), "length mismatch");
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# interval_secs={} start_secs={}",
        first.interval_secs, first.start_secs
    );
    for s in sites {
        let _ = writeln!(
            out,
            "# site {} {} {} {} {}",
            s.name,
            s.kind.label(),
            s.lat,
            s.lon,
            s.capacity_mw
        );
    }
    out.push_str("time_secs");
    for s in sites {
        let _ = write!(out, ",{}", s.name);
    }
    out.push('\n');
    for i in 0..first.len() {
        let _ = write!(out, "{}", first.time_of(i));
        for t in traces {
            let _ = write!(out, ",{:.6}", t.values[i]);
        }
        out.push('\n');
    }
    out
}

/// Parse the dataset CSV produced by [`dataset_to_csv`] (or hand-built
/// from a real dataset export) back into sites and aligned traces.
///
/// A `# site` line's last four fields are the kind, latitude, longitude
/// and capacity; everything before them, trimmed, is the name, so a name
/// may contain spaces. A latitude outside [−90, 90], a longitude outside
/// [−180, 180] or a capacity that is not positive is a
/// [`TraceIoError::BadHeader`]; a sample outside the normalized range
/// [0, 1] is a [`TraceIoError::BadLine`].
pub fn dataset_from_csv(text: &str) -> Result<(Vec<crate::Site>, Vec<TimeSeries>), TraceIoError> {
    use crate::{Site, SourceKind};
    let mut lines = text.lines().enumerate().peekable();
    let (_, header) = lines
        .next()
        .ok_or_else(|| TraceIoError::BadHeader("empty input".into()))?;
    let (interval_secs, start_secs) = parse_header(header)?;

    let mut sites: Vec<Site> = Vec::new();
    while let Some((_, line)) = lines.peek() {
        let Some(rest) = line.strip_prefix("# site ") else {
            break;
        };
        let bad = || TraceIoError::BadHeader(line.to_string());
        let (name, [kind, lat, lon, cap]) = site_fields(rest).ok_or_else(bad)?;
        let kind = match kind {
            "solar" => SourceKind::Solar,
            "wind" => SourceKind::Wind,
            _ => return Err(bad()),
        };
        let in_range =
            |text: &str, lo: f64, hi: f64| finite(text).filter(|v| (lo..=hi).contains(v));
        let lat = in_range(lat, -90.0, 90.0).ok_or_else(bad)?;
        let lon = in_range(lon, -180.0, 180.0).ok_or_else(bad)?;
        let cap = finite(cap).filter(|&c| c > 0.0).ok_or_else(bad)?;
        let site = match kind {
            SourceKind::Solar => Site::solar(name, lat, lon),
            SourceKind::Wind => Site::wind(name, lat, lon),
        }
        .with_capacity(cap);
        sites.push(site);
        lines.next();
    }
    if sites.is_empty() {
        return Err(TraceIoError::BadHeader("no '# site' lines".into()));
    }

    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); sites.len()];
    for (line_no, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with("time_secs") {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != sites.len() + 1 {
            return Err(TraceIoError::BadLine {
                line_no: line_no + 1,
                content: line.to_string(),
            });
        }
        for (col, cell) in columns.iter_mut().zip(&cells[1..]) {
            let v = finite(cell)
                .filter(|v| (0.0..=1.0).contains(v))
                .ok_or_else(|| TraceIoError::BadLine {
                    line_no: line_no + 1,
                    content: line.to_string(),
                })?;
            col.push(v);
        }
    }
    let traces = columns
        .into_iter()
        .map(|values| TimeSeries {
            start_secs,
            interval_secs,
            values,
        })
        .collect();
    Ok((sites, traces))
}

/// Split the body of a `# site` line into its name and its last four
/// whitespace-separated fields (kind, latitude, longitude, capacity);
/// `None` when a field or the name is missing.
fn site_fields(rest: &str) -> Option<(&str, [&str; 4])> {
    let mut head = rest.trim();
    let mut fields = [""; 4];
    for field in fields.iter_mut().rev() {
        let (h, tok) = head.rsplit_once(char::is_whitespace)?;
        *field = tok;
        head = h.trim_end();
    }
    (!head.is_empty()).then_some((head, fields))
}

#[cfg(test)]
mod dataset_tests {
    use super::*;
    use crate::Site;

    fn sample() -> (Vec<Site>, Vec<TimeSeries>) {
        let sites = vec![
            Site::solar("NO-solar", 59.3, 10.5),
            Site::wind("UK-wind", 53.5, -1.0).with_capacity(250.0),
        ];
        let traces = vec![
            TimeSeries::with_start(86_400, 900, vec![0.0, 0.25, 0.5]),
            TimeSeries::with_start(86_400, 900, vec![0.4, 0.41, 0.39]),
        ];
        (sites, traces)
    }

    #[test]
    fn dataset_round_trips() {
        let (sites, traces) = sample();
        // A name with spaces, and the edges of every accepted range.
        let edge_sites = vec![
            Site::solar("NO solar", 59.3, 10.5),
            Site::wind("far  north east", 90.0, 180.0).with_capacity(0.5),
            Site::solar("far south west", -90.0, -180.0),
        ];
        let edge_traces = vec![
            TimeSeries::with_start(0, 900, vec![0.0, 1.0]),
            TimeSeries::with_start(0, 900, vec![1.0, 0.0]),
            TimeSeries::with_start(0, 900, vec![0.5, 0.5]),
        ];
        for (sites, traces) in [(sites, traces), (edge_sites, edge_traces)] {
            let csv = dataset_to_csv(&sites, &traces);
            let (sites2, traces2) = dataset_from_csv(&csv).unwrap();
            assert_eq!(sites2, sites);
            assert_eq!(traces2.len(), traces.len());
            for (a, b) in traces.iter().zip(&traces2) {
                assert_eq!(a.start_secs, b.start_secs);
                assert_eq!(a.interval_secs, b.interval_secs);
                for (x, y) in a.values.iter().zip(&b.values) {
                    assert!((x - y).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn dataset_preserves_capacity_and_kind() {
        let (sites, traces) = sample();
        let csv = dataset_to_csv(&sites, &traces);
        let (sites2, _) = dataset_from_csv(&csv).unwrap();
        assert_eq!(sites2[1].capacity_mw, 250.0);
        assert_eq!(sites2[0].kind, crate::SourceKind::Solar);
    }

    #[test]
    fn dataset_rejects_malformed_inputs() {
        assert!(dataset_from_csv("").is_err());
        assert!(dataset_from_csv("# interval_secs=900 start_secs=0\nno sites").is_err());
        // A first line that is not a `#` header, and a zero interval.
        for header in [
            "interval_secs=900 start_secs=0",
            "# interval_secs=0 start_secs=0",
        ] {
            let csv = format!("{header}\n# site a solar 1 2 3\ntime_secs,a\n0,0.1");
            let bad = TraceIoError::BadHeader(header.to_string());
            assert_eq!(dataset_from_csv(&csv), Err(bad));
        }
        let bad_row =
            "# interval_secs=900 start_secs=0\n# site a solar 1 2 3\ntime_secs,a\n0,0.1,0.2";
        assert!(matches!(
            dataset_from_csv(bad_row),
            Err(TraceIoError::BadLine { .. })
        ));
        // A site field that is not finite (NaN, ±inf, or a literal that
        // overflows f64), an out-of-range coordinate, a capacity that is
        // not positive, or a missing name or field.
        for site in [
            "# site a solar NaN 2 3",
            "# site a solar 1 inf 3",
            "# site a wind 1 2 -inf",
            "# site a wind 1e400 2 3",
            "# site a solar 500 2 3",
            "# site a solar -90.5 2 3",
            "# site a wind 1 -900 3",
            "# site a wind 1 180.5 3",
            "# site a solar 1 2 0",
            "# site a solar 1 2 -5",
            "# site solar 1 2 3",
            "# site a b 1 2 3",
            "# site a solar 1 2",
        ] {
            let csv = format!("# interval_secs=900 start_secs=0\n{site}\ntime_secs,a\n0,0.1");
            let header = TraceIoError::BadHeader(site.to_string());
            assert_eq!(dataset_from_csv(&csv), Err(header));
        }
        // A sample that is not finite or lies outside [0, 1].
        for cell in ["NaN", "inf", "1e400", "7.5", "1.000001", "-3", "-0.1"] {
            let csv = format!(
                "# interval_secs=900 start_secs=0\n# site a solar 1 2 3\n# site b wind 4 5 6\n\
                 time_secs,a,b\n0,0.1,0.2\n900,0.3,{cell}"
            );
            let content = format!("900,0.3,{cell}");
            assert_eq!(
                dataset_from_csv(&csv),
                Err(TraceIoError::BadLine {
                    line_no: 6,
                    content
                })
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dataset_rejects_misaligned_traces() {
        let (sites, mut traces) = sample();
        traces[1].values.pop();
        dataset_to_csv(&sites, &traces);
    }
}
