//! Plain-text tables for experiment output.
//!
//! The bench harness regenerates the paper's tables and figure series as
//! text: [`Table`] lays out rows in fixed-width columns, in the style of
//! the paper's Table 1, and [`thousands`] formats its GB figures. Machine-
//! readable output goes through `vb_telemetry::Json`.

use std::fmt::Write as _;

/// A fixed-width plain-text table, in the style of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (shorter rows are padded with blanks).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with padded columns and a header separator.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Strip trailing padding for clean diffs.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Format a byte-count-like quantity in GB with thousands separators, the
/// way Table 1 prints "306,966".
pub fn thousands(v: f64) -> String {
    let neg = v < 0.0;
    let mut n = v.abs().round() as u64;
    if n == 0 {
        return if neg { "-0".into() } else { "0".into() };
    }
    let mut groups = Vec::new();
    while n > 0 {
        groups.push((n % 1000) as u16);
        n /= 1000;
    }
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    for (i, g) in groups.iter().rev().enumerate() {
        if i == 0 {
            let _ = write!(out, "{g}");
        } else {
            let _ = write!(out, ",{g:03}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["Policy", "Total"]);
        t.row(&["Greedy".into(), "306,966".into()]);
        t.row(&["MIP".into(), "209,961".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Policy"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("Greedy"));
        // Column alignment: "Total" column starts at the same offset.
        assert_eq!(lines[2].find("306,966"), lines[3].find("209,961"));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["x".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn thousands_groups_digits() {
        assert_eq!(thousands(0.0), "0");
        assert_eq!(thousands(999.0), "999");
        assert_eq!(thousands(1_000.0), "1,000");
        assert_eq!(thousands(306_966.0), "306,966");
        assert_eq!(thousands(1_234_567.4), "1,234,567");
        assert_eq!(thousands(-2_500.0), "-2,500");
    }
}
