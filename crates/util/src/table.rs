//! Plain-text table and CSV rendering for the figure/table binaries.
//!
//! The `db-bench` binaries regenerate every table and figure of the paper as
//! text: aligned tables for humans, CSV for plotting. This module keeps that
//! formatting in one place.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "TextTable: row width must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format a fraction as a percentage with two decimals, e.g. `98.59%`.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Format a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("Demo", &["topology", "nodes"]);
        t.row(&["Geant2012".to_string(), "40".to_string()]);
        t.row(&["AS1221".to_string(), "104".to_string()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Geant2012"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus the title line.
        assert_eq!(lines.len(), 5);
        // All data lines are equally wide (alignment).
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width must match header")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new("", &["name", "note"]);
        t.row(&["a,b".to_string(), "say \"hi\"".to_string()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn pct_and_f3() {
        assert_eq!(pct(0.9859), "98.59%");
        assert_eq!(f3(1.23456), "1.235");
    }
}
