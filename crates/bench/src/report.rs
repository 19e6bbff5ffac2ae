//! Result tables and their renderers.
//!
//! The JSON writer is hand-rolled (DESIGN.md: the repo owns its
//! serialization end to end); the text renderer produces the aligned
//! tables EXPERIMENTS.md quotes.

use rdv_netsim::trace::export::json_escape;

/// A result table: named columns, string-rendered rows, free-form notes.
#[derive(Debug, Clone)]
pub struct Series {
    /// Experiment ID ("F2", "S1", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows (pre-rendered cells).
    pub rows: Vec<Vec<String>>,
    /// Footnotes (assumptions, paper comparison).
    pub notes: Vec<String>,
}

impl Series {
    /// Start a table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Series {
        Series {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (cells stringified by the caller).
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Render as JSON (escaped, stable key order).
    pub fn to_json(&self) -> String {
        fn arr(items: impl Iterator<Item = String>) -> String {
            let inner: Vec<String> = items.collect();
            format!("[{}]", inner.join(","))
        }
        let columns = arr(self.columns.iter().map(|c| format!("\"{}\"", json_escape(c))));
        let rows =
            arr(self.rows.iter().map(|r| arr(r.iter().map(|c| format!("\"{}\"", json_escape(c))))));
        let notes = arr(self.notes.iter().map(|n| format!("\"{}\"", json_escape(n))));
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"columns\":{},\"rows\":{},\"notes\":{}}}",
            json_escape(&self.id),
            json_escape(&self.title),
            columns,
            rows,
            notes
        )
    }
}

/// Format nanoseconds as microseconds with 1 decimal.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a fraction as a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("T9", "sample", &["x", "longer_column"]);
        s.push_row(vec!["1".into(), "2".into()]);
        s.push_row(vec!["100".into(), "wide cell value".into()]);
        s.note("a note");
        s
    }

    #[test]
    fn text_alignment() {
        let text = sample().to_text();
        assert!(text.contains("== T9 — sample =="));
        let lines: Vec<&str> = text.lines().collect();
        // Header and rows are right-aligned to the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert!(text.contains("note: a note"));
    }

    #[test]
    fn json_is_wellformed_enough() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"id\":\"T9\""));
        assert!(json.contains("\"columns\":[\"x\",\"longer_column\"]"));
        // Escaping.
        let mut s = Series::new("q", "with \"quotes\"\n", &["a"]);
        s.push_row(vec!["cell\\back".into()]);
        let j = s.to_json();
        assert!(j.contains("with \\\"quotes\\\"\\n"));
        assert!(j.contains("cell\\\\back"));
    }

    #[test]
    fn helpers() {
        assert_eq!(us(1500), "1.5");
        assert_eq!(pct(0.705), "70.5%");
        assert_eq!(f2(1.0 / 3.0), "0.33");
    }
}
