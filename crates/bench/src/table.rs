//! Aligned text tables and JSON output for the experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table with a title.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:<width$}", cell, width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders JSON: `{"title", "header", "rows": [{col: cell, ...}]}` —
    /// hand-rolled (no serde in the offline container), with full string
    /// escaping; all cells are emitted as JSON strings.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| -> String {
            let mut out = String::with_capacity(s.len() + 2);
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
            out
        };
        let mut out = String::new();
        let _ = write!(out, "{{\"title\":\"{}\",\"header\":[", esc(&self.title));
        let _ = write!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| format!("\"{}\"", esc(h)))
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = write!(out, "],\"rows\":[");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = self
                    .header
                    .iter()
                    .zip(row)
                    .map(|(h, c)| format!("\"{}\":\"{}\"", esc(h), esc(c)))
                    .collect();
                format!("{{{}}}", cells.join(","))
            })
            .collect();
        let _ = write!(out, "{}", rows.join(","));
        let _ = writeln!(out, "]}}");
        out
    }

    /// Writes the JSON form to `dir/<slug>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.slug()));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// File-name slug derived from the title.
    fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect()
    }
}

/// Formats a duration in seconds with engineering-friendly precision.
pub fn fmt_secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.3}")
    } else if s >= 1e-3 {
        format!("{:.3}m", s * 1e3).replace('m', "e-3")
    } else {
        format!("{:.3}e-6", s * 1e6)
    }
}

/// Formats a ratio like the paper quotes ("4.20x").
pub fn fmt_ratio(num: f64, den: f64) -> String {
    if den <= 0.0 {
        return "-".to_string();
    }
    format!("{:.2}x", num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("longer"));
        let lines: Vec<&str> = r.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut t = Table::new("Fig \"10\"", &["a,b", "c"]);
        t.row(vec!["x\"y".into(), "line\nbreak".into()]);
        let json = t.to_json();
        assert!(json.starts_with("{\"title\":\"Fig \\\"10\\\"\""));
        assert!(json.contains("\"a,b\":\"x\\\"y\""));
        assert!(json.contains("\"c\":\"line\\nbreak\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn json_file_roundtrip() {
        let mut t = Table::new("Fig 10(a) demo", &["c"]);
        t.row(vec!["v".into()]);
        let dir = std::env::temp_dir().join("rpq_table_test_json");
        let path = t.write_json(&dir).unwrap();
        assert!(path.to_string_lossy().ends_with("fig_10_a__demo.json"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"rows\":[{\"c\":\"v\"}]"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_secs(Duration::from_secs(200)), "200.0");
        assert_eq!(fmt_secs(Duration::from_secs(2)), "2.000");
        assert_eq!(fmt_secs(Duration::from_millis(5)), "5.000e-3");
        assert_eq!(fmt_secs(Duration::from_micros(5)), "5.000e-6");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(10.0, 2.0), "5.00x");
        assert_eq!(fmt_ratio(1.0, 0.0), "-");
    }
}
