//! The document model's two rendering primitives: aligned ASCII tables
//! and unicode sparklines.
//!
//! These began life in the experiments' terminal reports and stayed
//! when the document model ([`crate::doc`]) took over rendering; the
//! text renderer reproduces the historical terminal output byte for
//! byte.

/// A simple left-aligned ASCII table.
///
/// ```
/// use swim_obs::render::Table;
///
/// let mut t = Table::new(vec!["workload", "jobs"]);
/// t.row(vec!["CC-a", "531"]);
/// assert!(t.render().starts_with("workload  jobs\n"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row. Rows shorter than the header are padded.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render to a string with aligned columns and a separator line.
    ///
    /// Column widths are computed over *byte* lengths, as the historical
    /// terminal reports did; the golden-output tests pin this behaviour.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        if cols == 0 {
            // A table with no columns has nothing to align or separate
            // (and the separator-width arithmetic below assumes cols ≥ 1).
            return String::new();
        }
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                if i + 1 < cells.len() {
                    line.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Render a numeric series as a unicode sparkline (8 levels). Empty input
/// yields an empty string; a constant series renders mid-level; NaN and
/// infinities render as `?`.
///
/// ```
/// use swim_obs::render::sparkline;
///
/// assert_eq!(sparkline(&[0.0, 1.0, 2.0, 3.0]), "▁▃▆█");
/// assert_eq!(sparkline(&[]), "");
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    /// The level a zero-range (constant) series renders at.
    const MID_LEVEL: char = '▄';
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let range = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if range <= 0.0 {
                return MID_LEVEL;
            }
            let idx = ((v - min) / range * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_exposes_header_and_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.header(), ["a", "b"]);
        assert_eq!(t.rows(), [["1", "2"]]);
    }

    #[test]
    fn zero_column_table_renders_empty() {
        let mut t = Table::new(Vec::<String>::new());
        t.row(vec!["dropped"]);
        assert_eq!(t.render(), "");
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["xxx", "y"]);
        t.row(vec!["z", "wwww"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a  "));
        assert!(lines[2].starts_with("xxx"));
    }

    #[test]
    fn table_render_pads_every_column_to_its_widest_cell() {
        let mut t = Table::new(vec!["id", "name", "n"]);
        t.row(vec!["1", "a-very-long-name", "2"]);
        t.row(vec!["1234", "b", "3"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        // Header row: "id" padded to width 4 ("1234"), then two spaces.
        assert_eq!(lines[0], "id    name              n");
        // Separator spans sum(widths) + 2 spaces per gap.
        assert_eq!(lines[1].len(), 4 + 16 + 1 + 2 * 2);
        assert!(lines[1].chars().all(|c| c == '-'));
        // Last column is never right-padded.
        assert_eq!(lines[2], "1     a-very-long-name  2");
        assert_eq!(lines[3], "1234  b                 3");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1"]);
        assert_eq!(t.rows().len(), 1);
        assert!(t.render().lines().count() >= 3);
    }

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
    }

    #[test]
    fn sparkline_edge_cases() {
        // Single value: zero range renders mid-level.
        assert_eq!(sparkline(&[7.0]), "▄");
        // NaN and infinities render as `?` without poisoning neighbours…
        assert_eq!(sparkline(&[0.0, f64::NAN, 1.0]), "▁?█");
        // …unless the extremes themselves are non-finite, which collapses
        // the scale: every finite value then renders at one level.
        assert_eq!(sparkline(&[f64::INFINITY, 0.0]), "?▁");
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "??");
        // Constant non-zero series renders mid-level throughout.
        assert_eq!(sparkline(&[3.0, 3.0, 3.0]), "▄▄▄");
        // Negative ranges scale like positive ones.
        assert_eq!(sparkline(&[-2.0, -1.0]), "▁█");
    }
}
