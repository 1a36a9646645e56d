//! Rendering a [`QueryOutput`] through `swim-report` blocks — the same
//! document model every other surface of the workspace renders with —
//! plus a minimal JSON form for machine consumers.

use crate::agg::AggValue;
use crate::exec::QueryOutput;
use swim_obs::json::quote;
use swim_report::render::Table;
use swim_report::{markdown, Block, Report, Section};

/// Build the result table as a report block.
pub fn to_table(output: &QueryOutput) -> Table {
    let mut table = Table::new(output.columns.iter().map(String::as_str).collect());
    for row in &output.rows {
        table.row(row.cells().iter().map(render_value).collect());
    }
    table
}

/// Build a full report [`Section`]: the result table plus a pruning
/// summary line.
pub fn to_section(output: &QueryOutput, title: impl Into<String>) -> Section {
    let mut section = Section::new(title);
    section.table(to_table(output));
    section.push(Block::Prose(format!("\n{}\n", stats_line(output))));
    section
}

/// The one-line scan/pruning summary shown under tables and on stderr.
pub fn stats_line(output: &QueryOutput) -> String {
    let s = &output.stats;
    format!(
        "scanned {} of {} chunks ({} skipped via zone maps, {} full-match); \
         {} of {} rows matched",
        s.chunks_scanned,
        s.chunks_total,
        s.chunks_skipped,
        s.chunks_full_match,
        s.rows_matched,
        s.rows_scanned
    )
}

/// Render as the aligned-text table format (the CLI default; pinned by
/// the golden file in `testdata/golden-query.txt`).
pub fn render_text(output: &QueryOutput) -> String {
    format!("{}\n{}\n", to_table(output).render(), stats_line(output))
}

/// Render as Markdown through the report document model.
pub fn render_markdown(output: &QueryOutput, title: &str) -> String {
    let mut report = Report::new(title);
    report.push(to_section(output, title));
    markdown::render_report(&report)
}

/// Render as a single JSON object: `columns`, `rows` (arrays of numbers
/// or `null`), and `stats`. Key order is fixed, so output is
/// byte-deterministic.
pub fn render_json(output: &QueryOutput) -> String {
    let mut out = String::from("{\"columns\":[");
    for (i, c) in output.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&quote(c));
    }
    out.push_str("],\"rows\":[");
    for (i, row) in output.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.cells().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                AggValue::Int(n) => out.push_str(&n.to_string()),
                AggValue::Float(f) => out.push_str(&f.to_string()),
                AggValue::Null => out.push_str("null"),
            }
        }
        out.push(']');
    }
    let s = &output.stats;
    out.push_str(&format!(
        "],\"stats\":{{\"chunks_total\":{},\"chunks_scanned\":{},\
         \"chunks_skipped\":{},\"chunks_full_match\":{},\
         \"rows_scanned\":{},\"rows_matched\":{}}}}}",
        s.chunks_total,
        s.chunks_scanned,
        s.chunks_skipped,
        s.chunks_full_match,
        s.rows_scanned,
        s.rows_matched
    ));
    out
}

fn render_value(v: &AggValue) -> String {
    match v {
        AggValue::Int(n) => n.to_string(),
        // Floats print with a decimal point even when integral, so a
        // reader can tell `avg` columns from exact counts at a glance.
        AggValue::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => format!("{f:.1}"),
        AggValue::Float(f) => f.to_string(),
        AggValue::Null => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecStats, Row};

    fn output() -> QueryOutput {
        QueryOutput {
            columns: vec!["submit/3600".into(), "count".into(), "avg(duration)".into()],
            rows: vec![
                Row {
                    key: vec![0],
                    values: vec![AggValue::Int(3), AggValue::Float(12.5)],
                },
                Row {
                    key: vec![2],
                    values: vec![AggValue::Int(0), AggValue::Null],
                },
            ],
            stats: ExecStats {
                chunks_total: 4,
                chunks_scanned: 2,
                chunks_skipped: 2,
                chunks_full_match: 1,
                rows_scanned: 20,
                rows_matched: 3,
            },
        }
    }

    #[test]
    fn text_table_aligns_and_reports_pruning() {
        let text = render_text(&output());
        assert!(text.contains("submit/3600  count  avg(duration)"), "{text}");
        assert!(text.contains("0            3      12.5"), "{text}");
        assert!(text.contains("2            0      -"), "{text}");
        assert!(
            text.contains("scanned 2 of 4 chunks (2 skipped via zone maps, 1 full-match)"),
            "{text}"
        );
    }

    #[test]
    fn json_is_stable_and_null_aware() {
        let json = render_json(&output());
        assert!(json.starts_with("{\"columns\":[\"submit/3600\",\"count\",\"avg(duration)\"]"));
        assert!(json.contains("[0,3,12.5]"), "{json}");
        assert!(json.contains("[2,0,null]"), "{json}");
        assert!(json.contains("\"chunks_skipped\":2"), "{json}");
    }

    #[test]
    fn markdown_contains_table_and_stats() {
        let md = render_markdown(&output(), "demo query");
        assert!(md.contains("demo query"));
        assert!(md.contains("zone maps"));
    }
}
