//! GitHub-flavoured Markdown rendering of the document model.
//!
//! Deterministic: the output is a pure function of the [`Report`] tree,
//! so two runs over the same data produce byte-identical documents (the
//! `swim-report` golden test depends on this).

use crate::doc::{Block, Report, Section};
use crate::render::sparkline;

/// Render a whole report as Markdown.
pub fn render_report(report: &Report) -> String {
    let mut out = format!("# {}\n\n", report.title.trim());
    for section in &report.sections {
        out.push_str(&render_section(section, 2));
    }
    out
}

/// Render one section as Markdown with the given heading level.
pub fn render_section(section: &Section, level: usize) -> String {
    let mut out = format!("{} {}\n\n", "#".repeat(level.clamp(1, 6)), section.title);
    let mut blocks = section.blocks.iter().peekable();
    while let Some(block) = blocks.next() {
        match block {
            Block::Prose(text) => {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    out.push_str(trimmed);
                    out.push_str("\n\n");
                }
            }
            Block::Table(t) => {
                if let Some(caption) = &t.caption {
                    out.push_str(&format!("**{}**\n\n", caption.trim_end_matches(':')));
                }
                render_table(&mut out, t.table.header(), t.table.rows());
                out.push('\n');
            }
            Block::Sparkline(s) => {
                let glyphs = sparkline(&s.values);
                if glyphs.is_empty() {
                    out.push_str(&format!("- **{}** {}\n", s.label, s.note.trim()));
                } else {
                    out.push_str(&format!("- **{}** `{}`{}\n", s.label, glyphs, s.note));
                }
                // Close the list once the run of sparkline rows ends.
                if !matches!(blocks.peek(), Some(Block::Sparkline(_))) {
                    out.push('\n');
                }
            }
            Block::KeyValue(kv) => {
                for (key, value) in &kv.pairs {
                    out.push_str(&format!("- **{key}**: {value}\n"));
                }
                if !matches!(blocks.peek(), Some(Block::KeyValue(_))) {
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Escape a table cell for a Markdown pipe table.
fn escape_cell(cell: &str) -> String {
    cell.replace('|', "\\|").replace('\n', " ")
}

fn render_table(out: &mut String, header: &[String], rows: &[Vec<String>]) {
    out.push('|');
    for h in header {
        out.push_str(&format!(" {} |", escape_cell(h)));
    }
    out.push_str("\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {} |", escape_cell(cell)));
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::KeyValueBlock;
    use crate::render::Table;

    fn sample() -> Report {
        let mut report = Report::new("Cross-trace report");
        let mut s = Section::new("Figure 1: sizes");
        let mut t = Table::new(vec!["Workload", "p50"]);
        t.row(vec!["CC-a", "1.00 GB"]);
        s.captioned_table("quantiles:", t);
        s.prose("\nShape check: wide spans.\n");
        s.push(Block::spark("jobs/hr", vec![0.0, 1.0, 2.0], ""));
        s.push(Block::KeyValue(KeyValueBlock::new(vec![(
            "sampled", "42 jobs",
        )])));
        report.push(s);
        report
    }

    #[test]
    fn renders_headings_tables_and_lists() {
        let md = render_report(&sample());
        assert!(md.starts_with("# Cross-trace report\n\n"));
        assert!(md.contains("## Figure 1: sizes\n"));
        assert!(md.contains("**quantiles**\n\n| Workload | p50 |\n|---|---|\n| CC-a | 1.00 GB |"));
        assert!(md.contains("- **jobs/hr** `▁▅█`\n"));
        assert!(md.contains("- **sampled**: 42 jobs\n"));
        assert!(md.contains("Shape check: wide spans."));
    }

    #[test]
    fn pipe_characters_are_escaped() {
        let mut t = Table::new(vec!["a|b"]);
        t.row(vec!["x|y"]);
        let mut s = Section::new("T");
        s.table(t);
        let md = render_section(&s, 2);
        assert!(md.contains("a\\|b"));
        assert!(md.contains("x\\|y"));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render_report(&sample()), render_report(&sample()));
    }
}
