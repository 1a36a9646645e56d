//! Standalone-HTML rendering of the document model: one self-contained
//! page (inline CSS, no external assets), deterministic byte-for-byte.

use crate::doc::{Block, Report, Section};
use crate::render::sparkline;

/// Minimal inline stylesheet for the standalone page.
const STYLE: &str = "body{font-family:system-ui,sans-serif;max-width:72rem;margin:2rem auto;\
padding:0 1rem;line-height:1.5}table{border-collapse:collapse;margin:1rem 0}\
th,td{border:1px solid #ccc;padding:0.25rem 0.6rem;text-align:left;\
font-variant-numeric:tabular-nums}th{background:#f3f3f3}\
.spark{font-family:monospace;white-space:pre}dt{font-weight:600}\
dd{margin:0 0 0.4rem 1.5rem}";

/// Escape text for HTML body and attribute contexts.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a whole report as a standalone HTML page.
pub fn render_report(report: &Report) -> String {
    let mut out =
        String::from("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>{}</title>\n", escape(report.title.trim())));
    out.push_str(&format!("<style>{STYLE}</style>\n</head>\n<body>\n"));
    out.push_str(&format!("<h1>{}</h1>\n", escape(report.title.trim())));
    for section in &report.sections {
        out.push_str(&render_section(section));
    }
    out.push_str("</body>\n</html>\n");
    out
}

/// Render one section as an HTML fragment.
fn render_section(section: &Section) -> String {
    let mut out = format!("<section>\n<h2>{}</h2>\n", escape(&section.title));
    for block in &section.blocks {
        match block {
            Block::Prose(text) => {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    out.push_str(&format!("<p>{}</p>\n", escape(trimmed)));
                }
            }
            Block::Table(t) => {
                if let Some(caption) = &t.caption {
                    out.push_str(&format!(
                        "<p><strong>{}</strong></p>\n",
                        escape(caption.trim_end_matches(':'))
                    ));
                }
                out.push_str("<table>\n<thead><tr>");
                for h in t.table.header() {
                    out.push_str(&format!("<th>{}</th>", escape(h)));
                }
                out.push_str("</tr></thead>\n<tbody>\n");
                for row in t.table.rows() {
                    out.push_str("<tr>");
                    for cell in row {
                        out.push_str(&format!("<td>{}</td>", escape(cell)));
                    }
                    out.push_str("</tr>\n");
                }
                out.push_str("</tbody>\n</table>\n");
            }
            Block::Sparkline(s) => {
                out.push_str(&format!(
                    "<div class=\"spark\"><strong>{}</strong> {}{}</div>\n",
                    escape(&s.label),
                    escape(&sparkline(&s.values)),
                    escape(&s.note)
                ));
            }
            Block::KeyValue(kv) => {
                out.push_str("<dl>\n");
                for (key, value) in &kv.pairs {
                    out.push_str(&format!(
                        "<dt>{}</dt><dd>{}</dd>\n",
                        escape(key),
                        escape(value)
                    ));
                }
                out.push_str("</dl>\n");
            }
        }
    }
    out.push_str("</section>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::Table;

    #[test]
    fn escapes_html_metacharacters() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn renders_standalone_page() {
        let mut report = Report::new("R & D");
        let mut s = Section::new("S<1>");
        let mut t = Table::new(vec!["h"]);
        t.row(vec!["<v>"]);
        s.table(t);
        s.prose("p\n");
        s.push(Block::spark("x", vec![1.0, 2.0], ""));
        report.push(s);
        let html = render_report(&report);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<title>R &amp; D</title>"));
        assert!(html.contains("<h2>S&lt;1&gt;</h2>"));
        assert!(html.contains("<td>&lt;v&gt;</td>"));
        assert!(html.ends_with("</body>\n</html>\n"));
        assert_eq!(html, render_report(&report), "deterministic");
    }
}
