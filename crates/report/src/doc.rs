//! The report document model: [`Report`] → [`Section`] → [`Block`].
//!
//! Every experiment builds a `Section` of typed blocks instead of pushing
//! strings, and every output format is a pure function of that tree:
//!
//! * [`Section::render_text`] — the historical terminal format, byte for
//!   byte (pinned by `tests/golden.rs`),
//! * [`crate::markdown`] — GitHub-flavoured Markdown,
//! * [`crate::html`] — a standalone HTML page.
//!
//! The text renderer's spacing rules are deliberately rigid (they encode
//! the pre-refactor `format!` conventions); the Markdown and HTML
//! renderers are free to restructure.

use crate::render::{sparkline, Table};

/// A complete multi-section document (one report run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Document title.
    pub title: String,
    /// Sections, in presentation order.
    pub sections: Vec<Section>,
}

impl Report {
    /// Start an empty report.
    pub fn new(title: impl Into<String>) -> Report {
        Report {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn push(&mut self, section: Section) -> &mut Self {
        self.sections.push(section);
        self
    }
}

/// One titled section: a heading plus a sequence of content blocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Section heading (the historical report title line).
    pub title: String,
    /// Content blocks, in presentation order.
    pub blocks: Vec<Block>,
}

impl Section {
    /// Start an empty section.
    pub fn new(title: impl Into<String>) -> Section {
        Section {
            title: title.into(),
            blocks: Vec::new(),
        }
    }

    /// Append a block.
    pub fn push(&mut self, block: Block) -> &mut Self {
        self.blocks.push(block);
        self
    }

    /// Append a free-form prose block (text is rendered verbatim in the
    /// text format, so include trailing newlines).
    pub fn prose(&mut self, text: impl Into<String>) -> &mut Self {
        self.push(Block::Prose(text.into()))
    }

    /// Append a table block without a caption.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.push(Block::Table(TableBlock {
            caption: None,
            table,
        }))
    }

    /// Append a table block with a caption line.
    pub fn captioned_table(&mut self, caption: impl Into<String>, table: Table) -> &mut Self {
        self.push(Block::Table(TableBlock {
            caption: Some(caption.into()),
            table,
        }))
    }

    /// Render the section in the historical terminal format:
    /// `"{title}\n\n"` followed by each block's text form.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}\n\n", self.title);
        for block in &self.blocks {
            block.render_text(&mut out);
        }
        out
    }
}

/// One content block.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Free-form prose. Rendered verbatim in the text format (including
    /// any embedded newlines); trimmed into a paragraph in Markdown/HTML.
    Prose(String),
    /// A data table with an optional caption line.
    Table(TableBlock),
    /// A labelled numeric series rendered as a sparkline, with an optional
    /// trailing note. An empty series renders as the note alone — the
    /// historical format for "not measured" annotation lines.
    Sparkline(SparklineBlock),
    /// Aligned `key: value` pairs (pipeline-stage summaries and per-item
    /// breakdowns).
    KeyValue(KeyValueBlock),
}

impl Block {
    /// Convenience constructor for a sparkline row.
    pub fn spark(label: impl Into<String>, values: Vec<f64>, note: impl Into<String>) -> Block {
        Block::Sparkline(SparklineBlock {
            label: label.into(),
            values,
            note: note.into(),
        })
    }

    fn render_text(&self, out: &mut String) {
        match self {
            Block::Prose(text) => out.push_str(text),
            Block::Table(t) => {
                if let Some(caption) = &t.caption {
                    out.push_str(caption);
                    out.push('\n');
                }
                out.push_str(&t.table.render());
            }
            Block::Sparkline(s) => {
                out.push_str(&format!(
                    "  {:<9} {}{}\n",
                    s.label,
                    sparkline(&s.values),
                    s.note
                ));
            }
            Block::KeyValue(kv) => {
                for (key, value) in &kv.pairs {
                    out.push_str(&format!(
                        "{}{:<width$}: {}\n",
                        " ".repeat(kv.indent),
                        key,
                        value,
                        width = kv.key_width
                    ));
                }
            }
        }
    }
}

/// A table plus an optional caption line printed above it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBlock {
    /// Caption line (no trailing newline).
    pub caption: Option<String>,
    /// The table data.
    pub table: Table,
}

/// A labelled sparkline row.
#[derive(Debug, Clone, PartialEq)]
pub struct SparklineBlock {
    /// Row label (padded to 9 columns in the text format).
    pub label: String,
    /// The series; empty renders no glyphs.
    pub values: Vec<f64>,
    /// Trailing annotation, rendered immediately after the glyphs (include
    /// a leading space if the series is non-empty).
    pub note: String,
}

/// Aligned key–value pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyValueBlock {
    /// The pairs, in presentation order.
    pub pairs: Vec<(String, String)>,
    /// Minimum key column width (keys are left-padded with spaces to this
    /// width before the `": "` separator).
    pub key_width: usize,
    /// Spaces of indentation before each key.
    pub indent: usize,
}

impl KeyValueBlock {
    /// Pairs at the given key width, unindented.
    pub fn new<K: Into<String>, V: Into<String>>(
        pairs: Vec<(K, V)>,
        key_width: usize,
    ) -> KeyValueBlock {
        KeyValueBlock {
            pairs: pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
            key_width,
            indent: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_text_has_title_and_blank_line() {
        let mut s = Section::new("Figure 0: nothing");
        s.prose("body\n");
        assert_eq!(s.render_text(), "Figure 0: nothing\n\nbody\n");
    }

    #[test]
    fn captioned_table_renders_caption_line() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1"]);
        let mut s = Section::new("T");
        s.captioned_table("numbers:", t);
        let text = s.render_text();
        assert!(text.contains("numbers:\na\n"), "{text:?}");
    }

    #[test]
    fn sparkline_block_pads_label_to_nine() {
        let mut s = Section::new("T");
        s.push(Block::spark("util", vec![], "(not replayed)"));
        s.push(Block::spark("jobs/hr", vec![0.0, 1.0], " (x)"));
        let text = s.render_text();
        assert!(text.contains("  util      (not replayed)\n"), "{text:?}");
        assert!(text.contains("  jobs/hr   ▁█ (x)\n"), "{text:?}");
    }

    #[test]
    fn key_value_block_aligns_keys() {
        let mut s = Section::new("T");
        s.push(Block::KeyValue(KeyValueBlock::new(
            vec![("source trace", "7 jobs"), ("sampled", "3 jobs")],
            12,
        )));
        let text = s.render_text();
        assert!(text.contains("source trace: 7 jobs\n"), "{text:?}");
        assert!(text.contains("sampled     : 3 jobs\n"), "{text:?}");
    }
}
