//! Rendering lint results: a `swim_report::Report` for text/markdown,
//! and a hand-rolled fixed-shape JSON document for machines and the CI
//! golden diff.

use swim_obs::json::quote;
use swim_report::render::Table;
use swim_report::{Block, KeyValueBlock, Report, Section};

use crate::LintResult;

/// Build the typed report document (text and markdown render from it).
pub fn to_report(result: &LintResult) -> Report {
    let mut report = Report::new("swim-lint");

    let mut summary = Section::new("swim-lint: workspace invariants");
    summary.push(Block::KeyValue(KeyValueBlock::new(
        vec![
            ("crates", result.crates.to_string()),
            ("files scanned", result.files.to_string()),
            ("findings", result.findings.len().to_string()),
            ("waived", result.waived.len().to_string()),
        ],
        13,
    )));
    let mut rules = Table::new(vec!["rule", "findings", "waived"]);
    for (rule, findings, waived) in result.rule_counts() {
        rules.row(vec![
            rule.id().to_owned(),
            findings.to_string(),
            waived.to_string(),
        ]);
    }
    summary.captioned_table("per-rule results:", rules);
    let mut lines = Table::new(vec!["crate", "code lines"]);
    for (name, count) in &result.code_lines {
        lines.row(vec![name.clone(), count.to_string()]);
    }
    let total: usize = result.code_lines.iter().map(|(_, n)| n).sum();
    lines.row(vec!["total".to_owned(), total.to_string()]);
    summary.captioned_table("non-test library code, lines per crate:", lines);
    report.push(summary);

    if !result.findings.is_empty() {
        let mut section = Section::new("Findings");
        let mut text = String::new();
        for f in &result.findings {
            text.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        section.prose(text);
        report.push(section);
    }
    if !result.waived.is_empty() {
        let mut section = Section::new("Waivers");
        let mut text = String::new();
        for w in &result.waived {
            text.push_str(&format!(
                "{}:{}: [{}] waived: {}\n",
                w.file, w.line, w.rule, w.reason
            ));
        }
        section.prose(text);
        report.push(section);
    }
    report
}

/// Historical text format: section texts separated by blank lines.
pub fn render_text(result: &LintResult) -> String {
    to_report(result)
        .sections
        .iter()
        .map(Section::render_text)
        .collect::<Vec<_>>()
        .join("\n")
}

/// GitHub-flavoured markdown.
pub fn render_markdown(result: &LintResult) -> String {
    swim_report::markdown::render_report(&to_report(result))
}

/// Fixed-shape JSON: one finding/waiver per line, keys in a stable
/// order, entries pre-sorted by the engine — byte-stable for a given
/// workspace state, which is what the CI golden diff pins.
pub fn render_json(result: &LintResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"swim-lint\",\n");
    out.push_str(&format!("  \"crates\": {},\n", result.crates));
    out.push_str(&format!("  \"files\": {},\n", result.files));
    out.push_str(&format!(
        "  \"findings_total\": {},\n",
        result.findings.len()
    ));
    out.push_str(&format!("  \"waived_total\": {},\n", result.waived.len()));

    out.push_str("  \"rules\": [\n");
    let counts = result.rule_counts();
    for (k, (rule, findings, waived)) in counts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"findings\": {findings}, \"waived\": {waived}}}{}\n",
            rule.id(),
            if k + 1 < counts.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"code_lines\": [\n");
    for (k, (name, lines)) in result.code_lines.iter().enumerate() {
        let comma = if k + 1 < result.code_lines.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"crate\": {}, \"lines\": {lines}}}{comma}\n",
            quote(name)
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"findings\": [\n");
    for (k, f) in result.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
            f.rule.id(),
            quote(&f.file),
            f.line,
            quote(&f.message),
            if k + 1 < result.findings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"waivers\": [\n");
    for (k, w) in result.waived.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"reason\": {}}}{}\n",
            w.rule.id(),
            quote(&w.file),
            w.line,
            quote(&w.reason),
            if k + 1 < result.waived.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, RuleId};

    fn result_with(findings: Vec<Finding>) -> LintResult {
        LintResult {
            crates: 2,
            files: 3,
            findings,
            waived: Vec::new(),
            code_lines: vec![("swim-x".into(), 40), ("swim-y".into(), 2)],
        }
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let json = render_json(&result_with(vec![Finding {
            rule: RuleId::Panic,
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "a \"quoted\" thing\nsecond line".into(),
        }]));
        assert!(json.contains(r#""rule": "panic""#));
        assert!(json.contains(r#"\"quoted\""#));
        assert!(json.contains(r"\n"));
        assert!(json.contains(r#"{"crate": "swim-x", "lines": 40},"#));
        // Every rule id appears in the rules array even with no findings.
        for rule in RuleId::ALL {
            assert!(json.contains(&format!("\"id\": \"{}\"", rule.id())));
        }
    }

    #[test]
    fn text_report_lists_findings() {
        let text = render_text(&result_with(vec![Finding {
            rule: RuleId::Clock,
            file: "a.rs".into(),
            line: 3,
            message: "tick".into(),
        }]));
        assert!(text.contains("a.rs:3: [clock] tick"), "{text}");
        assert!(text.contains("findings"), "{text}");
        let total = text
            .lines()
            .find(|l| l.contains("total"))
            .expect("total row");
        assert!(total.contains("42"), "{text}");
    }
}
