//! `SWIM_OBS` and `SWIM_OBS_JSONL` reach these binaries as they reach
//! every other: with recording on, a run appends its snapshot to the
//! sink as JSON lines.

use std::process::Command;

/// Run `binary` from the repo root with recording on and a fresh sink;
/// return the lines it appended.
fn appended_lines(binary: &str, args: &[&str], tag: &str) -> Vec<String> {
    let sink = std::env::temp_dir().join(format!("swim-obs-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&sink);
    let output = Command::new(binary)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .env("SWIM_OBS", "all")
        .env("SWIM_OBS_JSONL", &sink)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&sink).unwrap_or_default();
    let _ = std::fs::remove_file(&sink);
    text.lines().map(str::to_owned).collect()
}

fn assert_json_lines(lines: &[String]) {
    assert!(!lines.is_empty(), "no snapshot lines appended");
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}

#[test]
fn swim_report_appends_its_snapshot() {
    let lines = appended_lines(
        env!("CARGO_BIN_EXE_swim-report"),
        &["--traces", "testdata/sample-b.swim"],
        "report",
    );
    assert_json_lines(&lines);
}

#[test]
fn swim_analyze_appends_its_snapshot() {
    let lines = appended_lines(
        env!("CARGO_BIN_EXE_swim-analyze"),
        &["--input", "testdata/sample-b.swim"],
        "analyze",
    );
    assert_json_lines(&lines);
}
