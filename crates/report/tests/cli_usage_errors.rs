//! Flag values a library call would panic on are refused by
//! `swim-analyze` as usage errors naming the flag: exit 1, an `error: …` first line on
//! stderr, nothing on stdout, and no panic.

use std::process::Command;

/// Run `binary` with `args`; return (exit code, stdout, stderr).
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_usage_error(binary: &str, args: &[&str], first_line: &str) {
    let (code, stdout, stderr) = run(binary, args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?}: {stdout}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some(first_line),
        "{args:?}: {stderr}"
    );
}

#[test]
fn swim_analyze_refuses_a_synthesis_for_zero_nodes() {
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/sample-a.csv");
    assert_usage_error(
        env!("CARGO_BIN_EXE_swim-analyze"),
        &["--input", sample, "--synthesize", "0"],
        "error: --synthesize requires a positive node count",
    );
}
