//! `swim-lint` keeps the workspace's command-line convention: `--help`
//! on stdout with exit 0, usage errors with exit 2 and one `error: …`
//! line, and runtime errors (an unreadable workspace) with exit 1.

#[path = "../../obs/tests/support/cli_convention.rs"]
mod convention;

use std::process::Command;

#[test]
fn swim_lint_keeps_the_convention() {
    let lint = env!("CARGO_BIN_EXE_swim-lint");
    let flags = ["--root", "--format", "--deny", "--print-env-table"];
    convention::help_names_every_flag(lint, &flags);
    convention::refuses_bogus_and_missing_value(lint, &[], "--root");
    assert_eq!(
        convention::usage_error(lint, &["--format", "yaml"]),
        "error: unknown format `yaml` (text|md|json)"
    );
}

#[test]
fn an_unreadable_workspace_is_a_runtime_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_swim-lint"))
        .args(["--root", "/no/such/workspace"])
        .output()
        .expect("swim-lint runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(output.stdout.is_empty());
    assert!(stderr.starts_with("error: "), "{stderr}");
}
