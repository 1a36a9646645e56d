//! The command-line convention of `swim_obs::cli`, as checks over a
//! built binary. Each crate that owns binaries includes this file in its
//! CLI-error test with
//! `#[path = "../../obs/tests/support/cli_convention.rs"] mod convention;`
//! and runs every check over each of its binaries:
//!
//! * `--help` exits 0 with the usage on stdout, naming every flag;
//! * an unknown flag, or a value flag given last without its value,
//!   exits 2 with one `error: …` line first on stderr and nothing on
//!   stdout;
//! * a reader that goes away after 10 bytes ends the output: exit 0 and
//!   no panic.

#![allow(dead_code)]

use std::io::Read;
use std::process::{Command, Output, Stdio};

/// Run `bin` with `args`, instrumentation off.
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("SWIM_OBS")
        .env_remove("SWIM_OBS_JSONL")
        .output()
        .expect("binary runs")
}

/// `bin --help` exits 0, and its stdout starts `usage:` and names each
/// of `flags`.
pub fn help_names_every_flag(bin: &str, flags: &[&str]) {
    let out = run(bin, &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{bin} --help: {stdout}");
    assert!(stdout.starts_with("usage: "), "{bin} --help: {stdout}");
    for flag in flags {
        assert!(
            stdout.split_whitespace().any(|word| word == *flag),
            "{bin} --help does not name {flag}:\n{stdout}"
        );
    }
}

/// `bin args` is a usage error: exit 2, nothing on stdout, one `error:`
/// line, first, on stderr, and no panic. Returns that line.
pub fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert_eq!(
        stderr.matches("error:").count(),
        1,
        "{bin} {args:?}: {stderr}"
    );
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: "), "{bin} {args:?}: {stderr}");
    first.to_owned()
}

/// After `prefix` (a subcommand and its positionals, or nothing),
/// `--bogus` is an unknown flag and `value_flag` with no value after it
/// is missing its value; both are usage errors that say so.
pub fn refuses_bogus_and_missing_value(bin: &str, prefix: &[&str], value_flag: &str) {
    let with = |last| [prefix, &[last]].concat();
    assert_eq!(
        usage_error(bin, &with("--bogus")),
        "error: unknown flag --bogus"
    );
    assert_eq!(
        usage_error(bin, &with(value_flag)),
        format!("error: {value_flag} requires a value")
    );
}

/// `bin args` writes more than a pipe holds; a reader that takes 10
/// bytes and hangs up leaves it exiting 0, with no panic.
pub fn early_close_is_success(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .env_remove("SWIM_OBS")
        .env_remove("SWIM_OBS_JSONL")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 10];
    stdout.read_exact(&mut head).expect("10 bytes of output");
    drop(stdout);
    let output = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert_eq!(output.status.code(), Some(0), "{bin} {args:?}: {stderr}");
}
