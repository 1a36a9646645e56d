//! Golden-pinned `swim-serve` CLI error behaviour, matching the
//! workspace convention: usage errors (bad or missing flags) exit 2
//! with the usage text, runtime errors (missing catalog, port already
//! in use) exit 1, and every error prints a specific
//! `error: …` first line on stderr with stdout left empty. All three of
//! the crate's binaries keep the convention.

#[path = "../../obs/tests/support/cli_convention.rs"]
mod convention;
mod support;

use std::net::TcpListener;
use std::process::Command;
use swim_serve::{serve, ServeOptions};

/// Run the binary; return (exit code, stdout, first stderr line).
fn run(args: &[&str]) -> (i32, String, String) {
    run_env(args, &[])
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_swim-serve"));
    cmd.args(args);
    for (key, value) in env {
        cmd.env(key, value);
    }
    let output = cmd.output().expect("swim-serve binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr.lines().next().unwrap_or_default().to_owned(),
    )
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("usage: swim-serve"), "{stdout}");
}

#[test]
fn missing_catalog_is_a_usage_error() {
    let (code, stdout, first) = run(&[]);
    assert_eq!(code, 2);
    assert!(
        stdout.is_empty(),
        "errors must not print to stdout: {stdout}"
    );
    assert_eq!(
        first,
        "error: --catalog is required (swim-serve --catalog DIR)"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let (code, _, first) = run(&["--catalog", "cat.d", "--frobnicate"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: unknown flag --frobnicate");
}

#[test]
fn bad_numeric_flags_are_usage_errors_with_the_value_quoted() {
    let (code, _, first) = run(&["--catalog", "cat.d", "--port", "zeppelin"]);
    assert_eq!(code, 2);
    assert_eq!(
        first,
        "error: --port requires a port number, got \"zeppelin\""
    );

    let (code, _, first) = run(&["--catalog", "cat.d", "--workers", "many"]);
    assert_eq!(code, 2);
    assert_eq!(
        first,
        "error: --workers requires an unsigned integer, got \"many\""
    );

    let (code, _, first) = run(&["--catalog", "cat.d", "--workers", "0"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --workers must be at least 1");

    let (code, _, first) = run(&["--catalog", "cat.d", "--queue-depth", "0"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --queue-depth must be at least 1");

    let (code, _, first) = run(&["--catalog", "cat.d", "--port"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --port requires a value");
}

/// The server is configured by flags alone: the retired `SWIM_SERVE_*`
/// defaults are not read, so garbage in them neither fails the parse
/// nor masks the missing `--catalog`, and `--help` names no variable.
/// (The names are spelled from their suffixes: the `env` lint rule
/// counts every whole `SWIM_*` literal as a read of a registered name.)
#[test]
fn environment_does_not_configure_the_server() {
    let retired =
        ["WORKERS", "QUEUE_DEPTH", "CACHE", "ACCESS_LOG"].map(|v| format!("SWIM_SERVE_{v}"));
    let env: Vec<(&str, &str)> = retired.iter().map(|k| (k.as_str(), "many")).collect();
    let (code, stdout, first) = run_env(&[], &env);
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(
        first,
        "error: --catalog is required (swim-serve --catalog DIR)"
    );

    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(!stdout.contains("SWIM_"), "{stdout}");
}

#[test]
fn missing_catalog_directory_is_a_runtime_error_with_the_path() {
    let (code, stdout, first) = run(&["--catalog", "/no/such/catalog.d"]);
    assert_eq!(code, 1);
    assert!(stdout.is_empty());
    assert!(
        first.starts_with("error: open /no/such/catalog.d:"),
        "{first}"
    );
}

#[test]
fn port_in_use_is_a_runtime_error_naming_the_bind_address() {
    let dir = support::temp_dir("cli-bind");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 10));

    // Occupy a port, then ask the server for exactly that port.
    let holder = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = holder.local_addr().unwrap().port();
    let (code, _, first) = run(&[
        "--catalog",
        cat_dir.to_str().unwrap(),
        "--port",
        &port.to_string(),
    ]);
    assert_eq!(code, 1);
    assert!(
        first.starts_with(&format!("error: bind 127.0.0.1:{port}:")),
        "{first}"
    );
    drop(holder);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_binary_keeps_the_convention() {
    let serve = env!("CARGO_BIN_EXE_swim-serve");
    let flags = [
        "--catalog",
        "--addr",
        "--port",
        "--workers",
        "--queue-depth",
        "--cache",
        "--admin",
        "--print-port",
        "--access-log",
    ];
    convention::help_names_every_flag(serve, &flags);
    convention::refuses_bogus_and_missing_value(serve, &[], "--port");

    let top = env!("CARGO_BIN_EXE_swim-top");
    let flags = [
        "--addr",
        "--interval",
        "--count",
        "--once",
        "--format",
        "--mask",
        "--raw",
    ];
    convention::help_names_every_flag(top, &flags);
    convention::refuses_bogus_and_missing_value(top, &[], "--addr");

    let bench = env!("CARGO_BIN_EXE_swim-bench");
    let flags = [
        "--catalog",
        "--addr",
        "--clients",
        "--requests",
        "--mask",
        "--shutdown",
    ];
    convention::help_names_every_flag(bench, &flags);
    convention::usage_error(bench, &["--bogus"]);
    convention::refuses_bogus_and_missing_value(bench, &["serve"], "--clients");
}

#[test]
fn a_reader_that_closes_early_ends_the_raw_body_without_a_panic() {
    // 20,000 groups: a response body larger than a pipe holds.
    let dir = support::temp_dir("cli-pipe");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 20_000));
    let handle = serve(&cat_dir, ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();
    let raw = "query --select count --group-by id";
    convention::early_close_is_success(
        env!("CARGO_BIN_EXE_swim-top"),
        &["--addr", &addr, "--raw", raw],
    );
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}
