//! Flag values a library call would panic on, or silently wrap, are
//! refused by `swim-sim` as usage errors naming the value: exit 2, an `error: …` first line on
//! stderr, nothing on stdout, and no panic. Both of the crate's binaries
//! keep the workspace's command-line convention.

#[path = "../../obs/tests/support/cli_convention.rs"]
mod convention;

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
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?}: {stdout}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some(first_line),
        "{args:?}: {stderr}"
    );
}

#[test]
fn swim_sim_refuses_a_zero_scale_or_length() {
    let sim = env!("CARGO_BIN_EXE_swim-sim");
    assert_usage_error(
        sim,
        &["--scale", "0"],
        "error: --scale must be positive and finite (got 0)",
    );
    assert_usage_error(
        sim,
        &["--days", "0"],
        "error: --days must be positive and finite (got 0)",
    );
}

#[test]
fn swim_sim_refuses_a_cache_size_that_overflows() {
    let sim = env!("CARGO_BIN_EXE_swim-sim");
    let small = [
        "--days",
        "0.2",
        "--scale",
        "0.05",
        "--nodes",
        "20",
        "--schedulers",
        "fifo",
    ];
    for (caches, first_line) in [
        (
            "lru:20000000tb",
            "error: size 20000000tb overflows a 64-bit byte count",
        ),
        (
            "lfu:20000000tb",
            "error: size 20000000tb overflows a 64-bit byte count",
        ),
        (
            "threshold:19000000tb:1gb",
            "error: size 19000000tb overflows a 64-bit byte count",
        ),
    ] {
        let mut args = small.to_vec();
        args.extend(["--caches", caches]);
        assert_usage_error(sim, &args, first_line);
    }
}

#[test]
fn both_binaries_keep_the_convention() {
    let scenario = env!("CARGO_BIN_EXE_swim-scenario");
    let flags = [
        "--scenario",
        "--jobs",
        "--out",
        "--seed",
        "--chunk",
        "--jobs-per-shard",
        "--scenarios",
        "--format",
    ];
    convention::help_names_every_flag(scenario, &flags);
    convention::usage_error(scenario, &["--bogus"]);
    convention::refuses_bogus_and_missing_value(scenario, &["generate"], "--jobs");
    convention::refuses_bogus_and_missing_value(scenario, &["compare"], "--scenarios");

    let sim = env!("CARGO_BIN_EXE_swim-sim");
    let flags = [
        "--workload",
        "--days",
        "--scale",
        "--seed",
        "--repeat",
        "--nodes",
        "--schedulers",
        "--caches",
        "--per-task",
    ];
    convention::help_names_every_flag(sim, &flags);
    convention::refuses_bogus_and_missing_value(sim, &[], "--days");
}

#[test]
fn a_reader_that_closes_early_ends_the_output_without_a_panic() {
    // A thousand grid cells: a table larger than a pipe holds.
    let nodes: Vec<String> = (1..=1000).map(|n| n.to_string()).collect();
    let nodes = nodes.join(",");
    let args = ["--days", "0.1", "--scale", "0.02", "--schedulers", "fifo"];
    let args = [&args[..], &["--caches", "none", "--nodes", &nodes]].concat();
    convention::early_close_is_success(env!("CARGO_BIN_EXE_swim-sim"), &args);
}
