//! Flag values a library call would panic on, flags that only qualify
//! one that is absent, and flags it does not know are refused by `swim-analyze` as usage
//! errors naming the flag: exit 2, an `error: …` first line on stderr,
//! nothing on stdout, and no panic. A trace too sparse to synthesize
//! from is a runtime error (exit 1), after its analysis is printed.
//! Every binary of the crate keeps the workspace's command-line
//! convention.

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
fn swim_analyze_refuses_a_synthesis_for_zero_nodes() {
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/sample-a.csv");
    assert_usage_error(
        env!("CARGO_BIN_EXE_swim-analyze"),
        &["--input", sample, "--synthesize", "0"],
        "error: --synthesize requires a positive node count",
    );
}

#[test]
fn swim_analyze_refuses_a_qualifier_without_the_flag_it_qualifies() {
    for (args, first_line) in [
        (
            &["--demo", "--bundle", "b.json"],
            "error: --bundle requires --synthesize",
        ),
        (&["--demo", "--to", "csv"], "error: --to requires --convert"),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_swim-analyze"), args, first_line);
    }
}

#[test]
fn swim_analyze_has_no_csv_alias_of_format_csv() {
    // `--format csv` is the one spelling.
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/sample-a.csv");
    assert_usage_error(
        env!("CARGO_BIN_EXE_swim-analyze"),
        &["--input", sample, "--csv"],
        "error: unknown flag --csv",
    );
}

#[test]
fn swim_analyze_reports_a_sampled_day_without_jobs() {
    // Two jobs 100 days apart: every hour window the sampler draws for
    // the synthetic day is empty.
    let csv = std::env::temp_dir().join(format!("swim-sparse-{}.csv", std::process::id()));
    std::fs::write(
        &csv,
        "job_id,name,submit_secs,duration_secs,input_bytes,shuffle_bytes,output_bytes,\
         map_task_secs,reduce_task_secs,map_tasks,reduce_tasks,input_paths,output_paths\n\
         0,a_1,0,15,1000,0,10,2,0,1,0,0,1\n\
         1,b_2,8640000,9,1000,0,10,7,0,1,0,2,3\n",
    )
    .unwrap();
    let path = csv.to_str().unwrap();
    let analyze = env!("CARGO_BIN_EXE_swim-analyze");
    let (code, _, stderr) = run(analyze, &["--input", path, "--synthesize", "5"]);
    std::fs::remove_file(&csv).unwrap();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        stderr.lines().last(),
        Some("error: the sampled day holds no job; nothing to synthesize"),
        "{stderr}"
    );
}

#[test]
fn every_binary_keeps_the_convention() {
    let analyze = env!("CARGO_BIN_EXE_swim-analyze");
    let flags = [
        "--input",
        "--format",
        "--machines",
        "--name",
        "--export",
        "--convert",
        "--to",
        "--synthesize",
        "--bundle",
        "--demo",
    ];
    convention::help_names_every_flag(analyze, &flags);
    convention::refuses_bogus_and_missing_value(analyze, &[], "--input");

    let report = env!("CARGO_BIN_EXE_swim-report");
    let flags = ["--traces", "--out", "--format", "--machines", "--threads"];
    convention::help_names_every_flag(report, &flags);
    convention::refuses_bogus_and_missing_value(report, &[], "--out");

    let repro = env!("CARGO_BIN_EXE_swim-repro");
    let flags = ["--quick", "--seed", "--format", "--list"];
    convention::help_names_every_flag(repro, &flags);
    convention::refuses_bogus_and_missing_value(repro, &[], "--seed");
}

#[test]
fn a_reader_that_closes_early_ends_the_output_without_a_panic() {
    // One experiment at a time: the reader is gone before the second.
    let repro = env!("CARGO_BIN_EXE_swim-repro");
    convention::early_close_is_success(repro, &["--seed", "17", "all"]);
    // Forty-eight traces make a report larger than a pipe holds.
    let a = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/sample-a.csv");
    let b = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/sample-b.swim");
    let traces: Vec<&str> = [a, b].into_iter().cycle().take(48).collect();
    convention::early_close_is_success(env!("CARGO_BIN_EXE_swim-report"), &traces);
}
