//! Golden-pinned `swim-query` CLI error behaviour: usage errors
//! (malformed command line or unparsable query) exit 2, runtime errors
//! (missing or corrupt inputs) exit 1, every error prints a specific
//! `error: …` first line on stderr, and stdout stays empty. The exact
//! messages and codes are pinned so error UX changes are deliberate,
//! not accidental. Both of the crate's binaries keep the workspace's
//! command-line convention, and a reader that stops early (`swim-query
//! … | head -2`) ends their output: exit 0, no panic.

#[path = "../../obs/tests/support/cli_convention.rs"]
mod convention;

use std::process::Command;
use swim_catalog::{Catalog, CatalogOptions};
use swim_store::{write_store_path, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

fn fixture() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../store/tests/fixtures/multichunk.swim"
    )
    .to_owned()
}

/// Run the binary; return (exit code, stdout, first stderr line).
fn run(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_swim-query"))
        .args(args)
        .output()
        .expect("swim-query binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr.lines().next().unwrap_or_default().to_owned(),
    )
}

#[test]
fn bad_unit_suffix_is_rejected_with_the_suffix_named() {
    let trace = fixture();
    let (code, stdout, first) = run(&["--trace", &trace, "--where", "input > 5zb"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "errors must not print results: {stdout}");
    assert_eq!(
        first,
        "error: unknown unit suffix \"zb\" in \"input > 5zb\""
    );
}

#[test]
fn unknown_column_is_rejected_with_the_column_named() {
    let trace = fixture();
    let (code, stdout, first) = run(&["--trace", &trace, "--where", "frobnicate > 5"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    assert_eq!(
        first,
        "error: unknown column `frobnicate` (see --help for columns)"
    );
}

#[test]
fn dangling_operator_is_rejected_at_end_of_input() {
    let trace = fixture();
    let (code, stdout, first) = run(&["--trace", &trace, "--where", "input >"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    assert_eq!(first, "error: expected an expression at end of input");
}

#[test]
fn unknown_aggregate_lists_the_valid_ones() {
    let trace = fixture();
    let (code, stdout, first) = run(&["--trace", &trace, "--select", "p101(duration)"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    assert_eq!(
        first,
        "error: unknown aggregate `p101` (count, sum, min, max, avg, p0\u{2013}p100)"
    );
}

#[test]
fn single_equals_points_at_double_equals() {
    let trace = fixture();
    let (code, _, first) = run(&["--trace", &trace, "--where", "input = 5"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: use `==` for equality");
}

#[test]
fn unknown_flag_and_missing_inputs_are_usage_errors() {
    let (code, _, first) = run(&["--frobnicate"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: unknown flag --frobnicate");

    let (code, _, first) = run(&[]);
    assert_eq!(code, 2);
    assert_eq!(
        first,
        "error: a store file or catalog directory is required \
         (swim-query --trace x.swim | --catalog dir)"
    );

    let trace = fixture();
    let (code, _, first) = run(&["--trace", &trace, "--catalog", "some-dir"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --trace and --catalog are mutually exclusive");
}

#[test]
fn zero_order_by_column_is_rejected() {
    let trace = fixture();
    let (code, _, first) = run(&["--trace", &trace, "--order-by", "0"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --order-by columns are 1-based");
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("usage: swim-query"), "{stdout}");
}

#[test]
fn missing_store_file_errors_with_the_path() {
    let (code, _, first) = run(&["--trace", "/no/such/file.swim", "--select", "count"]);
    assert_eq!(code, 1);
    assert!(first.contains("/no/such/file.swim"), "{first}");
    assert!(
        first.starts_with("error: open /no/such/file.swim:"),
        "{first}"
    );
}

#[test]
fn a_store_of_another_format_version_is_refused_with_the_version_named() {
    let mut image = std::fs::read(fixture()).expect("fixture reads");
    image[8..10].copy_from_slice(&4u16.to_le_bytes());
    let path = std::env::temp_dir().join(format!("swim-query-v4-{}.swim", std::process::id()));
    std::fs::write(&path, image).unwrap();
    let trace = path.to_str().expect("a UTF-8 temp path");
    let (code, stdout, first) = run(&["--trace", trace, "--select", "count"]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(code, 1);
    assert!(stdout.is_empty());
    assert_eq!(
        first,
        format!(
            "error: open {trace}: unsupported store format version 4 (this build reads version 5)"
        )
    );
}

/// Every flag of `swim-query`'s table.
const QUERY_FLAGS: &[&str] = &[
    "--trace",
    "--catalog",
    "--select",
    "--where",
    "--group-by",
    "--order-by",
    "--desc",
    "--limit",
    "--format",
    "--serial",
    "--explain",
    "--profile",
];

#[test]
fn both_binaries_keep_the_convention() {
    let query = env!("CARGO_BIN_EXE_swim-query");
    convention::help_names_every_flag(query, QUERY_FLAGS);
    convention::refuses_bogus_and_missing_value(query, &[], "--select");

    let catalog = env!("CARGO_BIN_EXE_swim-catalog");
    let mut flags = QUERY_FLAGS[2..].to_vec();
    flags.extend([
        "--machines",
        "--jobs-per-shard",
        "--jobs-per-chunk",
        "--metrics",
        "--vacuum",
    ]);
    convention::help_names_every_flag(catalog, &flags);
    convention::usage_error(catalog, &["--bogus"]);
    convention::refuses_bogus_and_missing_value(catalog, &["ingest", "d"], "--machines");
    convention::refuses_bogus_and_missing_value(catalog, &["query", "d"], "--where");
}

#[test]
fn catalog_query_help_prints_the_query_notes() {
    let output = Command::new(env!("CARGO_BIN_EXE_swim-catalog"))
        .args(["query", "--help"])
        .output()
        .expect("swim-catalog binary runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.starts_with("usage: swim-catalog init DIR\n"),
        "{stdout}"
    );
    assert!(stdout.ends_with(swim_query::cli::NOTES), "{stdout}");
    for topic in ["columns:", "aggregates:", "predicates:", "group keys:"] {
        assert!(stdout.lines().any(|l| l.starts_with(topic)), "{topic}");
    }
}

/// A store of 20,000 jobs, one result row each under `--group-by id`:
/// far more output than a pipe buffers.
fn write_store(path: &std::path::Path) {
    let jobs = (0..20_000u64)
        .map(|i| {
            JobBuilder::new(i)
                .submit(Timestamp::from_secs(i * 7))
                .duration(Dur::from_secs(1 + i % 600))
                .input(DataSize::from_bytes(i * 1_001))
                .map_task_time(Dur::from_secs(5))
                .tasks(1, 0)
                .build()
                .unwrap()
        })
        .collect();
    let trace = Trace::new(WorkloadKind::Custom("pipe".into()), 4, jobs).unwrap();
    write_store_path(&trace, path, &StoreOptions::default()).unwrap();
}

#[test]
fn a_reader_that_closes_early_ends_the_output_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("swim-query-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("pipe.swim");
    write_store(&store);
    let trace = store.to_str().unwrap();
    let query = env!("CARGO_BIN_EXE_swim-query");
    let group_by_id = ["--select", "count,sum(input)", "--group-by", "id"];
    for extra in [&[][..], &["--profile"], &["--format", "json", "--profile"]] {
        let args = [&["--trace", trace][..], &group_by_id, extra].concat();
        convention::early_close_is_success(query, &args);
    }

    // 1,250 shards of 16 jobs: `verify` and `stats` print a line each.
    let catalog_dir = dir.join("c.d");
    let mut catalog = Catalog::init(&catalog_dir).unwrap();
    let options = CatalogOptions {
        jobs_per_shard: 16,
        ..CatalogOptions::default()
    };
    catalog.ingest_path(&store, 4, &options).unwrap();
    let dir_arg = catalog_dir.to_str().unwrap();
    let catalog = env!("CARGO_BIN_EXE_swim-catalog");
    convention::early_close_is_success(catalog, &[&["query", dir_arg][..], &group_by_id].concat());
    convention::early_close_is_success(catalog, &["verify", dir_arg]);
    convention::early_close_is_success(catalog, &["stats", dir_arg]);
    std::fs::remove_dir_all(&dir).unwrap();
}
