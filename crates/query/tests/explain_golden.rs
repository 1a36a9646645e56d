//! Golden pins for `swim-query --explain` over the two frozen fixtures
//! (`crates/store/tests/fixtures/multichunk.swim`, 8 chunks, and
//! `testdata/sample-b.swim`, one), plus the acceptance cross-check: the
//! chunk verdict counts `--explain` *predicts* must equal the decode
//! counters `--profile` *observes* for the same query, on those fixtures
//! and on a 30-day store written fresh.
//!
//! Regenerate after an intentional output change with
//!
//! ```sh
//! SWIM_REGEN_GOLDEN=1 cargo test -p swim-query --test explain_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use swim_store::{write_store_path, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

/// The workspace root: fixture paths are passed relative to it so the
/// golden output (which echoes the path) is machine-independent.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

const MULTICHUNK: &str = "crates/store/tests/fixtures/multichunk.swim";
const SAMPLE_B: &str = "testdata/sample-b.swim";
const QUERY_ARGS: &[&str] = &[
    "--select",
    "count,sum(total_io),p50(duration)",
    "--where",
    "submit < 12h",
    "--group-by",
    "submit/3600",
];

/// The first day of the 30-day store.
const FIRST_DAY_ARGS: &[&str] = &["--select", "count,sum(total_io)", "--where", "submit < 1d"];
/// The benchmark mix's `groupby` class (`perf/src/mix.rs`): the diurnal
/// profile of the jobs that moved data.
const HOUR_OF_DAY_ARGS: &[&str] = &[
    "--select",
    "count,sum(total_io),avg(duration)",
    "--where",
    "total_io * 1024 >= 7",
    "--group-by",
    "submit / 1h - submit / 1d * 24",
];

/// Write 48,000 jobs spread evenly over 30 days to `path` in 16 chunks;
/// every fifth job moves no data.
fn write_month_store(path: &Path) {
    const JOBS: u64 = 48_000;
    let jobs = (0..JOBS)
        .map(|i| {
            JobBuilder::new(i)
                .submit(Timestamp::from_secs(i * 30 * 86_400 / JOBS))
                .duration(Dur::from_secs(1 + i % 3_600))
                .input(DataSize::from_bytes(i % 5 * 1_000_003))
                .map_task_time(Dur::from_secs(3 + i % 60))
                .tasks(1 + (i % 20) as u32, 0)
                .build()
                .unwrap()
        })
        .collect();
    let trace = Trace::new(WorkloadKind::Custom("month".into()), 9, jobs).unwrap();
    let options = StoreOptions {
        jobs_per_chunk: 3_000,
    };
    write_store_path(&trace, path, &options).unwrap();
}

/// Run `swim-query` from the workspace root, returning stdout.
fn swim_query(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swim-query"))
        .current_dir(repo_root())
        .env_remove("SWIM_OBS")
        .env_remove("SWIM_OBS_JSONL")
        .args(args)
        .output()
        .expect("swim-query runs");
    assert!(
        out.status.success(),
        "swim-query {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn check_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("SWIM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        got,
        golden,
        "--explain output drifted from {} (SWIM_REGEN_GOLDEN=1 to regenerate)",
        path.display()
    );
}

/// Pull `key: value` out of the `--profile` counter block.
fn profile_counter(profile_stdout: &str, name: &str) -> u64 {
    profile_stdout
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == name).then(|| value.trim().parse().expect("counter is a u64"))
        })
        .unwrap_or_else(|| panic!("counter {name} not in profile output:\n{profile_stdout}"))
}

/// Pull a field out of the fixed-shape `--format json` explain object's
/// `"chunks"` summary.
fn explain_chunk_field(explain_json: &str, field: &str) -> u64 {
    let chunks = explain_json
        .rsplit("\"chunks\":")
        .next()
        .expect("chunks object");
    let tagged = format!("\"{field}\":");
    let rest = &chunks[chunks.find(&tagged).expect("field present") + tagged.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("field is a u64")
}

#[test]
fn explain_multichunk_fixture_matches_golden() {
    let mut args = vec!["--trace", MULTICHUNK];
    args.extend_from_slice(QUERY_ARGS);
    args.push("--explain");
    check_golden("explain-multichunk.txt", &swim_query(&args));

    args.extend_from_slice(&["--format", "json"]);
    check_golden("explain-multichunk.json", &swim_query(&args));
}

#[test]
fn explain_sample_b_fixture_matches_golden() {
    let mut args = vec!["--trace", SAMPLE_B];
    args.extend_from_slice(QUERY_ARGS);
    args.push("--explain");
    check_golden("explain-sample-b.txt", &swim_query(&args));
}

/// The acceptance invariant: for the same query, the chunks `--explain`
/// says execution *would* decode (`always + maybe`) are exactly the
/// chunks `--profile` counts as decoded (`store.chunks_decoded`), and
/// the per-verdict planner counters agree with the explain split.
///
/// On the 30-day store, one day decodes at most half the chunks, and
/// the `groupby` class answers 24 rows, identical in parallel and
/// serial, with the kernel's memo sparing all but one key-table probe
/// in eight matched rows.
#[test]
fn explain_verdicts_match_profile_decode_counters() {
    let month =
        std::env::temp_dir().join(format!("swim-explain-month-{}.swim", std::process::id()));
    write_month_store(&month);
    let month_path = month.to_str().expect("a UTF-8 temp path");
    let mut counted = Vec::new();
    for (fixture, query) in [
        (MULTICHUNK, QUERY_ARGS),
        (SAMPLE_B, QUERY_ARGS),
        (month_path, FIRST_DAY_ARGS),
        (month_path, HOUR_OF_DAY_ARGS),
    ] {
        let mut explain_args = vec!["--trace", fixture];
        explain_args.extend_from_slice(query);
        explain_args.extend_from_slice(&["--explain", "--format", "json"]);
        let explain = swim_query(&explain_args);

        let mut profile_args = vec!["--trace", fixture];
        profile_args.extend_from_slice(query);
        profile_args.extend_from_slice(&["--profile", "--serial"]);
        let profile = swim_query(&profile_args);

        for (explain_field, counter) in [
            ("scanned", "store.chunks_decoded"),
            ("never", "query.verdict_never"),
            ("always", "query.verdict_always"),
            ("maybe", "query.verdict_maybe"),
        ] {
            assert_eq!(
                explain_chunk_field(&explain, explain_field),
                profile_counter(&profile, counter),
                "{fixture}: explain {explain_field} vs profile {counter}"
            );
        }
        counted.push((explain, profile));
    }

    let (first_day, _) = &counted[2];
    let chunks: u64 = ["never", "always", "maybe"]
        .map(|verdict| explain_chunk_field(first_day, verdict))
        .iter()
        .sum();
    let scanned = explain_chunk_field(first_day, "scanned");
    assert_eq!(chunks, 16);
    assert!(
        scanned * 2 <= chunks,
        "one day of thirty decoded {scanned} of {chunks} chunks"
    );

    let (_, hourly) = &counted[3];
    let probes = profile_counter(hourly, "query.group_probes");
    let matched = profile_counter(hourly, "query.rows_matched");
    assert!(
        matched > 0 && probes <= matched / 8,
        "{probes} key-table probes for {matched} matched rows"
    );
    let mut args = vec!["--trace", month_path];
    args.extend_from_slice(HOUR_OF_DAY_ARGS);
    let parallel = swim_query(&args);
    args.push("--serial");
    assert_eq!(parallel, swim_query(&args), "parallel ≡ serial");
    let rows = parallel
        .lines()
        .skip_while(|line| !line.starts_with("---"))
        .skip(1)
        .take_while(|line| !line.is_empty());
    assert_eq!(rows.count(), 24, "{parallel}");
    std::fs::remove_file(&month).unwrap();
}

/// `--explain` must refuse to also `--profile` (it never executes).
#[test]
fn explain_and_profile_are_mutually_exclusive() {
    let out = Command::new(env!("CARGO_BIN_EXE_swim-query"))
        .current_dir(repo_root())
        .args(["--trace", MULTICHUNK, "--explain", "--profile"])
        .output()
        .expect("swim-query runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"),
        "unexpected stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
