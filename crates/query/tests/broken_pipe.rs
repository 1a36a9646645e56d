//! A reader that stops early (`swim-query … | head -2`) closes the pipe
//! under the writer: `swim-query` must take that as the end of the
//! output, exit 0 and print no panic.

use std::io::Read;
use std::process::{Command, Stdio};
use swim_store::{write_store_path, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

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
    let path = std::env::temp_dir().join(format!("swim-query-pipe-{}.swim", std::process::id()));
    write_store(&path);
    let trace = path.to_str().unwrap();
    for extra in [&[][..], &["--profile"], &["--format", "json", "--profile"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_swim-query"))
            .args(["--trace", trace, "--select", "count,sum(input)"])
            .args(["--group-by", "id"])
            .args(extra)
            .env_remove("SWIM_OBS")
            .env_remove("SWIM_OBS_JSONL")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("swim-query runs");
        // Read the first bytes, as `head -2` does, then hang up.
        let mut stdout = child.stdout.take().unwrap();
        let mut head = [0u8; 64];
        stdout.read_exact(&mut head).unwrap();
        drop(stdout);
        let output = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert_eq!(output.status.code(), Some(0), "{extra:?}: {stderr}");
    }
    std::fs::remove_file(&path).unwrap();
}
