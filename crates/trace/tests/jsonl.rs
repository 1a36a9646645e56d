//! Trace JSON-lines pins and the reader's totality battery.
//!
//! `tests/fixtures/parent.jsonl` is the exact output of `write_jsonl` over
//! [`parent_trace`] as the codec wrote it before the hand-written
//! `swim_obs::json` codec replaced the derived one; it is never
//! regenerated. Reading it back must give the same trace, and writing
//! that trace must give the same bytes. Every truncation and every
//! single-bit flip of it, and a line nested a million levels deep, must
//! read as a trace or a typed error, never a panic or an abort.

use std::path::PathBuf;
use swim_trace::io::{read_jsonl, write_jsonl};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, PathId, Timestamp, Trace, TraceError};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent.jsonl")
}

/// A custom kind, one job with input and output paths and one with
/// neither, byte counts near `u64::MAX`, and a name that needs every
/// kind of string escape plus non-ASCII text.
fn parent_trace() -> Trace {
    let jobs = vec![
        JobBuilder::new(u64::MAX - 1)
            .name("q\"uote back\\slash tab\there ctl\u{1} café 日本 ✓")
            .submit(Timestamp::from_secs(7))
            .duration(Dur::from_secs(u64::MAX / 4))
            .input(DataSize::from_bytes(u64::MAX))
            .shuffle(DataSize::from_bytes(u64::MAX - 2))
            .output(DataSize::from_bytes(u64::MAX / 3))
            .map_task_time(Dur::from_secs(12))
            .reduce_task_time(Dur::from_secs(9))
            .tasks(u32::MAX, 3)
            .input_paths(vec![PathId(0), PathId(u64::MAX), PathId(42)])
            .output_paths(vec![PathId(u64::MAX - 7)])
            .build()
            .unwrap(),
        JobBuilder::new(3)
            .submit(Timestamp::from_secs(90))
            .duration(Dur::from_secs(1))
            .input(DataSize::from_bytes(4096))
            .map_task_time(Dur::from_secs(1))
            .tasks(1, 0)
            .build()
            .unwrap(),
    ];
    Trace::new(WorkloadKind::Custom("custom \"fixture\"".into()), 17, jobs).unwrap()
}

fn written(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_jsonl(trace, &mut buf).unwrap();
    buf
}

#[test]
fn write_jsonl_reproduces_the_fixture_bytes() {
    let fixture = std::fs::read(fixture_path()).unwrap();
    assert!(
        written(&parent_trace()) == fixture,
        "write_jsonl drifted from {}",
        fixture_path().display()
    );
}

#[test]
fn read_jsonl_returns_the_fixture_trace() {
    let fixture = std::fs::read(fixture_path()).unwrap();
    assert_eq!(read_jsonl(&fixture[..]).unwrap(), parent_trace());
}

/// `read_jsonl` over `bytes` returns (it does not panic), and a parse
/// error names a line of the input.
fn read_is_total(bytes: &[u8]) {
    if let Err(TraceError::Parse { line, .. }) = read_jsonl(bytes) {
        let lines = bytes.split(|&b| b == b'\n').count();
        assert!((1..=lines).contains(&line), "line {line} of {lines}");
    }
}

#[test]
fn every_truncation_reads_or_errs() {
    let fixture = std::fs::read(fixture_path()).unwrap();
    for len in 0..fixture.len() {
        read_is_total(&fixture[..len]);
    }
}

#[test]
fn every_bit_flip_reads_or_errs() {
    let mut bytes = std::fs::read(fixture_path()).unwrap();
    for i in 0..bytes.len() * 8 {
        bytes[i / 8] ^= 1 << (i % 8);
        read_is_total(&bytes);
        bytes[i / 8] ^= 1 << (i % 8);
    }
}

#[test]
fn deep_nesting_is_a_typed_error() {
    let deep = "[".repeat(1_000_000);
    read_is_total(deep.as_bytes());
    assert!(matches!(
        read_jsonl(deep.as_bytes()),
        Err(TraceError::Parse { line: 1, .. })
    ));
    let meta = std::fs::read_to_string(fixture_path()).unwrap();
    let meta = meta.lines().next().unwrap();
    let deep_job = format!("{meta}\n{{\"id\":{deep}\n");
    assert!(matches!(
        read_jsonl(deep_job.as_bytes()),
        Err(TraceError::Parse { line: 2, .. })
    ));
}
