//! Golden-pinned `swim-catalog` CLI error behaviour, mirroring the
//! `swim-query` contract: usage errors (bad subcommand, wrong arity,
//! misplaced flags, unparsable queries) exit 2 with the usage text,
//! runtime errors (missing or unreadable catalogs) exit 1 without it,
//! every error prints an `error: …` first line on stderr, and stdout
//! stays empty — but for `verify`'s per-shard report, which is its
//! output.

use std::process::Command;

/// Run the binary; return (exit code, stdout, first stderr line).
fn run(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_swim-catalog"))
        .args(args)
        .output()
        .expect("swim-catalog binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr.lines().next().unwrap_or_default().to_owned(),
    )
}

#[test]
fn missing_subcommand_is_a_usage_error() {
    let (code, stdout, first) = run(&[]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "errors must not print results: {stdout}");
    assert_eq!(first, "error: a subcommand is required");
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let (code, stdout, first) = run(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    assert_eq!(first, "error: unknown subcommand frobnicate");
}

#[test]
fn init_arity_is_enforced() {
    let (code, _, first) = run(&["init"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: init takes exactly one directory");

    let (code, _, first) = run(&["init", "a", "b"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: init takes exactly one directory");
}

#[test]
fn verify_arity_is_enforced() {
    for args in [&["verify"][..], &["verify", "a", "b"]] {
        let (code, stdout, first) = run(args);
        assert_eq!(code, 2);
        assert!(stdout.is_empty());
        assert_eq!(first, "error: verify takes exactly one directory");
    }
    let (code, _, first) = run(&["verify", "some-dir", "--vacuum"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --vacuum does not apply to this subcommand");
}

#[test]
fn verify_names_every_damaged_shard_and_exits_1() {
    let dir = std::env::temp_dir().join(format!("swim-catalog-verify-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/sample-b.swim");
    assert_eq!(run(&["init", dir_arg]).0, 0);
    assert_eq!(run(&["ingest", dir_arg, sample]).0, 0);
    let (code, stdout, _) = run(&["verify", dir_arg]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.ends_with(": ok (337 jobs in 1 chunk)\n"), "{stdout}");

    // One flipped bit in the shard's last chunk byte: a path block no
    // numeric query reads, which only a full decode meets.
    let shard = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|e| e == "swim"))
        .unwrap();
    let mut bytes = std::fs::read(&shard).unwrap();
    let chunk = swim_store::Store::from_vec(bytes.clone())
        .unwrap()
        .chunk_meta()[0];
    bytes[(chunk.offset + chunk.block_len) as usize - 1] ^= 0x10;
    std::fs::write(&shard, bytes).unwrap();
    let (code, stdout, first) = run(&["verify", dir_arg]);
    assert_eq!(code, 1);
    assert!(
        stdout.contains(": error: checksum mismatch in ") && stdout.ends_with(": column block\n"),
        "{stdout}"
    );
    assert_eq!(first, "error: 1 of 1 shards failed verification");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_store_of_another_format_version_is_not_ingested() {
    let dir = std::env::temp_dir().join(format!("swim-catalog-v4-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../store/tests/fixtures/multichunk.swim"
    );
    let mut image = std::fs::read(fixture).unwrap();
    image[8..10].copy_from_slice(&4u16.to_le_bytes());
    let old = dir.join("old.swim");
    std::fs::write(&old, image).unwrap();
    let (catalog, old) = (dir.join("c.d"), old.to_str().expect("utf-8 temp dir"));
    let catalog_arg = catalog.to_str().expect("utf-8 temp dir");
    assert_eq!(run(&["init", catalog_arg]).0, 0);
    let manifest = std::fs::read(catalog.join("MANIFEST")).unwrap();
    let (code, stdout, first) = run(&["ingest", catalog_arg, old]);
    assert_eq!(code, 1);
    assert!(stdout.is_empty());
    assert_eq!(
        first,
        format!(
            "error: cannot ingest {old}: \
             unsupported store format version 4 (this build reads version 5)"
        )
    );
    // Nothing published: the MANIFEST alone, at generation 0.
    let files: Vec<_> = std::fs::read_dir(&catalog).unwrap().collect();
    assert_eq!(files.len(), 1);
    assert_eq!(std::fs::read(catalog.join("MANIFEST")).unwrap(), manifest);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn misplaced_flag_is_a_usage_error() {
    // --vacuum belongs to compact, not stats.
    let (code, _, first) = run(&["stats", "some-dir", "--vacuum"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: --vacuum does not apply to this subcommand");
}

#[test]
fn query_requires_a_directory() {
    let (code, _, first) = run(&["query", "--select", "count"]);
    assert_eq!(code, 2);
    assert_eq!(first, "error: query takes a catalog directory");
}

#[test]
fn query_rejects_bad_aggregates_before_touching_the_catalog() {
    // The directory does not exist; the unparsable query must win.
    let (code, _, first) = run(&["query", "/no/such/catalog.d", "--select", "p101(duration)"]);
    assert_eq!(code, 2);
    assert_eq!(
        first,
        "error: unknown aggregate `p101` (count, sum, min, max, avg, p0\u{2013}p100)"
    );
}

#[test]
fn missing_catalog_is_a_runtime_error() {
    let (code, stdout, first) = run(&["stats", "/no/such/catalog.d"]);
    assert_eq!(code, 1);
    assert!(stdout.is_empty());
    assert!(first.starts_with("error: "), "{first}");
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("usage:"), "{stdout}");
}
