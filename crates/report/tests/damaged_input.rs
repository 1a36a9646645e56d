//! A store or catalog that opens but is damaged where only the battery
//! reads it — a name or path block, past what `load` verifies — must end
//! `swim-report` with exit 1 and the typed error naming the file, not
//! with a panic inside a battery cell.

use std::path::{Path, PathBuf};
use std::process::Command;
use swim_catalog::{Catalog, CatalogOptions};
use swim_report::{Comparison, TraceContext};
use swim_store::Store;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v5-multichunk.swim")
}

/// Flip a bit in the last byte of the file's first chunk: its path
/// literals, which no numeric projection reads.
fn damage(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let first = Store::from_vec(bytes.clone()).unwrap().chunk_meta()[0];
    bytes[(first.offset + first.block_len) as usize - 1] ^= 0x04;
    std::fs::write(path, bytes).unwrap();
}

/// Run the binary over `input`; exit code and stderr.
fn report(input: &Path) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_swim-report"))
        .arg("--traces")
        .arg(input)
        .output()
        .expect("swim-report runs");
    assert!(output.stdout.is_empty(), "no partial report");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_damaged_store_or_catalog_is_a_typed_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("swim-report-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let store = dir.join("damaged.swim");
    std::fs::copy(fixture(), &store).unwrap();
    damage(&store);

    let cat_dir = dir.join("cat.d");
    let mut catalog = Catalog::init(&cat_dir).unwrap();
    catalog
        .ingest_path(fixture(), 100, &CatalogOptions::default())
        .unwrap();
    let shard = catalog.shards()[0].file.clone();
    drop(catalog);
    damage(&cat_dir.join(&shard));

    for (input, file) in [(&store, "damaged.swim"), (&cat_dir, shard.as_str())] {
        // The library: loading verifies what it reads (the numeric
        // columns, or nothing for a catalog); the battery then fails.
        let ctx = TraceContext::load(input, 100).expect("opens");
        let err = Comparison::new(vec![ctx]).run().expect_err("damaged");
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains(file), "{err}");

        let (code, stderr) = report(input);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(last.starts_with("error: read "), "{stderr}");
        assert!(
            last.contains("checksum mismatch") && last.contains(file),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
