//! The `swim-obs` instruments of the read side. They are process-wide,
//! so this file holds one test and reads them as deltas.

use std::path::PathBuf;
use swim_store::format::columns::{ChunkColumns, ColumnSet};
use swim_store::{format, Store, StoreError, ZoneMap, ZONE_COLUMNS};

fn projections() -> Vec<ColumnSet> {
    let singles = (0..ZONE_COLUMNS).map(|c| ColumnSet::EMPTY.with(c));
    [ColumnSet::EMPTY, ColumnSet::ALL]
        .into_iter()
        .chain(singles)
        .collect()
}

/// A projected read decodes just the columns asked for, is counted as
/// that, and gives the chunk's jobs projected.
///
/// A damaged file is counted where it is refused: once per read that
/// meets the damage, at open or at decode, and never by a read that
/// does not. The decode counters still count the refused attempt.
#[test]
fn checksum_failures_count_refused_reads() {
    swim_obs::set_enabled(swim_obs::ALL);
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let counter = |delta: &swim_obs::Snapshot, name| delta.counter(name).unwrap_or(0);

    for fixture in ["multichunk.swim", "v5-multichunk.swim"] {
        let store = Store::open(fixtures.join(fixture)).unwrap();
        assert_eq!(store.format_version(), format::VERSION);
        let mut reader = store.reader().unwrap();
        for chunk in 0..store.chunk_count() {
            let jobs = reader.jobs(chunk).unwrap();
            for set in projections() {
                let before = swim_obs::snapshot();
                let columns = reader.columns(chunk, set).unwrap();
                let delta = swim_obs::snapshot().delta(&before);
                let what = format!("{fixture}, chunk {chunk}, {set:?}");
                assert_eq!(columns, ChunkColumns::project(&jobs, set), "{what}");
                let kept = set.len();
                let counts = [
                    "store.chunks_decoded",
                    "store.columns_decoded",
                    "store.columns_skipped",
                ]
                .map(|name| counter(&delta, name));
                assert_eq!(
                    counts,
                    [1, kept as u64, (ZONE_COLUMNS - kept) as u64],
                    "{what}"
                );
            }
        }
    }

    let image = std::fs::read(fixtures.join("v5-multichunk.swim")).unwrap();
    let dir = std::env::temp_dir().join(format!("swim-store-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The last byte of chunk 1 (in its last path block), found through
    // the index.
    let meta = Store::from_vec(image.clone()).unwrap().chunk_meta()[1];
    let mut damaged = image.clone();
    damaged[(meta.offset + meta.block_len) as usize - 1] ^= 0x40;
    let path = dir.join("damaged-chunk.swim");
    std::fs::write(&path, &damaged).unwrap();

    let before = swim_obs::snapshot();
    let store = Store::open(&path).unwrap();
    let mut reader = store.reader().unwrap();
    let submit = ColumnSet::EMPTY.with(ZoneMap::SUBMIT);
    for chunk in 0..3 {
        reader.columns(chunk, submit).unwrap();
        reader.columns(chunk, ColumnSet::ALL).unwrap();
    }
    let delta = swim_obs::snapshot().delta(&before);
    assert_eq!(counter(&delta, "store.checksum_failures"), 0);

    let before = swim_obs::snapshot();
    reader.jobs(0).unwrap();
    let refused = reader
        .jobs(1)
        .expect_err("a full-row read decodes every block");
    assert!(
        matches!(&refused, StoreError::Checksum { path: Some(p), .. } if *p == path),
        "{refused:?}"
    );
    assert_eq!(
        refused.to_string(),
        format!("checksum mismatch in {}: column block", path.display())
    );
    assert!(store.scan().unwrap().any(|chunk| chunk.is_err()));
    let delta = swim_obs::snapshot().delta(&before);
    assert_eq!(counter(&delta, "store.checksum_failures"), 2);
    // jobs(0), jobs(1), then the scan's chunks 0 and 1.
    assert_eq!(counter(&delta, "store.chunks_decoded"), 4);
    assert_eq!(
        counter(&delta, "store.columns_decoded"),
        4 * ZONE_COLUMNS as u64
    );

    // One bit of the footer: refused at open, counted once, named.
    let mut damaged = image.clone();
    let footer_byte = image.len() - 60;
    damaged[footer_byte] ^= 1;
    let path = dir.join("damaged-footer.swim");
    std::fs::write(&path, &damaged).unwrap();
    let before = swim_obs::snapshot();
    let refused = Store::open(&path).expect_err("the footer is verified at open");
    assert_eq!(
        refused.to_string(),
        format!("checksum mismatch in {}: header and footer", path.display())
    );
    let delta = swim_obs::snapshot().delta(&before);
    assert_eq!(counter(&delta, "store.checksum_failures"), 1);
    assert_eq!(counter(&delta, "store.chunks_decoded"), 0);

    swim_obs::set_enabled(0);
    std::fs::remove_dir_all(&dir).unwrap();
}
