//! Backward compatibility with format version 1.
//!
//! `tests/fixtures/v1-sample.swim` is a version-1 file written before the
//! zone-map section existed (a frozen copy of `testdata/sample-b.swim`,
//! CC-b slice, 300 jobs/chunk default chunking). It is checked in and
//! never regenerated: these tests prove that v2 readers keep opening,
//! scanning, and querying v1 files bit-for-bit.

use std::path::PathBuf;
use swim_store::{store_to_vec, Store, StoreOptions};
use swim_trace::Timestamp;

fn v1_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-sample.swim")
}

#[test]
fn v1_fixture_is_actually_version_1() {
    let store = Store::open(v1_fixture()).expect("v1 fixture opens");
    assert_eq!(store.format_version(), 1);
}

#[test]
fn v1_multichunk_fixture_round_trips_identically() {
    // Same jobs, 64 per chunk (8 chunks): used by swim-query's v1
    // pruning tests. Both fixtures decode to the same trace.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let multi = Store::open(dir.join("v1-multichunk.swim")).expect("opens");
    assert_eq!(multi.format_version(), 1);
    assert!(multi.chunk_count() > 1);
    let single = Store::open(v1_fixture()).expect("opens");
    assert_eq!(
        multi.read_trace().expect("decodes"),
        single.read_trace().expect("decodes")
    );
    assert_eq!(multi.summary(), single.summary());
}

#[test]
fn v1_fixture_opens_scans_and_summarizes() {
    let store = Store::open(v1_fixture()).expect("v1 fixture opens");
    let trace = store.read_trace().expect("v1 fixture decodes");
    assert!(!trace.is_empty());
    // The footer summary, the parallel re-scan, and the in-memory path
    // must all agree on a v1 file.
    assert_eq!(store.summary(), trace.summary());
    assert_eq!(store.par_summary().expect("par scan"), trace.summary());
}

#[test]
fn v1_zone_maps_are_synthesized_and_permissive() {
    let store = Store::open(v1_fixture()).expect("v1 fixture opens");
    assert_eq!(store.zone_maps().len(), store.chunk_count());
    for (zone, meta) in store.zone_maps().iter().zip(store.chunk_meta()) {
        // Submit bounds come from the v1 index verbatim …
        assert_eq!(
            zone.min[swim_store::ZoneMap::SUBMIT],
            meta.min_submit.secs()
        );
        assert_eq!(
            zone.max[swim_store::ZoneMap::SUBMIT],
            meta.max_submit.secs()
        );
        // … every other column is full-range, so nothing can be skipped
        // incorrectly.
        for c in (0..swim_store::ZONE_COLUMNS).filter(|&c| c != swim_store::ZoneMap::SUBMIT) {
            assert_eq!(zone.min[c], 0);
            assert_eq!(zone.max[c], u64::MAX);
        }
    }
}

#[test]
fn v1_and_v2_encodings_of_the_same_trace_agree() {
    let store_v1 = Store::open(v1_fixture()).expect("v1 fixture opens");
    let trace = store_v1.read_trace().expect("decodes");

    // Re-encode with the current writer: a v2 file with real zone maps.
    let store_v2 = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).unwrap();
    assert_eq!(store_v2.format_version(), swim_store::format::VERSION);
    assert_eq!(store_v2.read_trace().unwrap(), trace);
    assert_eq!(store_v2.summary(), store_v1.summary());

    // Range scans agree across versions (v1 still skips on submit).
    let (from, to) = (
        Timestamp::from_secs(3_600),
        Timestamp::from_secs(2 * 86_400),
    );
    let in_range = |store: &Store| -> Vec<_> {
        let jobs = store.scan_range(from, to).unwrap().jobs();
        jobs.map(|j| j.expect("decodes")).collect()
    };
    assert_eq!(in_range(&store_v1), in_range(&store_v2));
}
