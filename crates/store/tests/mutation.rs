//! Deterministic mutation battery for the projected chunk decode.
//!
//! One encoded chunk payload from each frozen multi-chunk fixture (format
//! v1 and v2 — the payload codec is the same, the files are not) is
//! truncated at every length and has every bit flipped in turn. Under the
//! projections ∅, each single column and all ten,
//! [`columns::decode_projected`] must then give either the values of the
//! byte-at-a-time full decode restricted to the projection, or that
//! decode's error — same variant, same context — and never panic:
//! skipping a column checks exactly what decoding it checks.

use std::path::PathBuf;
use swim_store::format::columns::{self, ColumnSet};
use swim_store::format::CHUNK_HEADER_LEN;
use swim_store::{varint, Store, StoreError, ZONE_COLUMNS};

/// The numeric columns as the decoder read them before the word loop: a
/// count check, then one [`varint::get_u64`] per value. Returns the
/// columns and the offset just past them.
fn reference(payload: &[u8], n: usize) -> Result<([Vec<u64>; ZONE_COLUMNS], usize), StoreError> {
    let mut pos = 0;
    let mut cols: [Vec<u64>; ZONE_COLUMNS] = Default::default();
    for (column, values) in cols.iter_mut().enumerate() {
        if n > payload.len() - pos {
            return Err(StoreError::Corrupt {
                context: "column count exceeds remaining chunk bytes",
            });
        }
        let mut prev = 0u64;
        for _ in 0..n {
            let v = varint::get_u64(payload, &mut pos)?;
            // id and submit are stored as wrapping deltas.
            prev = if column < 2 { prev.wrapping_add(v) } else { v };
            values.push(prev);
        }
    }
    Ok((cols, pos))
}

fn projections() -> Vec<ColumnSet> {
    let singles = (0..ZONE_COLUMNS).map(|c| ColumnSet::EMPTY.with(c));
    [ColumnSet::EMPTY, ColumnSet::ALL]
        .into_iter()
        .chain(singles)
        .collect()
}

/// Every projection of `payload` against the reference; returns whether
/// the payload was accepted.
fn check(payload: &[u8], n: usize, what: &str) -> bool {
    let expected = reference(payload, n).map_err(|e| format!("{e:?}"));
    for set in projections() {
        let got = columns::decode_projected(payload, n, set).map_err(|e| format!("{e:?}"));
        match (&expected, got) {
            (Ok((full, _)), Ok(chunk)) => {
                assert_eq!(chunk.rows, n, "{what}, {set:?}");
                for (c, values) in chunk.cols.iter().enumerate() {
                    if set.contains(c) {
                        assert_eq!(values, &full[c], "{what}, {set:?}, column {c}");
                    } else {
                        assert!(values.is_empty(), "{what}, {set:?}, column {c}");
                    }
                }
            }
            (Err(expected), Err(got)) => assert_eq!(&got, expected, "{what}, {set:?}"),
            (expected, got) => panic!("{what}, {set:?}: expected {expected:?}, got {got:?}"),
        }
    }
    expected.is_ok()
}

/// Chunk `idx` of a fixture: its job count and raw payload.
fn chunk_payload(fixture: &str, version: u16, idx: usize) -> (usize, Vec<u8>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let store = Store::open(&path).expect("fixture opens");
    assert_eq!(store.format_version(), version);
    let meta = store.chunk_meta()[idx];
    let file = std::fs::read(&path).expect("fixture reads");
    let block = &file[meta.offset as usize..][..meta.block_len as usize];
    (meta.job_count as usize, block[CHUNK_HEADER_LEN..].to_vec())
}

fn battery(fixture: &str, version: u16, idx: usize) {
    let (n, payload) = chunk_payload(fixture, version, idx);
    let (_, numeric_end) = reference(&payload, n).expect("the fixture decodes");
    assert!(check(&payload, n, "intact"));
    // The numeric decode stops at `numeric_end`; a few bytes of what
    // follows (name lengths) stay, so word loads at the end of the last
    // column see real neighbours, and the rest is cut to keep this fast.
    let payload = &payload[..payload.len().min(numeric_end + 12)];
    assert!(check(payload, n, "trimmed"));

    let mut rejected = 0;
    for len in 0..payload.len() {
        let accepted = check(&payload[..len], n, &format!("truncated to {len}"));
        assert_eq!(accepted, len >= numeric_end, "truncated to {len}");
        rejected += usize::from(!accepted);
    }
    assert_eq!(rejected, numeric_end);

    // Flipped payload bits change a value. Flipped continuation bits
    // change the framing: every later value moves, and a varint that
    // grew by a byte runs the decode off the end — unless bytes follow,
    // so flip with the tail (nearly all accepted, shifted) and without.
    for payload in [payload, &payload[..numeric_end]] {
        let (mut accepted, mut rejected) = (0, 0);
        let mut mutated = payload.to_vec();
        for bit in 0..payload.len() * 8 {
            mutated[bit / 8] ^= 1 << (bit % 8);
            if check(&mutated, n, &format!("bit {bit} flipped")) {
                accepted += 1;
            } else {
                rejected += 1;
            }
            mutated[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(accepted > rejected, "{accepted} / {rejected}");
        assert!(
            rejected > 0 || payload.len() > numeric_end,
            "{accepted} / {rejected}"
        );
    }

    // A job count no payload could hold is refused before any column is
    // reserved for it, whatever the projection.
    for absurd in [payload.len() + 1, 1 << 40, usize::MAX] {
        for set in projections() {
            assert!(matches!(
                columns::decode_projected(payload, absurd, set),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }
}

#[test]
fn v1_chunk_payload_survives_truncation_and_bit_flips_under_every_projection() {
    battery("v1-multichunk.swim", 1, 0);
}

#[test]
fn v2_chunk_payload_survives_truncation_and_bit_flips_under_every_projection() {
    // A different chunk than the v1 run, and the short last one (8 jobs:
    // one word of one-byte varints per narrow column).
    battery("v2-multichunk.swim", 2, 3);
    battery("v2-multichunk.swim", 2, 7);
}

#[test]
fn the_v2_fixture_holds_the_v1_fixtures_jobs() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let v1 = Store::open(dir.join("v1-multichunk.swim")).expect("opens");
    let v2 = Store::open(dir.join("v2-multichunk.swim")).expect("opens");
    assert_eq!((v1.format_version(), v2.format_version()), (1, 2));
    assert_eq!(v1.chunk_count(), v2.chunk_count());
    assert_eq!(
        v1.read_trace().expect("decodes"),
        v2.read_trace().expect("decodes")
    );
}
