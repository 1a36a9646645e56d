//! Deterministic mutation battery for the store's decoders.
//!
//! **Versions 3, 4 and 5** (`v3-multichunk.swim`, `v4-multichunk.swim`
//! and `v5-multichunk.swim`, the same 40 jobs in varint blocks, in packed
//! blocks and with path ids as references; whole files), read under the
//! projections ∅, each single column and all ten, and as jobs: every
//! truncation is a typed error at open, and every single flipped bit is
//! a typed error for whoever reads the damaged part — at open for the
//! header, footer and trailer, and otherwise for every read of the chunk
//! it is in, except that a column block of a version-5 chunk is read by
//! exactly the projections that name it (versions 3 and 4 are read
//! rows-only) — while every other read still gives the intact file's
//! values. Never a panic, never `Ok` with different values; a full-row
//! read refuses every flip.
//!
//! **Versions 1 and 2** carry no checksums and are read rows-only, so
//! the promise is weaker and made of one chunk payload from each frozen
//! fixture (the payload codec is the same, the files are not): every
//! truncation of it is refused, and with every bit flipped in turn
//! [`columns::decode`] gives a typed error or a chunk of the right
//! length — never a panic.

use std::path::PathBuf;
use swim_store::format::columns::{self, ChunkColumns, ColumnSet};
use swim_store::format::{self, CHUNK_HEADER_LEN};
use swim_store::{Store, StoreError, ZONE_COLUMNS};
use swim_trace::Job;

fn projections() -> Vec<ColumnSet> {
    let singles = (0..ZONE_COLUMNS).map(|c| ColumnSet::EMPTY.with(c));
    [ColumnSet::EMPTY, ColumnSet::ALL]
        .into_iter()
        .chain(singles)
        .collect()
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

/// One version-1 or -2 chunk payload, cut short at every length and
/// with every bit flipped in turn, decoded as rows — which is what every
/// projection of such a chunk decodes.
fn battery(fixture: &str, version: u16, idx: usize) {
    let (n, payload) = chunk_payload(fixture, version, idx);
    let decode = |payload: &[u8], n: usize| columns::decode(version, payload, n);
    assert_eq!(decode(&payload, n).expect("the fixture decodes").len(), n);

    // The decode consumes the payload to its last byte, so any shorter
    // one runs out.
    for len in 0..payload.len() {
        match decode(&payload[..len], n) {
            Err(e) => assert_typed(&e, &format!("truncated to {len}")),
            Ok(_) => panic!("truncated to {len}: accepted"),
        }
    }

    let (mut accepted, mut rejected) = (0u32, 0u32);
    let mut mutated = payload.clone();
    for bit in 0..payload.len() * 8 {
        mutated[bit / 8] ^= 1 << (bit % 8);
        match decode(&mutated, n) {
            Err(e) => {
                assert_typed(&e, &format!("bit {bit} flipped"));
                rejected += 1;
            }
            Ok(jobs) => {
                assert_eq!(jobs.len(), n, "bit {bit} flipped");
                accepted += 1;
            }
        }
        mutated[bit / 8] ^= 1 << (bit % 8);
    }
    // A flipped value bit changes a value; a flipped continuation bit
    // moves the framing, and the decode mostly runs off the end.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");

    // A job count no payload could hold is refused before any column is
    // reserved for it.
    for absurd in [payload.len() + 1, 1 << 40, usize::MAX] {
        assert!(matches!(
            decode(&payload, absurd),
            Err(StoreError::Corrupt { .. })
        ));
    }
}

#[test]
fn v1_chunk_payload_survives_truncation_and_bit_flips_under_every_projection() {
    battery("v1-multichunk.swim", 1, 0);
}

#[test]
fn v2_chunk_payload_survives_truncation_and_bit_flips_under_every_projection() {
    // A different chunk than the v1 run, and the short last one (8 jobs).
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

#[test]
fn the_v3_fixture_holds_the_first_jobs_of_the_v1_fixture() {
    // Small enough to flip every bit of: 40 jobs, 16 to a chunk.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let v1 = Store::open(dir.join("v1-multichunk.swim")).expect("opens");
    let v3 = Store::open(dir.join("v3-multichunk.swim")).expect("opens");
    assert_eq!((v3.format_version(), v3.chunk_count()), (3, 3));
    assert_eq!(
        v3.read_trace().expect("decodes").jobs(),
        &v1.read_trace().expect("decodes").jobs()[..40]
    );
}

#[test]
fn the_v4_fixture_holds_the_v3_fixtures_jobs_in_fewer_bytes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let v3 = Store::open(dir.join("v3-multichunk.swim")).expect("opens");
    let v4 = Store::open(dir.join("v4-multichunk.swim")).expect("opens");
    assert_eq!((v4.format_version(), v4.chunk_count()), (4, 3));
    assert_eq!(
        v4.read_trace().expect("decodes"),
        v3.read_trace().expect("decodes")
    );
    let block_bytes =
        |store: &Store| -> u64 { store.chunk_meta().iter().map(|c| c.block_len).sum() };
    assert!(block_bytes(&v4) < block_bytes(&v3));
}

#[test]
fn the_v5_fixture_holds_the_v4_fixtures_jobs() {
    // At this size the two extra blocks a chunk carries outweigh what
    // the references save, so no byte count is compared.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let v4 = Store::open(dir.join("v4-multichunk.swim")).expect("opens");
    let v5 = Store::open(dir.join("v5-multichunk.swim")).expect("opens");
    assert_eq!((v5.format_version(), v5.chunk_count()), (5, 3));
    assert_eq!(
        v5.read_trace().expect("decodes"),
        v4.read_trace().expect("decodes")
    );
}

/// Everything there is to read in a store image: each chunk under each
/// projection, and each chunk's jobs.
struct Reading {
    columns: Vec<Vec<Result<ChunkColumns, StoreError>>>,
    jobs: Vec<Result<Vec<Job>, StoreError>>,
}

fn read_everything(image: &[u8]) -> Result<Reading, StoreError> {
    let store = Store::from_vec(image.to_vec())?;
    let mut reader = store.reader()?;
    let chunks = 0..store.chunk_count();
    Ok(Reading {
        columns: projections()
            .into_iter()
            .map(|set| chunks.clone().map(|c| reader.columns(c, set)).collect())
            .collect(),
        jobs: chunks.clone().map(|c| reader.jobs(c)).collect(),
    })
}

/// Damage is one of the four typed errors, and a checksum mismatch in
/// an in-memory image names no file.
fn assert_typed(e: &StoreError, what: &str) {
    assert!(
        matches!(
            e,
            StoreError::Checksum { path: None, .. }
                | StoreError::Corrupt { .. }
                | StoreError::Truncated { .. }
                | StoreError::UnsupportedVersion(_)
        ),
        "{what}: {e:?}"
    );
}

/// Which reads a byte of a file of version 3 or later belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Owner {
    /// Header, footer, checksum or trailer: read at open.
    Meta,
    /// A chunk's fixed header or a length in its table, or any byte of
    /// a version-3 or -4 chunk (read rows-only): every read of the chunk.
    Framing(usize),
    /// A version-5 chunk's column block or that block's stored
    /// checksum: the reads that decode the block.
    Block(usize, usize),
}

impl Owner {
    /// `true` iff a read of `chunk` that decodes the blocks `decodes`
    /// says yes to comes across the byte.
    fn met_by(self, chunk: usize, decodes: impl Fn(usize) -> bool) -> bool {
        match self {
            Owner::Meta => false,
            Owner::Framing(c) => c == chunk,
            Owner::Block(c, block) => c == chunk && decodes(block),
        }
    }
}

/// The owner of every byte of `image`, from its own index and tables.
fn owners(image: &[u8]) -> Vec<Owner> {
    let store = Store::from_vec(image.to_vec()).expect("intact");
    let mut owners = vec![Owner::Meta; image.len()];
    for (chunk, meta) in store.chunk_meta().iter().enumerate() {
        let start = meta.offset as usize;
        owners[start..][..meta.block_len as usize].fill(Owner::Framing(chunk));
        if store.format_version() < format::VERSION {
            continue;
        }
        let table = start + CHUNK_HEADER_LEN;
        let mut at = table + columns::TABLE_LEN;
        for block in 0..columns::BLOCKS {
            let entry = table + block * 16;
            let len = u64::from_le_bytes(image[entry..entry + 8].try_into().unwrap()) as usize;
            owners[entry + 8..entry + 16].fill(Owner::Block(chunk, block));
            owners[at..at + len].fill(Owner::Block(chunk, block));
            at += len;
        }
        assert_eq!(at as u64, meta.offset + meta.block_len);
    }
    owners
}

#[test]
fn every_flipped_bit_of_a_v3_file_is_a_typed_error_for_whoever_reads_it() {
    flip_battery("v3-multichunk.swim", 3);
}

#[test]
fn every_flipped_bit_of_a_v4_file_is_a_typed_error_for_whoever_reads_it() {
    flip_battery("v4-multichunk.swim", 4);
}

#[test]
fn every_flipped_bit_of_a_v5_file_is_a_typed_error_for_whoever_reads_it() {
    flip_battery("v5-multichunk.swim", 5);
}

/// Every bit of `fixture`, a file with a block table, flipped in turn
/// and every truncation of it, read under every projection and as jobs.
fn flip_battery(fixture: &str, version: u16) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let image = std::fs::read(path).expect("fixture reads");
    let opened = Store::from_vec(image.clone()).expect("fixture opens");
    assert_eq!(opened.format_version(), version);
    let intact = read_everything(&image).expect("fixture opens");
    assert!(intact.columns.iter().flatten().all(Result::is_ok));
    assert!(intact.jobs.iter().all(Result::is_ok));
    let owners = owners(&image);
    let sets = projections();

    let mut mutated = image.clone();
    let (mut at_open, mut at_read, mut unread) = (0u32, 0u32, 0u32);
    for bit in 0..image.len() * 8 {
        let what = format!("bit {bit} flipped");
        mutated[bit / 8] ^= 1 << (bit % 8);
        let reading = read_everything(&mutated);
        mutated[bit / 8] ^= 1 << (bit % 8);
        let owner = owners[bit / 8];
        let reading = match reading {
            Err(e) => {
                assert_eq!(owner, Owner::Meta, "{what}: {e:?}");
                assert_typed(&e, &what);
                at_open += 1;
                continue;
            }
            Ok(reading) => reading,
        };
        assert_ne!(owner, Owner::Meta, "{what}: opened");
        for chunk in 0..intact.jobs.len() {
            for (p, set) in sets.iter().enumerate() {
                let damaged = owner.met_by(chunk, |block| set.contains(block));
                match &reading.columns[p][chunk] {
                    Err(e) => {
                        assert!(damaged, "{what}, chunk {chunk}, {set:?}: {e:?}");
                        assert_typed(e, &what);
                        at_read += 1;
                    }
                    Ok(columns) => {
                        assert!(!damaged, "{what}, chunk {chunk}, {set:?}: accepted");
                        assert_eq!(Some(columns), intact.columns[p][chunk].as_ref().ok());
                        unread += 1;
                    }
                }
            }
            // A full-row read decodes every block.
            let damaged = owner.met_by(chunk, |_| true);
            match &reading.jobs[chunk] {
                Err(e) => {
                    assert!(damaged, "{what}, chunk {chunk}, jobs: {e:?}");
                    assert_typed(e, &what);
                }
                Ok(jobs) => {
                    assert!(!damaged, "{what}, chunk {chunk}, jobs: accepted");
                    assert_eq!(Some(jobs), intact.jobs[chunk].as_ref().ok());
                }
            }
        }
    }
    // The battery saw all three outcomes, in bulk.
    assert!(at_open > 5_000 && at_read > 5_000 && unread > 50_000);

    for len in 0..image.len() {
        match Store::from_vec(image[..len].to_vec()) {
            Err(e) => assert_typed(&e, &format!("truncated to {len}")),
            Ok(_) => panic!("truncated to {len}: opened"),
        }
    }
}
