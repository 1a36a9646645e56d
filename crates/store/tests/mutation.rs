//! Deterministic mutation battery for the store's decoders.
//!
//! `v5-multichunk.swim` (40 jobs, 16 to a chunk; the whole file), read
//! under the projections ∅, each single column and all ten, and as jobs:
//! every truncation is a typed error at open, and every single flipped
//! bit is a typed error for whoever reads the damaged part — at open for
//! the header, footer and trailer, for every read of the chunk for its
//! framing, and for exactly the projections that name a column block —
//! while every other read still gives the intact file's values. Never a
//! panic, never `Ok` with different values; a full-row read refuses
//! every flip.

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

#[test]
fn the_v5_fixture_holds_the_first_jobs_of_the_multichunk_fixture() {
    // Small enough to flip every bit of: 40 jobs, 16 to a chunk.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let multi = Store::open(dir.join("multichunk.swim")).expect("opens");
    let v5 = Store::open(dir.join("v5-multichunk.swim")).expect("opens");
    assert_eq!((multi.job_count(), multi.chunk_count()), (456, 8));
    assert_eq!(v5.chunk_count(), 3);
    let jobs = |store: &Store| -> Vec<Job> {
        let chunks = store.scan().expect("opens a reader");
        chunks.flat_map(|chunk| chunk.expect("decodes")).collect()
    };
    assert_eq!(jobs(&v5), jobs(&multi)[..40]);
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

/// Which reads a byte of a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Owner {
    /// Header, footer, checksum or trailer: read at open.
    Meta,
    /// A chunk's fixed header or a length in its table: every read of
    /// the chunk.
    Framing(usize),
    /// A chunk's column block or that block's stored checksum: the
    /// reads that decode the block.
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

/// Every bit of the fixture flipped in turn and every truncation of it,
/// read under every projection and as jobs.
#[test]
fn every_flipped_bit_of_a_v5_file_is_a_typed_error_for_whoever_reads_it() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v5-multichunk.swim");
    let image = std::fs::read(path).expect("fixture reads");
    let opened = Store::from_vec(image.clone()).expect("fixture opens");
    assert_eq!(opened.format_version(), format::VERSION);
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
