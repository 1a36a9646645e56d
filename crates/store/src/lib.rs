//! # swim-store
//!
//! A columnar, chunked, binary on-disk format for [`swim_trace::Trace`],
//! built for the paper's core access pattern: whole-trace and time-window
//! scans over multi-month, million-job histories (the FB-2009/FB-2010
//! traces in Table 1 run past a million jobs each).
//!
//! Three layers:
//!
//! 1. **Codec** — [`StoreWriter`] / [`Store`]: a little-endian layout
//!    (header / chunks / footer / trailer, see [`mod@format`]) with every
//!    integer column bit-packed per chunk at one width above the chunk's
//!    minimum, outliers patched in ([`mod@pack`]; id and submit as
//!    deltas), job names stored as a per-chunk
//!    stem dictionary plus numeric suffixes, and a checksum over every
//!    column block and over the file's metadata: damage is a typed
//!    [`StoreError::Checksum`], never a wrong number. Round trips are
//!    bit-exact for every [`swim_trace::Job`] field. The writer streams —
//!    jobs are pushed in blocks of any length and encoded as they arrive
//!    — and [`write_store`] is that writer fed a whole trace.
//! 2. **Scans** — [`Store::scan`] streams chunks at bounded memory;
//!    [`Store::reader`] hands out a [`ChunkReader`] that decodes any
//!    chunk as jobs or as a column projection, one per worker of a
//!    [`swim_obs::par_claim`] when the fold should use every core. The
//!    footer's per-chunk zone maps let a caller skip chunks a predicate
//!    cannot match (`swim-query` prunes time windows this way).
//! 3. **O(1) statistics** — the footer stores a whole-trace summary, so
//!    [`Store::summary`] answers Table-1 questions without any scan;
//!    recomputing it from the columns is a `swim-query` plan.
//!
//! ```
//! use swim_store::format::columns::ColumnSet;
//! use swim_store::{store_to_vec, Store, StoreOptions, ZoneMap};
//! use swim_trace::trace::WorkloadKind;
//! use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};
//!
//! let jobs = (0..10_000u64)
//!     .map(|i| {
//!         JobBuilder::new(i)
//!             .submit(Timestamp::from_secs(i * 30))
//!             .duration(Dur::from_secs(60))
//!             .input(DataSize::from_mb(64))
//!             .map_task_time(Dur::from_secs(120))
//!             .tasks(2, 0)
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! let trace = Trace::new(WorkloadKind::Custom("demo".into()), 50, jobs).unwrap();
//!
//! // Encode, reopen, and answer questions without materializing the trace.
//! let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).unwrap();
//! assert_eq!(store.summary(), trace.summary()); // O(1), from the footer
//!
//! // One hour out of ~83 from the submit column alone: the first
//! // chunk's names and paths are never decoded.
//! let submit = ColumnSet::EMPTY.with(ZoneMap::SUBMIT);
//! let first = store.reader().unwrap().columns(0, submit).unwrap();
//! let hour = first.cols[ZoneMap::SUBMIT].iter().filter(|&&s| s < 3600);
//! assert_eq!(hour.count(), 120);
//! let jobs: Vec<_> = store.scan().unwrap().flat_map(Result::unwrap).collect();
//! assert_eq!(jobs, trace.jobs());                        // bit-exact round trip
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod format;
pub mod pack;
pub mod store;
pub mod varint;
pub mod writer;

pub use error::StoreError;
pub use format::{
    ChunkMeta, StoredSummary, ZoneMap, DEFAULT_JOBS_PER_CHUNK, MAX_JOBS_PER_CHUNK, ZONE_COLUMNS,
};
pub use store::{ChunkReader, Store};
pub use writer::{
    store_to_vec, write_store, write_store_path, StoreOptions, StoreStats, StoreWriter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, PathId, Timestamp, Trace};

    fn varied_trace(n: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                let mut b = JobBuilder::new(i)
                    .name(format!("insert_{i}"))
                    .submit(Timestamp::from_secs(i * 97 % 50_000))
                    .duration(Dur::from_secs(1 + i % 399))
                    .input(DataSize::from_bytes(i.wrapping_mul(0x9E3779B9) % (1 << 40)))
                    .output(DataSize::from_bytes(i * 1000))
                    .map_task_time(Dur::from_secs(5 + i % 100))
                    .tasks(1 + (i % 30) as u32, (i % 3) as u32)
                    .input_paths(vec![PathId(i % 50), PathId(i % 7)]);
                if i % 3 > 0 {
                    b = b
                        .shuffle(DataSize::from_bytes(i * 13))
                        .reduce_task_time(Dur::from_secs(2 + i % 55));
                }
                b.build().unwrap()
            })
            .collect();
        Trace::new(WorkloadKind::Custom("varied".into()), 42, jobs).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let trace = varied_trace(1_000);
        for jobs_per_chunk in [1u32, 7, 128, 4096] {
            let bytes = store_to_vec(&trace, &StoreOptions { jobs_per_chunk });
            let store = Store::from_vec(bytes).unwrap();
            assert_eq!(
                store.read_trace().unwrap(),
                trace,
                "chunk size {jobs_per_chunk}"
            );
        }
    }

    #[test]
    fn summary_matches_in_memory_path() {
        let trace = varied_trace(2_000);
        let store =
            Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 64 })).unwrap();
        assert_eq!(store.summary(), trace.summary());
        assert_eq!(store.job_count(), 2_000);
        assert_eq!(store.chunk_count(), 2_000usize.div_ceil(64));
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new(WorkloadKind::Fb2009, 600, vec![]).unwrap();
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).unwrap();
        assert_eq!(store.read_trace().unwrap(), trace);
        assert_eq!(store.summary(), trace.summary());
        assert_eq!(store.chunk_count(), 0);
    }

    #[test]
    fn v2_stores_carry_zone_maps_for_every_numeric_column() {
        let trace = varied_trace(500);
        let store =
            Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 64 })).unwrap();
        assert_eq!(store.format_version(), crate::format::VERSION);
        assert_eq!(store.zone_maps().len(), store.chunk_count());
        // Every chunk's zone map brackets every job in the chunk, per
        // column, and is tight (attained by some job).
        let all: Vec<usize> = (0..store.chunk_count()).collect();
        let chunks = store
            .fold_columns(&all, Vec::new(), |mut acc, _, cols| {
                acc.push(cols.clone());
                acc
            })
            .unwrap();
        for (idx, (zone, cols)) in store.zone_maps().iter().zip(&chunks).enumerate() {
            let view = cols.view();
            let per_col: [&[u64]; ZONE_COLUMNS] = std::array::from_fn(|c| view.column(c));
            for (c, values) in per_col.iter().enumerate() {
                assert_eq!(
                    zone.min[c],
                    *values.iter().min().unwrap(),
                    "chunk {idx} col {c}"
                );
                assert_eq!(
                    zone.max[c],
                    *values.iter().max().unwrap(),
                    "chunk {idx} col {c}"
                );
            }
        }
    }

    #[test]
    fn fold_columns_serial_equals_parallel() {
        let trace = varied_trace(2_000);
        let store = Store::from_vec(store_to_vec(
            &trace,
            &StoreOptions {
                jobs_per_chunk: 128,
            },
        ))
        .unwrap();
        let selected: Vec<usize> = (0..store.chunk_count()).step_by(2).collect();
        // Input alone: the serial fold over all ten columns, the
        // projecting reader over the one the sum reads — so projection ≡
        // full decode restricted to the set.
        let input = format::ZoneMap::IO[0];
        let sum = |values: &[u64]| values.iter().fold(0u64, |a, &v| a.saturating_add(v));
        let serial = store
            .fold_columns(&selected, (0, 0u64), |acc, _idx, cols| {
                (
                    acc.0 + cols.len() as u64,
                    acc.1.saturating_add(sum(&cols.cols[input])),
                )
            })
            .unwrap();
        let set = format::columns::ColumnSet::EMPTY.with(input);
        let projected = |threads: usize| {
            let parts = swim_obs::par_claim(selected.len(), threads, |claims| {
                let mut reader = store.reader().unwrap();
                claims.fold((0u64, 0u64), |acc, slot| {
                    let chunk = reader.columns(selected[slot], set).unwrap();
                    assert!(chunk
                        .cols
                        .iter()
                        .enumerate()
                        .all(|(c, v)| c == input || v.is_empty()));
                    (
                        acc.0 + chunk.rows as u64,
                        acc.1.saturating_add(sum(&chunk.cols[input])),
                    )
                })
            });
            parts
                .into_iter()
                .fold((0, 0u64), |a, b| (a.0 + b.0, a.1.saturating_add(b.1)))
        };
        assert_eq!(serial, projected(1));
        assert_eq!(serial, projected(4));
        assert!(serial.0 > 0);
    }

    #[test]
    fn readers_decode_in_any_order_and_interleaved() {
        let trace = varied_trace(1_000);
        let dir = std::env::temp_dir().join(format!("swim-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("readers_any_order.swim");
        write_store_path(&trace, &path, &StoreOptions { jobs_per_chunk: 64 }).unwrap();
        let store = Store::open(&path).unwrap();
        let in_order: Vec<_> = store.scan().unwrap().map(Result::unwrap).collect();
        let n = in_order.len();
        assert_eq!(n, store.chunk_count());
        // One reader, chunks in a shuffled order (7 is coprime to 16).
        assert_eq!(n, 16);
        let mut reader = store.reader().unwrap();
        for idx in (0..n).map(|i| i * 7 % n) {
            assert_eq!(reader.jobs(idx).unwrap(), in_order[idx], "chunk {idx}");
        }
        // Two readers interleaved, one walking up and one down: each
        // keeps its own file position, and every read seeks.
        let mut down = store.reader().unwrap();
        let all = format::columns::ColumnSet::ALL;
        for idx in 0..n {
            assert_eq!(reader.jobs(idx).unwrap(), in_order[idx]);
            let cols = down.columns(n - 1 - idx, all).unwrap();
            assert_eq!(cols.rows, in_order[n - 1 - idx].len());
            let submits: Vec<u64> = in_order[n - 1 - idx]
                .iter()
                .map(|j| j.submit.secs())
                .collect();
            assert_eq!(cols.cols[format::ZoneMap::SUBMIT], submits);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backed_store_round_trips() {
        let trace = varied_trace(500);
        let dir = std::env::temp_dir().join(format!("swim-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file_backed_round_trip.swim");
        write_store_path(
            &trace,
            &path,
            &StoreOptions {
                jobs_per_chunk: 100,
            },
        )
        .unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.read_trace().unwrap(), trace);
        std::fs::remove_file(&path).unwrap();
    }

    /// 4,096 copies of one job (ids aside), `paths` on each, written to
    /// the file `name`: the trace and the file's path.
    fn identical_jobs_file(name: &str, paths: Vec<PathId>) -> (Trace, std::path::PathBuf) {
        let jobs = (1..=4096u64)
            .map(|id| {
                JobBuilder::new(id)
                    .name("insert_7")
                    .submit(Timestamp::from_secs(86_400))
                    .duration(Dur::from_secs(30))
                    .input(DataSize::from_mb(64))
                    .map_task_time(Dur::from_secs(20))
                    .tasks(1, 0)
                    .input_paths(paths.clone())
                    .output_paths(paths.clone())
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::CcA, 5, jobs).unwrap();
        let dir = std::env::temp_dir().join(format!("swim-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_store_path(&trace, &path, &StoreOptions::default()).unwrap();
        (trace, path)
    }

    #[test]
    fn a_chunk_of_identical_jobs_packs_every_block_at_width_0() {
        let (trace, path) = identical_jobs_file("identical.swim", vec![]);
        let store = Store::open(&path).unwrap();
        // Far fewer bytes than jobs: the job count is bounded by the
        // header's chunk size, not by the chunk's length.
        let meta = store.chunk_meta()[0];
        assert_eq!((store.chunk_count(), meta.job_count), (1, 4096));
        assert!(meta.block_len < 400, "{} bytes", meta.block_len);
        assert_eq!(store.read_trace().unwrap(), trace);
        // Every integer block but the path reference kinds (never width
        // 0) has width 0: ids 1, 2, … are steps of one, the one submit
        // time a step from zero and then none, the one suffix likewise.
        let image = std::fs::read(&path).unwrap();
        let table = meta.offset as usize + format::CHUNK_HEADER_LEN;
        let mut at = table + format::columns::TABLE_LEN;
        for block in 0..format::columns::BLOCKS {
            let entry = table + block * 16;
            let len = u64::from_le_bytes(image[entry..entry + 8].try_into().unwrap()) as usize;
            if ![10, 15].contains(&block) {
                let mut pos = at;
                varint::get_u64(&image, &mut pos).unwrap();
                assert_eq!(image[pos], 0, "block {block}");
            }
            at += len;
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_job_reading_the_same_three_paths_round_trips() {
        let paths = vec![PathId(3), PathId(1 << 40), PathId(3)];
        let (trace, path) = identical_jobs_file("same-paths.swim", paths);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.read_trace().unwrap(), trace);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_and_write_errors_name_the_offending_file() {
        let missing = std::env::temp_dir().join("swim-store-no-such-file-ever.swim");
        let err = Store::open(&missing).expect_err("missing file cannot open");
        assert!(
            matches!(err, StoreError::File { .. }),
            "unexpected error {err:?}"
        );
        let rendered = err.to_string();
        assert!(
            rendered.contains("swim-store-no-such-file-ever.swim"),
            "path missing from message: {rendered}"
        );

        let bad_dir = std::env::temp_dir()
            .join("swim-store-no-such-dir-ever")
            .join("out.swim");
        let trace = varied_trace(3);
        let err = write_store_path(&trace, &bad_dir, &StoreOptions::default())
            .expect_err("write into a missing directory must fail");
        assert!(
            err.to_string().contains("swim-store-no-such-dir-ever"),
            "path missing from message: {err}"
        );
    }

    #[test]
    fn job_scan_streams_all_jobs_in_order() {
        let trace = varied_trace(700);
        let store =
            Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 64 })).unwrap();
        let chunks: Result<Vec<_>, _> = store.scan().unwrap().collect();
        assert_eq!(chunks.unwrap().concat(), trace.jobs());
    }

    #[test]
    fn corruption_is_detected() {
        let trace = varied_trace(300);
        let bytes = store_to_vec(
            &trace,
            &StoreOptions {
                jobs_per_chunk: 100,
            },
        );

        // Flip a byte inside the first chunk: it opens (the index still
        // lines up) and the chunk is refused when it is read.
        let mut corrupt = bytes.clone();
        corrupt[60] ^= 0xFF;
        let store = Store::from_vec(corrupt).unwrap();
        assert!(store.scan().unwrap().any(|c| c.is_err()));

        // Truncate the trailer.
        let truncated = bytes[..bytes.len() - 5].to_vec();
        assert!(Store::from_vec(truncated).is_err());

        // Damage the trailer magic.
        let mut bad_end = bytes.clone();
        let n = bad_end.len();
        bad_end[n - 1] ^= 0xFF;
        assert!(matches!(
            Store::from_vec(bad_end),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn compression_beats_csv_on_size() {
        let trace = varied_trace(5_000);
        let bytes = store_to_vec(&trace, &StoreOptions::default());
        let mut csv = Vec::new();
        swim_trace::io::write_csv(&trace, &mut csv).unwrap();
        assert!(
            bytes.len() < csv.len(),
            "store {} bytes should undercut CSV {} bytes",
            bytes.len(),
            csv.len()
        );
    }

    #[test]
    fn paper_kind_and_machines_survive() {
        let trace = Trace::new(
            WorkloadKind::CcD,
            450,
            vec![JobBuilder::new(1)
                .submit(Timestamp::from_secs(5))
                .input(DataSize::from_gb(1))
                .map_task_time(Dur::from_secs(9))
                .tasks(3, 0)
                .build()
                .unwrap()],
        )
        .unwrap();
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).unwrap();
        assert_eq!(store.kind(), &WorkloadKind::CcD);
        assert_eq!(store.machines(), 450);
        assert_eq!(store.summary().workload, "CC-d");
    }
}
