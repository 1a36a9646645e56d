//! Writing traces into the columnar store format.
//!
//! There is one writer, [`StoreWriter`], and it is streaming: jobs are
//! pushed in blocks of any length, each job is encoded as it arrives
//! ([`format::columns::Encoder`]) and never kept, a chunk block is
//! written every `jobs_per_chunk` jobs, and the footer index accumulates
//! in memory (200 bytes per chunk). Writing therefore needs one chunk's
//! encoded bytes plus the index, however long the store;
//! [`write_store`] is the same writer fed a whole trace.

use crate::format::{
    self, ChunkMeta, Footer, Header, StoredSummary, ZoneMap, DEFAULT_JOBS_PER_CHUNK,
    MAX_JOBS_PER_CHUNK, VERSION,
};
use crate::StoreError;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use swim_trace::trace::WorkloadKind;
use swim_trace::{Job, JobId, Timestamp, Trace};

/// swim-obs instruments for the write side (see [`crate::store`] for the
/// read side). Counter names are API.
mod obs {
    use swim_obs::Counter;

    /// Chunk blocks encoded and handed to the writer.
    pub static CHUNKS_ENCODED: Counter = Counter::new("store.chunks_encoded");
    /// Bytes handed to the writer: header, chunk blocks, footer and
    /// trailer, so one store's share is its file size.
    pub static BYTES_WRITTEN: Counter = Counter::new("store.bytes_written");
}

/// Tuning knobs for [`StoreWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Jobs per chunk (chunk-skip granularity). Zero is rejected by
    /// [`StoreOptions::validate`]; values above [`MAX_JOBS_PER_CHUNK`]
    /// are capped to it.
    pub jobs_per_chunk: u32,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            jobs_per_chunk: DEFAULT_JOBS_PER_CHUNK,
        }
    }
}

impl StoreOptions {
    /// Validate the options, returning the effective chunk size: zero is
    /// a typed [`StoreError::InvalidOptions`] (a zero-job chunk can never
    /// make progress), and absurdly large values are capped to
    /// [`MAX_JOBS_PER_CHUNK`].
    pub fn validate(&self) -> Result<u32, StoreError> {
        if self.jobs_per_chunk == 0 {
            return Err(StoreError::InvalidOptions {
                context: "jobs_per_chunk must be at least 1",
            });
        }
        Ok(self.jobs_per_chunk.min(MAX_JOBS_PER_CHUNK))
    }
}

/// What a write produced: sizes for logging and benchmarks, and the
/// whole-store statistics a catalog records in its manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total bytes written, trailer included.
    pub bytes_written: u64,
    /// Number of chunks.
    pub chunks: u32,
    /// Number of jobs.
    pub jobs: u64,
    /// The footer summary as written.
    pub summary: StoredSummary,
    /// Union of the chunk zone maps ([`ZoneMap::EMPTY`] for no jobs).
    pub zone: ZoneMap,
}

/// The streaming store writer: [`StoreWriter::push`] job blocks of any
/// length in non-decreasing `(submit, id)` order, then
/// [`StoreWriter::finish`]. Chunks are cut every `jobs_per_chunk` jobs
/// whatever the block boundaries, so the bytes written depend on the job
/// sequence alone; per-chunk `[min, max]` submit windows are
/// non-overlapping except at boundaries and time-range readers can skip
/// whole chunks.
///
/// A writer dropped before `finish` leaves a file without footer or
/// trailer, which no reader opens; a buffered `W` is flushed by `finish`.
#[derive(Debug)]
pub struct StoreWriter<W: Write> {
    out: Output<W>,
    jobs_per_chunk: usize,
    encoder: format::columns::Encoder,
    /// The encoded file header, which the trailer's checksum covers.
    header: Vec<u8>,
    /// The chunk block being assembled, reused.
    block: Vec<u8>,
    chunks: Vec<ChunkMeta>,
    zones: Vec<ZoneMap>,
    /// Totals over every job pushed; the submit window is set at finish.
    summary: StoredSummary,
    /// Key of the last job pushed, for the order check.
    last: (Timestamp, JobId),
}

/// The destination and how many bytes it has taken, which is where the
/// next chunk block starts.
#[derive(Debug)]
struct Output<W: Write> {
    writer: BufWriter<W>,
    offset: u64,
}

impl<W: Write> Output<W> {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.writer.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        obs::BYTES_WRITTEN.add(bytes.len() as u64);
        Ok(())
    }
}

impl<W: Write> StoreWriter<W> {
    /// Validate `options` and write the file header.
    pub fn new(
        writer: W,
        kind: WorkloadKind,
        machines: u32,
        options: &StoreOptions,
    ) -> Result<StoreWriter<W>, StoreError> {
        let jobs_per_chunk = options.validate()?;
        let header = Header {
            version: VERSION,
            kind,
            machines,
            jobs_per_chunk,
        };
        let mut store = StoreWriter {
            out: Output {
                writer: BufWriter::new(writer),
                offset: 0,
            },
            jobs_per_chunk: jobs_per_chunk as usize,
            encoder: Default::default(),
            header: header.encode(),
            block: Vec::new(),
            chunks: Vec::new(),
            zones: Vec::new(),
            summary: StoredSummary::default(),
            last: (Timestamp::ZERO, JobId(0)),
        };
        store.out.write_all(&store.header)?;
        Ok(store)
    }

    /// Jobs pushed so far.
    pub fn jobs(&self) -> u64 {
        self.summary.jobs
    }

    /// Jobs pushed but not yet written as a chunk block: below
    /// `jobs_per_chunk` whenever `push` has returned, which is the whole
    /// of what the writer holds back. Read by the tests of that bound.
    #[doc(hidden)]
    // lint: surface: the write-path memory bound that swim-catalog's streaming-ingest tests read
    pub fn pending_jobs(&self) -> usize {
        self.encoder.rows()
    }

    /// Encode `jobs` onto the end of the store, writing a chunk block
    /// each time `jobs_per_chunk` jobs have accumulated. A job that sorts
    /// before its predecessor by `(submit, id)` is a typed
    /// [`StoreError::Unsorted`]; nothing of it is written.
    pub fn push(&mut self, mut jobs: &[Job]) -> Result<(), StoreError> {
        while !jobs.is_empty() {
            let room = self.jobs_per_chunk - self.encoder.rows();
            let (head, tail) = jobs.split_at(room.min(jobs.len()));
            for job in head {
                let key = (job.submit, job.id);
                if key < self.last {
                    return Err(StoreError::Unsorted { id: job.id.0 });
                }
                self.last = key;
                self.summary.jobs += 1;
                self.summary.bytes_moved += job.total_io();
                self.summary.task_time += job.total_task_time();
                self.encoder.push(job);
            }
            if head.len() == room {
                self.write_chunk()?;
            }
            jobs = tail;
        }
        Ok(())
    }

    /// Write the encoder's rows as one chunk block and index it.
    fn write_chunk(&mut self) -> Result<(), StoreError> {
        let rows = self.encoder.rows();
        self.block.clear();
        let zone = self.encoder.finish(&mut self.block);
        self.chunks.push(ChunkMeta {
            offset: self.out.offset,
            block_len: self.block.len() as u64,
            job_count: rows as u64,
            min_submit: Timestamp::from_secs(zone.min[ZoneMap::SUBMIT]),
            max_submit: Timestamp::from_secs(zone.max[ZoneMap::SUBMIT]),
        });
        self.zones.push(zone);
        obs::CHUNKS_ENCODED.incr();
        self.out.write_all(&self.block)
    }

    /// Write the last (short) chunk, the footer and the trailer, and
    /// flush.
    pub fn finish(mut self) -> Result<StoreStats, StoreError> {
        if self.encoder.rows() > 0 {
            self.write_chunk()?;
        }
        let zone = self.zones.iter().fold(ZoneMap::EMPTY, |u, z| u.union(*z));
        if self.summary.jobs > 0 {
            self.summary.min_submit = Timestamp::from_secs(zone.min[ZoneMap::SUBMIT]);
            self.summary.max_submit = Timestamp::from_secs(zone.max[ZoneMap::SUBMIT]);
        }
        let footer = Footer {
            chunks: self.chunks,
            summary: self.summary,
            zones: self.zones,
        };
        let mut tail = footer.encode();
        let trailer = format::encode_tail(&self.header, &tail, self.out.offset);
        tail.extend_from_slice(&trailer);
        self.out.write_all(&tail)?;
        self.out.writer.flush()?;
        Ok(StoreStats {
            bytes_written: self.out.offset,
            chunks: footer.chunks.len() as u32,
            jobs: self.summary.jobs,
            summary: self.summary,
            zone,
        })
    }
}

/// Write `trace` in store format: a [`StoreWriter`] fed the whole trace.
pub fn write_store<W: Write>(
    trace: &Trace,
    writer: W,
    options: &StoreOptions,
) -> Result<StoreStats, StoreError> {
    let mut store = StoreWriter::new(writer, trace.kind.clone(), trace.machines, options)?;
    store.push(trace.jobs())?;
    store.finish()
}

/// Write a trace to a file path. I/O failures carry the offending path
/// ([`StoreError::File`]).
pub fn write_store_path(
    trace: &Trace,
    path: impl AsRef<Path>,
    options: &StoreOptions,
) -> Result<StoreStats, StoreError> {
    let path = path.as_ref();
    let file = File::create(path).map_err(|source| StoreError::File {
        path: path.to_path_buf(),
        source,
    })?;
    write_store(trace, file, options).map_err(|e| e.at_path(path))
}

/// Encode a trace into an in-memory store image.
///
/// # Panics
///
/// Panics if `options` fail [`StoreOptions::validate`] (the only way
/// writing to a `Vec` can fail).
pub fn store_to_vec(trace: &Trace, options: &StoreOptions) -> Vec<u8> {
    let mut buf = Vec::new();
    // lint: allow(panic, "documented panic: writing to a Vec cannot fail I/O, only validation")
    write_store(trace, &mut buf, options).expect("valid options; Vec writer cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::{DataSize, Dur, JobBuilder, PathId};

    fn tiny_trace(n: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(i)
                    .name(format!("job_{}", i % 7))
                    .submit(Timestamp::from_secs(i / 3 * 60))
                    .duration(Dur::from_secs(30 + i % 11))
                    .input(DataSize::from_mb(1 + i % 5))
                    .output(DataSize::from_bytes(i * 1000))
                    .map_task_time(Dur::from_secs(10))
                    .tasks(1, 0)
                    .input_paths(vec![PathId(i % 50); (i % 3) as usize])
                    .output_paths(vec![PathId(i)])
                    .build()
                    .unwrap()
            })
            .collect();
        Trace::new(WorkloadKind::CcA, 10, jobs).unwrap()
    }

    /// Push `trace` in blocks of `block` jobs; the image and the stats.
    fn streamed(trace: &Trace, block: usize, options: &StoreOptions) -> (Vec<u8>, StoreStats) {
        let mut image = Vec::new();
        let mut writer =
            StoreWriter::new(&mut image, trace.kind.clone(), trace.machines, options).unwrap();
        for jobs in trace.jobs().chunks(block) {
            writer.push(jobs).unwrap();
            assert!(writer.pending_jobs() < options.jobs_per_chunk as usize);
        }
        assert_eq!(writer.jobs(), trace.len() as u64);
        let stats = writer.finish().unwrap();
        (image, stats)
    }

    #[test]
    fn blocks_of_any_length_write_the_same_bytes() {
        // Exact multiples of the chunk size, ragged tails, one-job chunks
        // and the empty store: the bytes depend on the jobs alone.
        for n in [0u64, 1, 8, 9, 64, 100] {
            let trace = tiny_trace(n);
            for jobs_per_chunk in [1u32, 4, 8, 4096] {
                let options = StoreOptions { jobs_per_chunk };
                let whole = store_to_vec(&trace, &options);
                for block in [1usize, 3, 8, 37] {
                    let (image, stats) = streamed(&trace, block, &options);
                    assert_eq!(
                        image, whole,
                        "{n} jobs, chunk {jobs_per_chunk}, block {block}"
                    );
                    assert_eq!(stats.bytes_written, whole.len() as u64);
                    assert_eq!(stats.chunks as u64, n.div_ceil(u64::from(jobs_per_chunk)));
                }
                let store = crate::Store::from_vec(whole).unwrap();
                assert_eq!(store.read_trace().unwrap(), trace);
            }
        }
    }

    #[test]
    fn finish_reports_the_footer_summary_and_the_union_zone() {
        let trace = tiny_trace(100);
        let (image, stats) = streamed(&trace, 7, &StoreOptions { jobs_per_chunk: 16 });
        assert_eq!(
            stats.summary.to_trace_summary(&trace.kind, trace.machines),
            trace.summary()
        );
        assert_eq!(stats.zone, ZoneMap::of_jobs(trace.jobs()));
        let store = crate::Store::from_vec(image).unwrap();
        assert_eq!(*store.stored_summary(), stats.summary);
        for (zone, jobs) in store.zone_maps().iter().zip(trace.jobs().chunks(16)) {
            assert_eq!(*zone, ZoneMap::of_jobs(jobs));
        }
        // No jobs: the zero summary and the empty zone.
        let (_, empty) = streamed(&tiny_trace(0), 1, &StoreOptions::default());
        assert_eq!((empty.jobs, empty.chunks), (0, 0));
        assert_eq!(empty.zone, ZoneMap::EMPTY);
        assert_eq!(empty.summary.max_submit, Timestamp::ZERO);
    }

    #[test]
    fn out_of_order_jobs_are_a_typed_error_naming_the_job() {
        let trace = tiny_trace(10);
        let jobs = trace.jobs();
        let mut writer = StoreWriter::new(
            std::io::sink(),
            WorkloadKind::CcA,
            1,
            &StoreOptions { jobs_per_chunk: 4 },
        )
        .unwrap();
        writer.push(&jobs[3..6]).unwrap();
        // Equal keys are in order; an earlier submit, or the same submit
        // under a smaller id, is not — within a block or across two.
        writer.push(&jobs[5..6]).unwrap();
        for id in [4, 2] {
            let err = writer.push(&jobs[id..]).expect_err("out of order");
            assert!(
                matches!(err, StoreError::Unsorted { id: got } if got == id as u64),
                "{err:?}"
            );
        }
        assert_eq!(writer.jobs(), 4);
    }

    #[test]
    fn stats_count_chunks_and_jobs() {
        let t = tiny_trace(10);
        let opts = StoreOptions { jobs_per_chunk: 4 };
        let buf = store_to_vec(&t, &opts);
        let stats = write_store(&t, std::io::sink(), &opts).unwrap();
        assert_eq!(stats.jobs, 10);
        assert_eq!(stats.chunks, 3); // 4 + 4 + 2
        assert_eq!(stats.bytes_written, buf.len() as u64);
    }

    #[test]
    fn zero_jobs_per_chunk_is_a_typed_error() {
        let t = tiny_trace(3);
        let err = write_store(&t, std::io::sink(), &StoreOptions { jobs_per_chunk: 0 })
            .expect_err("zero chunk size must be rejected");
        assert!(
            matches!(err, StoreError::InvalidOptions { .. }),
            "unexpected error {err:?}"
        );
        assert!(err.to_string().contains("jobs_per_chunk"));
    }

    #[test]
    fn absurd_jobs_per_chunk_is_capped() {
        assert_eq!(
            StoreOptions {
                jobs_per_chunk: u32::MAX
            }
            .validate()
            .unwrap(),
            MAX_JOBS_PER_CHUNK
        );
        // The cap itself and everything below pass through unchanged.
        assert_eq!(
            StoreOptions {
                jobs_per_chunk: MAX_JOBS_PER_CHUNK
            }
            .validate()
            .unwrap(),
            MAX_JOBS_PER_CHUNK
        );
        assert_eq!(StoreOptions { jobs_per_chunk: 1 }.validate().unwrap(), 1);
        // A capped request writes a valid file whose header records the
        // effective chunk size, not the request.
        let t = tiny_trace(3);
        let bytes = store_to_vec(
            &t,
            &StoreOptions {
                jobs_per_chunk: u32::MAX,
            },
        );
        let store = crate::Store::from_vec(bytes).unwrap();
        assert_eq!(store.read_trace().unwrap(), t);
    }

    #[test]
    fn empty_trace_writes_header_footer_trailer_only() {
        let t = Trace::new(WorkloadKind::CcA, 1, vec![]).unwrap();
        let stats = write_store(&t, std::io::sink(), &StoreOptions::default()).unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.jobs, 0);
    }
}
