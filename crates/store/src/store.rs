//! Reading columnar trace stores: O(1) summaries from the footer,
//! streaming chunk scans at bounded memory, time-range scans that skip
//! chunks via the index, and a parallel fold over chunks.

use crate::format::columns::{ChunkColumns, ColumnSet, NumericColumns};
use crate::format::{self, ChunkMeta, Footer, Header, StoredSummary, ZoneMap};
use crate::StoreError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, Timestamp, Trace, TraceSummary};

/// swim-obs instruments for the store layer. Counter names are part of
/// the observable surface (`swim-query --profile`, the JSONL sink), so
/// treat them as API.
mod obs {
    use swim_obs::Counter;

    /// Bytes fetched through [`super::ReadHandle::read_span`] — every
    /// disk or in-memory read the store performs, including headers,
    /// footers, and chunk blocks.
    pub static BYTES_READ: Counter = Counter::new("store.bytes_read");
    /// Chunks whose payload was actually decoded (full-row or numeric
    /// column projection alike).
    pub static CHUNKS_DECODED: Counter = Counter::new("store.chunks_decoded");
    /// Numeric columns of decoded chunks that were kept: with
    /// [`COLUMNS_SKIPPED`] it is projection's useful work over attempts
    /// (the two sum to ten per decoded chunk).
    pub static COLUMNS_DECODED: Counter = Counter::new("store.columns_decoded");
    /// Numeric columns of decoded chunks that were stepped over (walked
    /// and validated, nothing stored).
    pub static COLUMNS_SKIPPED: Counter = Counter::new("store.columns_skipped");
    /// Chunks skipped by a time-range scan's index check before any
    /// byte of them was read.
    pub static CHUNKS_RANGE_SKIPPED: Counter = Counter::new("store.chunks_range_skipped");
}

/// Where the store's bytes live.
#[derive(Debug, Clone)]
enum StoreSource {
    /// On disk; every scan opens its own handle, so parallel workers never
    /// contend on a shared file position.
    File(PathBuf),
    /// In memory (tests, benchmarks, network buffers).
    Mem(Arc<[u8]>),
}

/// A per-scan read handle (owned file descriptor or shared slice). File
/// handles remember their path so every read error names the file it
/// happened in — essential once many shards are scanned federatedly.
enum ReadHandle {
    File { file: File, path: PathBuf },
    Mem(Arc<[u8]>),
}

impl ReadHandle {
    fn read_span(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let len_usize = usize::try_from(len).map_err(|_| StoreError::Corrupt {
            context: "span length overflows usize",
        })?;
        obs::BYTES_READ.add(len);
        match self {
            ReadHandle::File { file, path } => {
                let mut buf = vec![0u8; len_usize];
                let mut read = |f: &mut File| {
                    f.seek(SeekFrom::Start(offset))?;
                    f.read_exact(&mut buf)
                };
                read(file).map_err(|source| StoreError::File {
                    path: path.clone(),
                    source,
                })?;
                Ok(buf)
            }
            ReadHandle::Mem(bytes) => {
                let start = usize::try_from(offset).map_err(|_| StoreError::Truncated {
                    context: "span offset past end of buffer",
                })?;
                let end = start
                    .checked_add(len_usize)
                    .filter(|&e| e <= bytes.len())
                    .ok_or(StoreError::Truncated {
                        context: "span runs past end of buffer",
                    })?;
                Ok(bytes[start..end].to_vec())
            }
        }
    }
}

/// Open the `store.decode_chunk` span and count one decoded chunk that
/// keeps `kept` of its ten numeric columns. Every decode path starts
/// here, so `--profile`'s `store.chunks_decoded` is exact.
fn begin_decode(kept: usize) -> swim_obs::SpanGuard {
    obs::CHUNKS_DECODED.incr();
    obs::COLUMNS_DECODED.add(kept as u64);
    obs::COLUMNS_SKIPPED.add((format::ZONE_COLUMNS - kept) as u64);
    swim_obs::span("store.decode_chunk")
}

/// Decode the columns of `set` from a chunk payload, counted and timed.
fn decode_counted(
    payload: &[u8],
    job_count: usize,
    set: ColumnSet,
) -> Result<ChunkColumns, StoreError> {
    let _span = begin_decode(set.len());
    format::columns::decode_projected(payload, job_count, set)
}

/// An opened columnar trace store: header + chunk index + stored summary.
///
/// Opening reads only the fixed header and the footer; job data is touched
/// lazily by scans, so a multi-gigabyte store opens in microseconds.
#[derive(Debug, Clone)]
pub struct Store {
    source: StoreSource,
    header: Header,
    chunks: Vec<ChunkMeta>,
    summary: StoredSummary,
    /// One zone map per chunk: read from the footer for v2 files,
    /// synthesized (submit bounds only, permissive elsewhere) for v1.
    zones: Vec<ZoneMap>,
}

impl Store {
    /// Open a store file, reading header and footer only. I/O failures
    /// carry the offending path ([`StoreError::File`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let at = |source: std::io::Error| StoreError::File {
            path: path.clone(),
            source,
        };
        let file = File::open(&path).map_err(at)?;
        let file_len = file.metadata().map_err(at)?.len();
        let mut handle = ReadHandle::File {
            file,
            path: path.clone(),
        };
        Self::parse(StoreSource::File(path), &mut handle, file_len)
    }

    /// Open a store from an in-memory image.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Store, StoreError> {
        Self::from_bytes(Arc::<[u8]>::from(bytes))
    }

    /// Open a store from shared in-memory bytes.
    pub fn from_bytes(bytes: Arc<[u8]>) -> Result<Store, StoreError> {
        let len = bytes.len() as u64;
        let mut handle = ReadHandle::Mem(bytes.clone());
        Self::parse(StoreSource::Mem(bytes), &mut handle, len)
    }

    fn parse(
        source: StoreSource,
        handle: &mut ReadHandle,
        file_len: u64,
    ) -> Result<Store, StoreError> {
        let trailer_len = format::TRAILER_LEN as u64;
        if file_len < trailer_len + 24 {
            return Err(StoreError::Truncated {
                context: "file shorter than header + trailer",
            });
        }
        let trailer = handle.read_span(file_len - trailer_len, trailer_len)?;
        let footer_offset = format::decode_trailer(&trailer)?;
        if footer_offset >= file_len - trailer_len {
            return Err(StoreError::Corrupt {
                context: "footer offset past end of file",
            });
        }
        let footer_bytes =
            handle.read_span(footer_offset, file_len - trailer_len - footer_offset)?;
        let Footer {
            chunks,
            summary,
            zones,
        } = Footer::decode(&footer_bytes)?;

        // Header: fixed 24 bytes, then the custom-kind label if present.
        let fixed = handle.read_span(0, 24)?;
        let custom_len = u64::from(format::header_custom_len(&fixed)?);
        if custom_len >= file_len {
            return Err(StoreError::Corrupt {
                context: "custom kind label longer than file",
            });
        }
        let header_bytes = handle.read_span(0, 24 + custom_len)?;
        let header = Header::decode(&header_bytes)?;

        // Index sanity: chunks must lie between header and footer, in
        // order, and account for every job in the summary. The per-chunk
        // job-count-vs-length check also bounds `summary.jobs` by the file
        // size, so later `with_capacity(jobs)` calls cannot be driven to
        // absurd sizes by a crafted footer.
        let mut expected_offset = 24 + custom_len;
        let mut jobs_total = 0u64;
        for c in &chunks {
            if c.offset != expected_offset {
                return Err(StoreError::Corrupt {
                    context: "chunk offsets not contiguous",
                });
            }
            expected_offset = c
                .offset
                .checked_add(c.block_len)
                .ok_or(StoreError::Corrupt {
                    context: "chunk length overflow",
                })?;
            if c.job_count > c.block_len {
                // Every job occupies at least one byte per column.
                return Err(StoreError::Corrupt {
                    context: "chunk job count exceeds chunk length",
                });
            }
            jobs_total += c.job_count;
        }
        if expected_offset != footer_offset {
            return Err(StoreError::Corrupt {
                context: "chunks do not abut the footer",
            });
        }
        if jobs_total != summary.jobs {
            return Err(StoreError::Corrupt {
                context: "summary job count disagrees with chunk index",
            });
        }
        // Zone maps: v2 files must carry the section; v1 files must not
        // (their maps are synthesized from the submit windows so every
        // reader sees a uniform, if permissive, index). When present,
        // `Footer::decode` has already sized the section to exactly one
        // map per chunk.
        let zones = match (header.version, zones) {
            (format::VERSION_1, None) => chunks
                .iter()
                .map(|c| ZoneMap::submit_only(c.min_submit, c.max_submit))
                .collect(),
            (format::VERSION_1, Some(_)) => {
                return Err(StoreError::Corrupt {
                    context: "v1 file carries a zone-map section",
                })
            }
            (_, Some(zones)) => {
                debug_assert_eq!(zones.len(), chunks.len(), "sized by Footer::decode");
                zones
            }
            (_, None) => {
                return Err(StoreError::Corrupt {
                    context: "v2 footer missing zone-map section",
                })
            }
        };
        Ok(Store {
            source,
            header,
            chunks,
            summary,
            zones,
        })
    }

    /// Workload identity of the stored trace.
    pub fn kind(&self) -> &WorkloadKind {
        &self.header.kind
    }

    /// Nominal cluster size of the stored trace.
    pub fn machines(&self) -> u32 {
        self.header.machines
    }

    /// Total number of stored jobs (from the footer; no scan).
    pub fn job_count(&self) -> u64 {
        self.summary.jobs
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk index (offsets, job counts, submit-time windows).
    pub fn chunk_meta(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Format version the file was written with (1 or 2).
    pub fn format_version(&self) -> u16 {
        self.header.version
    }

    /// Per-chunk zone maps: `[min, max]` bounds for every numeric column.
    ///
    /// Version-2 files store these in the footer; for version-1 files the
    /// maps are synthesized at open (real submit bounds, full range for
    /// every other column), so planners can prune uniformly — a v1 map
    /// simply never rules a chunk out on a non-submit predicate.
    pub fn zone_maps(&self) -> &[ZoneMap] {
        &self.zones
    }

    /// The summary stored in the footer.
    pub fn stored_summary(&self) -> &StoredSummary {
        &self.summary
    }

    /// The Table 1 row for the stored trace, read from the footer in O(1).
    pub fn summary(&self) -> TraceSummary {
        self.summary
            .to_trace_summary(&self.header.kind, self.header.machines)
    }

    fn new_handle(&self) -> Result<ReadHandle, StoreError> {
        Ok(match &self.source {
            StoreSource::File(path) => ReadHandle::File {
                file: File::open(path).map_err(|source| StoreError::File {
                    path: path.clone(),
                    source,
                })?,
                path: path.clone(),
            },
            StoreSource::Mem(bytes) => ReadHandle::Mem(bytes.clone()),
        })
    }

    fn read_chunk_with(&self, handle: &mut ReadHandle, idx: usize) -> Result<Vec<Job>, StoreError> {
        let (job_count, block) = self.read_block_with(handle, idx)?;
        let _span = begin_decode(format::ZONE_COLUMNS);
        format::columns::decode(&block[format::CHUNK_HEADER_LEN..], job_count)
    }

    /// Decode one chunk by index.
    pub fn read_chunk(&self, idx: usize) -> Result<Vec<Job>, StoreError> {
        assert!(idx < self.chunks.len(), "chunk index out of range");
        let mut handle = self.new_handle()?;
        self.read_chunk_with(&mut handle, idx)
    }

    /// Read one chunk's raw block, validating the header against the
    /// footer index; returns `(job_count, block)` where the payload is
    /// `block[CHUNK_HEADER_LEN..]`.
    fn read_block_with(
        &self,
        handle: &mut ReadHandle,
        idx: usize,
    ) -> Result<(usize, Vec<u8>), StoreError> {
        let meta = &self.chunks[idx];
        let block = handle.read_span(meta.offset, meta.block_len)?;
        let (job_count, _) = format::decode_chunk_header(&block)?;
        if u64::from(job_count) != meta.job_count {
            return Err(StoreError::Corrupt {
                context: "chunk job count disagrees with index",
            });
        }
        Ok((job_count as usize, block))
    }

    /// Serial fold over an explicit set of chunks (by index, visited in
    /// the given order), decoding only the numeric columns in `set`: the
    /// others are stepped over, names and paths are never touched. This
    /// is the claim loop of [`Store::par_fold_projected`] run by the
    /// caller alone.
    pub fn fold_projected<T, F>(
        &self,
        selected: &[usize],
        set: ColumnSet,
        init: T,
        mut fold: F,
    ) -> Result<T, StoreError>
    where
        F: FnMut(T, usize, ChunkColumns) -> T,
    {
        let cursor = AtomicUsize::new(0);
        self.claim_payloads(selected, &cursor, init, |acc, idx, job_count, payload| {
            Ok(fold(acc, idx, decode_counted(payload, job_count, set)?))
        })
    }

    /// Parallel [`Store::fold_projected`]: workers claim indices off a
    /// shared counter, decode with their own read handle, and fold into
    /// per-worker accumulators that are combined with `merge`. Visit
    /// order is unspecified, so `fold`/`merge` must be order-insensitive
    /// for the result to match the serial fold.
    pub fn par_fold_projected<T, I, F, M>(
        &self,
        selected: &[usize],
        set: ColumnSet,
        init: I,
        fold: F,
        merge: M,
    ) -> Result<T, StoreError>
    where
        T: Send,
        I: Fn() -> T + Send + Sync,
        F: Fn(T, usize, ChunkColumns) -> T + Send + Sync,
        M: Fn(T, T) -> T,
    {
        self.par_fold_payloads(
            selected,
            init,
            |acc, idx, job_count, payload| {
                Ok(fold(acc, idx, decode_counted(payload, job_count, set)?))
            },
            merge,
        )
    }

    /// [`Store::fold_projected`] over all ten columns, by name.
    pub fn fold_columns<T, F>(
        &self,
        selected: &[usize],
        init: T,
        mut fold: F,
    ) -> Result<T, StoreError>
    where
        F: FnMut(T, usize, &NumericColumns) -> T,
    {
        self.fold_projected(selected, ColumnSet::ALL, init, |acc, idx, cols| {
            fold(acc, idx, &cols.into())
        })
    }

    /// Stream every chunk in order. Memory stays bounded by one chunk.
    pub fn scan(&self) -> Result<ChunkScan<'_>, StoreError> {
        let selected = (0..self.chunks.len()).collect();
        Ok(ChunkScan {
            store: self,
            handle: self.new_handle()?,
            selected,
            next: 0,
            range: None,
            skipped_chunks: 0,
        })
    }

    /// Stream jobs submitted in the half-open range `[from, to)`,
    /// skipping chunks whose `[min, max]` submit window falls outside it.
    ///
    /// Boundary semantics (pinned by tests): a job submitted exactly at
    /// `from` **is** included; a job submitted exactly at `to` is **not**.
    /// `from >= to` selects nothing. [`Store::read_range`] and
    /// [`Store::par_scan_range`] share these bounds, and they compose:
    /// scanning `[a, b)` then `[b, c)` visits each job exactly once.
    pub fn scan_range(&self, from: Timestamp, to: Timestamp) -> Result<ChunkScan<'_>, StoreError> {
        let selected: Vec<usize> = (0..self.chunks.len())
            .filter(|&i| {
                let m = &self.chunks[i];
                m.max_submit >= from && m.min_submit < to
            })
            .collect();
        let skipped = self.chunks.len() - selected.len();
        obs::CHUNKS_RANGE_SKIPPED.add(skipped as u64);
        Ok(ChunkScan {
            store: self,
            handle: self.new_handle()?,
            selected,
            next: 0,
            range: Some((from, to)),
            skipped_chunks: skipped,
        })
    }

    /// Rebuild the full trace (materializes every job).
    pub fn read_trace(&self) -> Result<Trace, StoreError> {
        let mut jobs = Vec::with_capacity(self.summary.jobs as usize);
        for chunk in self.scan()? {
            jobs.extend(chunk?);
        }
        Ok(Trace::new_unchecked(
            self.header.kind.clone(),
            self.header.machines,
            jobs,
        ))
    }

    /// Rebuild only the jobs submitted in the half-open range `[from, to)`
    /// as a trace, skipping non-overlapping chunks entirely. Bounds are
    /// inclusive of `from` and exclusive of `to`, exactly as in
    /// [`Store::scan_range`].
    pub fn read_range(&self, from: Timestamp, to: Timestamp) -> Result<Trace, StoreError> {
        let mut jobs = Vec::new();
        for chunk in self.scan_range(from, to)? {
            jobs.extend(chunk?);
        }
        Ok(Trace::new_unchecked(
            self.header.kind.clone(),
            self.header.machines,
            jobs,
        ))
    }

    /// Parallel fold over all chunks.
    ///
    /// Workers claim chunks from a shared counter, decode them with their
    /// own read handle, and fold jobs with `fold`; per-worker accumulators
    /// are combined with `merge`. Chunk visit order is unspecified, so
    /// `fold`/`merge` must compute an order-insensitive result (sums,
    /// counts, extrema — everything the §4/§5 statistics need).
    pub fn par_scan<T, I, F, M>(&self, init: I, fold: F, merge: M) -> Result<T, StoreError>
    where
        T: Send,
        I: Fn() -> T + Send + Sync,
        F: Fn(T, &Job) -> T + Send + Sync,
        M: Fn(T, T) -> T,
    {
        self.par_scan_chunks(None, init, fold, merge)
    }

    /// Parallel fold over the chunks overlapping the half-open range
    /// `[from, to)`, folding only jobs inside it (`from` inclusive, `to`
    /// exclusive — the [`Store::scan_range`] bounds).
    pub fn par_scan_range<T, I, F, M>(
        &self,
        from: Timestamp,
        to: Timestamp,
        init: I,
        fold: F,
        merge: M,
    ) -> Result<T, StoreError>
    where
        T: Send,
        I: Fn() -> T + Send + Sync,
        F: Fn(T, &Job) -> T + Send + Sync,
        M: Fn(T, T) -> T,
    {
        self.par_scan_chunks(Some((from, to)), init, fold, merge)
    }

    fn par_scan_chunks<T, I, F, M>(
        &self,
        range: Option<(Timestamp, Timestamp)>,
        init: I,
        fold: F,
        merge: M,
    ) -> Result<T, StoreError>
    where
        T: Send,
        I: Fn() -> T + Send + Sync,
        F: Fn(T, &Job) -> T + Send + Sync,
        M: Fn(T, T) -> T,
    {
        self.par_fold_payloads(
            &self.chunks_overlapping(range),
            init,
            |mut acc, _idx, job_count, payload| {
                let jobs = format::columns::decode(payload, job_count)?;
                for job in &jobs {
                    if let Some((from, to)) = range {
                        if job.submit < from || job.submit >= to {
                            continue;
                        }
                    }
                    acc = fold(acc, job);
                }
                Ok(acc)
            },
            merge,
        )
    }

    /// Indices of the chunks whose submit window overlaps the half-open
    /// range (all chunks when `range` is `None`).
    fn chunks_overlapping(&self, range: Option<(Timestamp, Timestamp)>) -> Vec<usize> {
        match range {
            None => (0..self.chunks.len()).collect(),
            Some((from, to)) => (0..self.chunks.len())
                .filter(|&i| {
                    let m = &self.chunks[i];
                    m.max_submit >= from && m.min_submit < to
                })
                .collect(),
        }
    }

    /// One worker's share of a fold: claim indices of `selected` off
    /// `cursor` until none is left, read each chunk's block through one
    /// handle and hand its payload to `fold_payload`. A lone caller with a
    /// fresh cursor visits `selected` in order — that is the serial fold.
    fn claim_payloads<T>(
        &self,
        selected: &[usize],
        cursor: &AtomicUsize,
        init: T,
        mut fold_payload: impl FnMut(T, usize, usize, &[u8]) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut handle = self.new_handle()?;
        let mut acc = init;
        loop {
            // lint: ordering: work-stealing cursor; chunk handoff is via scoped-thread join
            let slot = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&idx) = selected.get(slot) else {
                return Ok(acc);
            };
            assert!(idx < self.chunks.len(), "chunk index out of range");
            let (job_count, block) = self.read_block_with(&mut handle, idx)?;
            acc = fold_payload(acc, idx, job_count, &block[format::CHUNK_HEADER_LEN..])?;
        }
    }

    /// Shared worker pool: one [`Store::claim_payloads`] loop per core
    /// over a common cursor, per-worker accumulators merged at the end.
    fn par_fold_payloads<T, I, FP, M>(
        &self,
        selected: &[usize],
        init: I,
        fold_payload: FP,
        merge: M,
    ) -> Result<T, StoreError>
    where
        T: Send,
        I: Fn() -> T + Send + Sync,
        FP: Fn(T, usize, usize, &[u8]) -> Result<T, StoreError> + Send + Sync,
        M: Fn(T, T) -> T,
    {
        if selected.is_empty() {
            return Ok(init());
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(selected.len());
        let cursor = AtomicUsize::new(0);
        let claim = || self.claim_payloads(selected, &cursor, init(), &fold_payload);
        let worker_results: Vec<Result<T, StoreError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
            handles
                .into_iter()
                // lint: allow(panic, "re-raises a worker panic; join only fails if the closure panicked")
                .map(|h| h.join().expect("par_scan worker panicked"))
                .collect()
        });
        let mut merged: Option<T> = None;
        for result in worker_results {
            let value = result?;
            merged = Some(match merged {
                None => value,
                Some(acc) => merge(acc, value),
            });
        }
        // lint: allow(panic, "threads >= 1 and selected is non-empty, so one worker always reports")
        Ok(merged.expect("at least one worker"))
    }

    /// Compute the Table 1 row by actually scanning every chunk in
    /// parallel — the verification path for the footer's O(1) summary, and
    /// the template for arbitrary `par_scan` statistics. Runs on the
    /// numeric column projection, so no names or paths are ever decoded.
    pub fn par_summary(&self) -> Result<TraceSummary, StoreError> {
        #[derive(Clone, Copy)]
        struct Acc {
            jobs: u64,
            bytes: DataSize,
            min: Option<Timestamp>,
            max: Option<Timestamp>,
        }
        let set = ZoneMap::IO
            .iter()
            .fold(ColumnSet::EMPTY.with(ZoneMap::SUBMIT), |set, &c| {
                set.with(c)
            });
        let acc = self.par_fold_projected(
            &self.chunks_overlapping(None),
            set,
            || Acc {
                jobs: 0,
                bytes: DataSize::ZERO,
                min: None,
                max: None,
            },
            |mut acc, _idx, chunk| {
                let cols = chunk.view();
                acc.jobs += cols.len() as u64;
                // Per job input + shuffle + output, saturating like
                // `Job::total_io`.
                for i in 0..cols.len() {
                    for c in ZoneMap::IO {
                        acc.bytes += DataSize::from_bytes(cols.column(c)[i]);
                    }
                }
                let submits = cols.column(ZoneMap::SUBMIT);
                if let (Some(&first), Some(&last)) = (submits.first(), submits.last()) {
                    // Submits are non-decreasing within a chunk, but take
                    // a defensive min/max of the endpoints anyway.
                    let (lo, hi) = (first.min(last), first.max(last));
                    let (lo, hi) = (Timestamp::from_secs(lo), Timestamp::from_secs(hi));
                    acc.min = Some(acc.min.map_or(lo, |m| m.min(lo)));
                    acc.max = Some(acc.max.map_or(hi, |m| m.max(hi)));
                }
                acc
            },
            |a, b| Acc {
                jobs: a.jobs + b.jobs,
                bytes: a.bytes + b.bytes,
                min: match (a.min, b.min) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                },
                max: match (a.max, b.max) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                },
            },
        )?;
        let length = match (acc.min, acc.max) {
            (Some(min), Some(max)) => max.since(min),
            _ => Dur::ZERO,
        };
        Ok(TraceSummary {
            workload: self.header.kind.label().to_owned(),
            machines: self.header.machines,
            length,
            jobs: acc.jobs as usize,
            bytes_moved: acc.bytes,
        })
    }
}

/// Streaming iterator over a store's (selected) chunks; yields each
/// chunk's jobs already filtered to the scan's time range.
pub struct ChunkScan<'s> {
    store: &'s Store,
    handle: ReadHandle,
    selected: Vec<usize>,
    next: usize,
    range: Option<(Timestamp, Timestamp)>,
    /// Chunks the index proved irrelevant for a range scan (skipped
    /// without reading a byte of them).
    pub skipped_chunks: usize,
}

impl<'s> ChunkScan<'s> {
    /// How many chunks this scan will read (before filtering).
    pub fn selected_chunks(&self) -> usize {
        self.selected.len()
    }

    /// Flatten into a per-job iterator.
    pub fn jobs(self) -> JobScan<'s> {
        JobScan {
            scan: self,
            buffer: Vec::new().into_iter(),
        }
    }
}

impl Iterator for ChunkScan<'_> {
    type Item = Result<Vec<Job>, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let &idx = self.selected.get(self.next)?;
            self.next += 1;
            let meta = self.store.chunks[idx];
            match self.store.read_chunk_with(&mut self.handle, idx) {
                Ok(mut jobs) => {
                    if let Some((from, to)) = self.range {
                        // Boundary chunks need the per-job filter; fully
                        // covered chunks pass through untouched.
                        if meta.min_submit < from || meta.max_submit >= to {
                            jobs.retain(|j| j.submit >= from && j.submit < to);
                        }
                    }
                    if jobs.is_empty() {
                        continue;
                    }
                    return Some(Ok(jobs));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Per-job streaming iterator (see [`ChunkScan::jobs`]).
pub struct JobScan<'s> {
    scan: ChunkScan<'s>,
    buffer: std::vec::IntoIter<Job>,
}

impl Iterator for JobScan<'_> {
    type Item = Result<Job, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(job) = self.buffer.next() {
                return Some(Ok(job));
            }
            match self.scan.next()? {
                Ok(jobs) => self.buffer = jobs.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}
