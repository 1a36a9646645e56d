//! Reading columnar trace stores: O(1) summaries from the footer, a
//! chunk reader that decodes any chunk as jobs or as a column
//! projection, and streaming scans at bounded memory.

use crate::format::columns::{ChunkColumns, ColumnSet};
use crate::format::{self, ChunkMeta, Footer, Header, StoredSummary, ZoneMap};
use crate::StoreError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use swim_trace::trace::WorkloadKind;
use swim_trace::{Job, TraceSummary};

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
    /// Numeric columns of decoded chunks that were not kept, and so not
    /// looked at.
    pub static COLUMNS_SKIPPED: Counter = Counter::new("store.columns_skipped");
    /// Reads refused because stored bytes did not match their checksum
    /// (at open: header and footer; at decode: a column block).
    pub static CHECKSUM_FAILURES: Counter = Counter::new("store.checksum_failures");
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

    /// Every error of a read made through this handle leaves here: a
    /// checksum mismatch is counted, and names the file if there is one.
    fn blame(&self, e: StoreError) -> StoreError {
        if matches!(e, StoreError::Checksum { .. }) {
            obs::CHECKSUM_FAILURES.incr();
        }
        match self {
            ReadHandle::File { path, .. } => e.at_path(path),
            ReadHandle::Mem(_) => e,
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
    /// One zone map per chunk, from the footer.
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
        Self::parse(StoreSource::File(path), &mut handle, file_len).map_err(|e| handle.blame(e))
    }

    /// Open a store from an in-memory image.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Store, StoreError> {
        Self::from_bytes(Arc::<[u8]>::from(bytes))
    }

    /// Open a store from shared in-memory bytes.
    pub fn from_bytes(bytes: Arc<[u8]>) -> Result<Store, StoreError> {
        let len = bytes.len() as u64;
        let mut handle = ReadHandle::Mem(bytes.clone());
        Self::parse(StoreSource::Mem(bytes), &mut handle, len).map_err(|e| handle.blame(e))
    }

    fn parse(
        source: StoreSource,
        handle: &mut ReadHandle,
        file_len: u64,
    ) -> Result<Store, StoreError> {
        // The trailer, and the metadata checksum before it: no file
        // that opens is too short for both, so one read fetches them.
        let tail_len = (format::CHECKSUM_LEN + format::TRAILER_LEN) as u64;
        if file_len < tail_len + 24 {
            return Err(StoreError::Truncated {
                context: "file shorter than header + trailer",
            });
        }
        let tail = handle.read_span(file_len - tail_len, tail_len)?;
        let (stored_sum, trailer) = tail.split_at(format::CHECKSUM_LEN);
        let footer_offset = format::decode_trailer(trailer)?;

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

        let footer_end = file_len - tail_len;
        if footer_offset >= footer_end {
            return Err(StoreError::Corrupt {
                context: "footer offset past end of file",
            });
        }
        let footer_bytes = handle.read_span(footer_offset, footer_end - footer_offset)?;
        format::verify_meta(&header_bytes, &footer_bytes, footer_offset, stored_sum)?;
        let Footer {
            chunks,
            summary,
            zones,
        } = Footer::decode(&footer_bytes)?;

        // Index sanity: chunks must lie between header and footer, in
        // order, and account for every job in the summary. A run of equal
        // values packs to nothing, so a chunk holds at most the header's
        // chunk size, itself capped; a reservation made before any chunk
        // is decoded is capped by the chunk bytes instead (`read_trace`).
        if header.jobs_per_chunk > format::MAX_JOBS_PER_CHUNK {
            return Err(StoreError::Corrupt {
                context: "chunk size exceeds the format's cap",
            });
        }
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
            if c.job_count > u64::from(header.jobs_per_chunk) {
                return Err(StoreError::Corrupt {
                    context: "chunk job count exceeds the header's chunk size",
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
        // `Footer::decode` has sized the zone section to one map a chunk.
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

    /// Format version the file was written with: always
    /// [`format::VERSION`], the only one that opens.
    pub fn format_version(&self) -> u16 {
        self.header.version
    }

    /// Per-chunk zone maps: `[min, max]` bounds for every numeric column,
    /// as the footer stores them.
    pub fn zone_maps(&self) -> &[ZoneMap] {
        &self.zones
    }

    /// The summary stored in the footer.
    #[cfg(test)]
    pub(crate) fn stored_summary(&self) -> &StoredSummary {
        &self.summary
    }

    /// The Table 1 row for the stored trace, read from the footer in O(1).
    pub fn summary(&self) -> TraceSummary {
        self.summary
            .to_trace_summary(&self.header.kind, self.header.machines)
    }

    /// A read handle of the caller's own (its own file position), to
    /// decode any chunk in any order. One per worker: readers share
    /// nothing, so parallel workers never contend.
    pub fn reader(&self) -> Result<ChunkReader<'_>, StoreError> {
        let handle = match &self.source {
            StoreSource::File(path) => ReadHandle::File {
                file: File::open(path).map_err(|source| StoreError::File {
                    path: path.clone(),
                    source,
                })?,
                path: path.clone(),
            },
            StoreSource::Mem(bytes) => ReadHandle::Mem(bytes.clone()),
        };
        Ok(ChunkReader {
            store: self,
            handle,
        })
    }

    /// Serial fold over an explicit set of chunks (by index, visited in
    /// the given order) as all ten numeric columns; names and paths are
    /// never touched.
    pub fn fold_columns<T, F>(
        &self,
        selected: &[usize],
        init: T,
        mut fold: F,
    ) -> Result<T, StoreError>
    where
        F: FnMut(T, usize, &ChunkColumns) -> T,
    {
        let mut reader = self.reader()?;
        let mut acc = init;
        for &idx in selected {
            acc = fold(acc, idx, &reader.columns(idx, ColumnSet::ALL)?);
        }
        Ok(acc)
    }

    /// Stream every chunk's jobs in order, through one reader; chunks of
    /// no jobs are passed over. Memory stays bounded by one chunk.
    pub fn scan(
        &self,
    ) -> Result<impl Iterator<Item = Result<Vec<Job>, StoreError>> + '_, StoreError> {
        let mut reader = self.reader()?;
        let nonempty = (0..self.chunks.len()).filter(|&idx| self.chunks[idx].job_count > 0);
        Ok(nonempty.map(move |idx| reader.jobs(idx)))
    }

    /// Rebuild the full trace (materializes every job): the round-trip
    /// oracle of this crate's tests.
    #[cfg(test)]
    pub(crate) fn read_trace(&self) -> Result<swim_trace::Trace, StoreError> {
        // A job a stored byte at most up front: the footer's count is
        // only confirmed chunk by chunk.
        let bytes: u64 = self.chunks.iter().map(|c| c.block_len).sum();
        let mut jobs = Vec::with_capacity(self.summary.jobs.min(bytes) as usize);
        for chunk in self.scan()? {
            jobs.extend(chunk?);
        }
        Ok(swim_trace::Trace::new_unchecked(
            self.header.kind.clone(),
            self.header.machines,
            jobs,
        ))
    }
}

/// One read handle on a [`Store`] ([`Store::reader`]): decodes any chunk
/// by index, as jobs or as a column projection. Every read seeks, so
/// chunks may be visited in any order and any number of readers may be
/// interleaved on one store.
pub struct ChunkReader<'s> {
    store: &'s Store,
    handle: ReadHandle,
}

impl ChunkReader<'_> {
    /// Read chunk `idx`'s raw block, validating its header against the
    /// footer index; returns `(job_count, block)` where the payload is
    /// `block[CHUNK_HEADER_LEN..]`.
    fn block(&mut self, idx: usize) -> Result<(usize, Vec<u8>), StoreError> {
        let meta = &self.store.chunks[idx];
        let block = self.handle.read_span(meta.offset, meta.block_len)?;
        let (job_count, _) = format::decode_chunk_header(&block)?;
        if u64::from(job_count) != meta.job_count {
            return Err(StoreError::Corrupt {
                context: "chunk job count disagrees with index",
            });
        }
        Ok((job_count as usize, block))
    }

    /// Decode chunk `idx` into jobs. Panics if `idx` is not a chunk of
    /// the store.
    pub fn jobs(&mut self, idx: usize) -> Result<Vec<Job>, StoreError> {
        self.decode(idx, format::ZONE_COLUMNS, format::columns::decode)
    }

    /// Decode chunk `idx` into jobs of their numeric fields alone, with
    /// no name and no paths: those blocks are not read. Panics if `idx`
    /// is not a chunk of the store.
    pub fn numeric_jobs(&mut self, idx: usize) -> Result<Vec<Job>, StoreError> {
        self.decode(idx, format::ZONE_COLUMNS, format::columns::decode_numeric)
    }

    /// Decode the numeric columns of `set` from chunk `idx`; nothing else
    /// of the chunk is touched: not names, not paths, not the numeric
    /// columns outside `set`. Panics if `idx` is not a chunk of the
    /// store.
    pub fn columns(&mut self, idx: usize, set: ColumnSet) -> Result<ChunkColumns, StoreError> {
        self.decode(idx, set.len(), |body, n| {
            format::columns::decode_projected(body, n, set)
        })
    }

    /// Read chunk `idx` and decode its body (what follows the fixed chunk
    /// header), keeping `kept` numeric columns.
    fn decode<T>(
        &mut self,
        idx: usize,
        kept: usize,
        decode: impl FnOnce(&[u8], usize) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let (job_count, block) = self.block(idx)?;
        let _span = begin_decode(kept);
        decode(&block[format::CHUNK_HEADER_LEN..], job_count).map_err(|e| self.handle.blame(e))
    }
}
