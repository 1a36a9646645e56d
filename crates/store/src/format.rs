//! On-disk layout of the `swim-store` columnar trace format.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────┐
//! │ Header   "SWIMCOL1" u16 version  u8 kind  u8 flags             │
//! │          u32 machines  u32 jobs_per_chunk                      │
//! │          u32 custom_len + custom kind label bytes              │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Chunk 0  "SCHK" u32 job_count  u64 payload_len                 │
//! │          payload: 13 column blocks, delta+varint encoded       │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Chunk 1 …                                                      │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Footer   "SFTR" u32 chunk_count                                │
//! │          per chunk: u64 offset, u64 block_len, u64 job_count,  │
//! │                     u64 min_submit, u64 max_submit             │
//! │          summary: u64 jobs, u64 bytes_moved, u64 task_time,    │
//! │                   u64 min_submit, u64 max_submit               │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Trailer  u64 footer_offset  "SWIMEND1"                         │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All fixed-width integers are little-endian. Per-chunk `min`/`max`
//! submit times let readers skip chunks wholesale for time-range queries;
//! the footer summary makes [`TraceSummary`]-style statistics O(1).
//!
//! Version 2 appends a zone-map section to the footer (`"SZMP"`, then per
//! chunk `u64 min × 10` and `u64 max × 10`): `[min, max]` bounds for
//! **every** numeric column — not just submit — in the column layout
//! order of [`columns::NumericColumns`]. Zone maps let the `swim-query`
//! planner skip chunks on arbitrary column predicates. Version 1 files
//! (no zone section) still open and scan; readers synthesize permissive
//! zone maps from the per-chunk submit windows.

use crate::varint;
use crate::StoreError;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, Timestamp, TraceSummary};

/// File magic, first eight bytes.
pub const FILE_MAGIC: [u8; 8] = *b"SWIMCOL1";
/// Trailer magic, last eight bytes of the file.
pub const END_MAGIC: [u8; 8] = *b"SWIMEND1";
/// Chunk block magic.
pub const CHUNK_MAGIC: u32 = u32::from_le_bytes(*b"SCHK");
/// Footer magic.
pub const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"SFTR");
/// Zone-map section magic (footer, version ≥ 2).
pub const ZONE_MAGIC: u32 = u32::from_le_bytes(*b"SZMP");
/// Format version written by this build (v2: footer zone maps).
pub const VERSION: u16 = 2;
/// The original format version: no zone-map section in the footer.
pub const VERSION_1: u16 = 1;
/// Number of numeric columns covered by a [`ZoneMap`] (the ten columns of
/// [`columns::NumericColumns`], in layout order).
pub const ZONE_COLUMNS: usize = 10;
/// Size of the fixed trailer (footer offset + magic).
pub const TRAILER_LEN: usize = 16;
/// Size of each chunk block's fixed header ("SCHK", count, payload_len).
pub const CHUNK_HEADER_LEN: usize = 16;

/// Default number of jobs per chunk: small enough that a chunk of the
/// widest real traces decodes in well under a millisecond, large enough
/// that a million-job trace stays at a few hundred chunks.
pub const DEFAULT_JOBS_PER_CHUNK: u32 = 4096;

/// Parsed file header.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Format version.
    pub version: u16,
    /// Which workload the stored trace represents.
    pub kind: WorkloadKind,
    /// Nominal cluster size.
    pub machines: u32,
    /// Chunking granularity the file was written with.
    pub jobs_per_chunk: u32,
}

fn kind_tag(kind: &WorkloadKind) -> u8 {
    match kind {
        WorkloadKind::CcA => 0,
        WorkloadKind::CcB => 1,
        WorkloadKind::CcC => 2,
        WorkloadKind::CcD => 3,
        WorkloadKind::CcE => 4,
        WorkloadKind::Fb2009 => 5,
        WorkloadKind::Fb2010 => 6,
        WorkloadKind::Custom(_) => 7,
    }
}

fn kind_from_tag(tag: u8, custom: String) -> Result<WorkloadKind, StoreError> {
    Ok(match tag {
        0 => WorkloadKind::CcA,
        1 => WorkloadKind::CcB,
        2 => WorkloadKind::CcC,
        3 => WorkloadKind::CcD,
        4 => WorkloadKind::CcE,
        5 => WorkloadKind::Fb2009,
        6 => WorkloadKind::Fb2010,
        7 => WorkloadKind::Custom(custom),
        _ => {
            return Err(StoreError::Corrupt {
                context: "unknown workload kind tag",
            })
        }
    })
}

impl Header {
    /// Serialize the header (variable length when the kind is custom).
    pub fn encode(&self) -> Vec<u8> {
        let custom = match &self.kind {
            WorkloadKind::Custom(name) => name.as_bytes(),
            _ => &[],
        };
        let mut out = Vec::with_capacity(24 + custom.len());
        out.extend_from_slice(&FILE_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(kind_tag(&self.kind));
        out.push(0); // flags, reserved
        out.extend_from_slice(&self.machines.to_le_bytes());
        out.extend_from_slice(&self.jobs_per_chunk.to_le_bytes());
        out.extend_from_slice(&(custom.len() as u32).to_le_bytes());
        out.extend_from_slice(custom);
        out
    }

    /// Parse a header from the start of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Header, StoreError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != FILE_MAGIC {
            return Err(StoreError::Corrupt {
                context: "bad file magic",
            });
        }
        let version = r.u16()?;
        if !(VERSION_1..=VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let tag = r.u8()?;
        let _flags = r.u8()?;
        let machines = r.u32()?;
        let jobs_per_chunk = r.u32()?;
        let custom_len = r.u32()?;
        let custom = String::from_utf8(r.take(custom_len as usize)?.to_vec()).map_err(|_| {
            StoreError::Corrupt {
                context: "custom kind label not utf-8",
            }
        })?;
        if tag != 7 && custom_len != 0 {
            return Err(StoreError::Corrupt {
                context: "custom label on non-custom kind",
            });
        }
        Ok(Header {
            version,
            kind: kind_from_tag(tag, custom)?,
            machines,
            jobs_per_chunk,
        })
    }

    /// Encoded length of this header.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

/// Footer entry describing one chunk: where it lives and what submit-time
/// window it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk block (its "SCHK" magic).
    pub offset: u64,
    /// Total block length, including the fixed chunk header.
    pub block_len: u64,
    /// Number of jobs in the chunk.
    pub job_count: u64,
    /// Smallest submit time in the chunk.
    pub min_submit: Timestamp,
    /// Largest submit time in the chunk.
    pub max_submit: Timestamp,
}

/// Footer summary: whole-trace statistics computed at write time so that
/// Table-1-style reporting needs no scan at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoredSummary {
    /// Total job count.
    pub jobs: u64,
    /// Σ (input + shuffle + output) over all jobs (saturating).
    pub bytes_moved: DataSize,
    /// Σ (map + reduce task-time) over all jobs (saturating).
    pub task_time: Dur,
    /// Earliest submit (meaningful only when `jobs > 0`).
    pub min_submit: Timestamp,
    /// Latest submit (meaningful only when `jobs > 0`).
    pub max_submit: Timestamp,
}

impl StoredSummary {
    /// Convert to the Table 1 row type, given the header's identity fields.
    pub fn to_trace_summary(&self, kind: &WorkloadKind, machines: u32) -> TraceSummary {
        let length = if self.jobs == 0 {
            Dur::ZERO
        } else {
            self.max_submit.since(self.min_submit)
        };
        TraceSummary {
            workload: kind.label().to_owned(),
            machines,
            length,
            jobs: self.jobs as usize,
            bytes_moved: self.bytes_moved,
        }
    }
}

/// Per-chunk `[min, max]` bounds for every numeric column, in the column
/// layout order of [`columns::NumericColumns`]: id, submit, duration,
/// input, shuffle, output, map_time, reduce_time, map_tasks,
/// reduce_tasks.
///
/// Written by format version 2; readers of version-1 files synthesize a
/// permissive map via [`ZoneMap::submit_only`] so planners can treat
/// every store uniformly (v1 maps prune on submit alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Per-column minimum over the chunk's jobs.
    pub min: [u64; ZONE_COLUMNS],
    /// Per-column maximum over the chunk's jobs.
    pub max: [u64; ZONE_COLUMNS],
}

/// One job's ten numeric columns, in layout order.
fn numeric_values(j: &Job) -> [u64; ZONE_COLUMNS] {
    [
        j.id.0,
        j.submit.secs(),
        j.duration.secs(),
        j.input.bytes(),
        j.shuffle.bytes(),
        j.output.bytes(),
        j.map_task_time.secs(),
        j.reduce_task_time.secs(),
        u64::from(j.map_tasks),
        u64::from(j.reduce_tasks),
    ]
}

impl ZoneMap {
    /// Index of the submit column within the zone arrays.
    pub const SUBMIT: usize = 1;
    /// Indices of the three byte-count columns (input, shuffle, output).
    pub const IO: [usize; 3] = [3, 4, 5];

    /// The map of no jobs: `min > max` in every column, so it overlaps
    /// nothing and is the identity of [`ZoneMap::union`].
    pub const EMPTY: ZoneMap = ZoneMap {
        min: [u64::MAX; ZONE_COLUMNS],
        max: [0; ZONE_COLUMNS],
    };

    /// The zone map of a chunk of jobs, folded in a pass of its own: the
    /// reference the encoder's running map is tested against.
    #[cfg(test)]
    pub(crate) fn of_jobs(jobs: &[Job]) -> ZoneMap {
        let mut zone = ZoneMap::EMPTY;
        for job in jobs {
            zone.cover(&numeric_values(job));
        }
        zone
    }

    /// Widen to cover one job's numeric columns (layout order).
    fn cover(&mut self, values: &[u64; ZONE_COLUMNS]) {
        *self = self.union(ZoneMap {
            min: *values,
            max: *values,
        });
    }

    /// The smallest map covering both: a store's (or shard's) zone map
    /// is the union of its chunks'.
    pub fn union(mut self, other: ZoneMap) -> ZoneMap {
        for i in 0..ZONE_COLUMNS {
            self.min[i] = self.min[i].min(other.min[i]);
            self.max[i] = self.max[i].max(other.max[i]);
        }
        self
    }

    /// The permissive map synthesized for version-1 chunks: real bounds
    /// for submit (the v1 index stores them), full-range everywhere else,
    /// so non-submit predicates can never wrongly skip a v1 chunk.
    pub fn submit_only(min_submit: Timestamp, max_submit: Timestamp) -> ZoneMap {
        let mut min = [0u64; ZONE_COLUMNS];
        let mut max = [u64::MAX; ZONE_COLUMNS];
        min[Self::SUBMIT] = min_submit.secs();
        max[Self::SUBMIT] = max_submit.secs();
        ZoneMap { min, max }
    }
}

/// Parsed footer: the chunk index, the stored summary, and (version ≥ 2)
/// the per-chunk zone maps.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    /// Per-chunk index entries, in file order (non-decreasing min_submit).
    pub chunks: Vec<ChunkMeta>,
    /// Whole-trace statistics.
    pub summary: StoredSummary,
    /// Per-chunk zone maps (`Some` iff the file carries the v2 section;
    /// when present, one entry per chunk).
    pub zones: Option<Vec<ZoneMap>>,
}

impl Footer {
    /// Serialize the footer (the zone section is written iff `zones` is
    /// `Some`).
    pub fn encode(&self) -> Vec<u8> {
        let zone_len = self
            .zones
            .as_ref()
            .map_or(0, |z| 4 + z.len() * 16 * ZONE_COLUMNS);
        let mut out = Vec::with_capacity(8 + self.chunks.len() * 40 + 40 + zone_len);
        out.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.offset.to_le_bytes());
            out.extend_from_slice(&c.block_len.to_le_bytes());
            out.extend_from_slice(&c.job_count.to_le_bytes());
            out.extend_from_slice(&c.min_submit.secs().to_le_bytes());
            out.extend_from_slice(&c.max_submit.secs().to_le_bytes());
        }
        let s = &self.summary;
        out.extend_from_slice(&s.jobs.to_le_bytes());
        out.extend_from_slice(&s.bytes_moved.bytes().to_le_bytes());
        out.extend_from_slice(&s.task_time.secs().to_le_bytes());
        out.extend_from_slice(&s.min_submit.secs().to_le_bytes());
        out.extend_from_slice(&s.max_submit.secs().to_le_bytes());
        if let Some(zones) = &self.zones {
            out.extend_from_slice(&ZONE_MAGIC.to_le_bytes());
            for z in zones {
                for v in z.min.iter().chain(z.max.iter()) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parse a footer from `bytes`. The zone section is recognized by its
    /// magic, so decoding needs no out-of-band version (v1 footers simply
    /// end after the summary).
    pub fn decode(bytes: &[u8]) -> Result<Footer, StoreError> {
        let mut r = Reader::new(bytes);
        let magic = r.u32()?;
        if magic != FOOTER_MAGIC {
            return Err(StoreError::Corrupt {
                context: "bad footer magic",
            });
        }
        let count = r.u32()?;
        // Each index entry is 40 bytes; reject counts the footer cannot
        // possibly hold before reserving memory for them.
        if count as usize > bytes.len().saturating_sub(8) / 40 {
            return Err(StoreError::Corrupt {
                context: "chunk count exceeds footer size",
            });
        }
        let mut chunks = Vec::with_capacity(count as usize);
        for _ in 0..count {
            chunks.push(ChunkMeta {
                offset: r.u64()?,
                block_len: r.u64()?,
                job_count: r.u64()?,
                min_submit: Timestamp::from_secs(r.u64()?),
                max_submit: Timestamp::from_secs(r.u64()?),
            });
        }
        let summary = StoredSummary {
            jobs: r.u64()?,
            bytes_moved: DataSize::from_bytes(r.u64()?),
            task_time: Dur::from_secs(r.u64()?),
            min_submit: Timestamp::from_secs(r.u64()?),
            max_submit: Timestamp::from_secs(r.u64()?),
        };
        let zones = if r.remaining() == 0 {
            None // v1 footer: nothing after the summary.
        } else {
            let magic = r.u32()?;
            if magic != ZONE_MAGIC {
                return Err(StoreError::Corrupt {
                    context: "bad zone-map magic",
                });
            }
            if r.remaining() != chunks.len() * 16 * ZONE_COLUMNS {
                return Err(StoreError::Corrupt {
                    context: "zone-map section length disagrees with chunk count",
                });
            }
            let mut zones = Vec::with_capacity(chunks.len());
            for _ in 0..chunks.len() {
                let mut z = ZoneMap {
                    min: [0; ZONE_COLUMNS],
                    max: [0; ZONE_COLUMNS],
                };
                for v in z.min.iter_mut().chain(z.max.iter_mut()) {
                    *v = r.u64()?;
                }
                zones.push(z);
            }
            Some(zones)
        };
        Ok(Footer {
            chunks,
            summary,
            zones,
        })
    }
}

/// Bounds-checked byte cursor for the fixed-width sections.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated {
            context: "length overflow in fixed section",
        })?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated {
                context: "fixed section runs past end",
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// `take(N)` as a fixed-size array. `take` already bounds-checked,
    /// so the conversion maps a (impossible) size mismatch to `Corrupt`
    /// instead of panicking.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        self.take(N)?.try_into().map_err(|_| StoreError::Corrupt {
            context: "fixed-width field size",
        })
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        let [b] = self.take_arr::<1>()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take_arr()?))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Encode one chunk's fixed header.
pub fn encode_chunk_header(job_count: u32, payload_len: u64) -> [u8; CHUNK_HEADER_LEN] {
    let mut out = [0u8; CHUNK_HEADER_LEN];
    out[0..4].copy_from_slice(&CHUNK_MAGIC.to_le_bytes()); // lint: allow(panic, "constant ranges inside a fixed [u8; 16]")
    out[4..8].copy_from_slice(&job_count.to_le_bytes()); // lint: allow(panic, "constant ranges inside a fixed [u8; 16]")
    out[8..16].copy_from_slice(&payload_len.to_le_bytes()); // lint: allow(panic, "constant ranges inside a fixed [u8; 16]")
    out
}

/// Decode and validate a chunk block's fixed header; returns
/// `(job_count, payload_len)`.
pub fn decode_chunk_header(block: &[u8]) -> Result<(u32, u64), StoreError> {
    if block.len() < CHUNK_HEADER_LEN {
        return Err(StoreError::Truncated {
            context: "chunk block shorter than header",
        });
    }
    let mut r = Reader::new(block);
    let magic = r.u32()?;
    if magic != CHUNK_MAGIC {
        return Err(StoreError::Corrupt {
            context: "bad chunk magic",
        });
    }
    let job_count = r.u32()?;
    let payload_len = r.u64()?;
    if payload_len != (block.len() - CHUNK_HEADER_LEN) as u64 {
        return Err(StoreError::Corrupt {
            context: "chunk payload length disagrees with index",
        });
    }
    Ok((job_count, payload_len))
}

/// Encode the file trailer pointing at the footer.
pub fn encode_trailer(footer_offset: u64) -> [u8; TRAILER_LEN] {
    let mut out = [0u8; TRAILER_LEN];
    out[0..8].copy_from_slice(&footer_offset.to_le_bytes()); // lint: allow(panic, "constant ranges inside a fixed [u8; 16]")
    out[8..16].copy_from_slice(&END_MAGIC); // lint: allow(panic, "constant ranges inside a fixed [u8; 16]")
    out
}

/// Decode the file trailer: validates the end magic and returns the
/// footer offset.
pub fn decode_trailer(trailer: &[u8]) -> Result<u64, StoreError> {
    let mut r = Reader::new(trailer);
    let footer_offset = r.u64()?;
    if r.take(END_MAGIC.len())? != END_MAGIC {
        return Err(StoreError::Corrupt {
            context: "bad trailer magic",
        });
    }
    Ok(footer_offset)
}

/// Peek the custom-kind label length out of the fixed 24-byte header
/// prefix (bytes 20..24) without decoding the whole header — the reader
/// needs it to size the full variable-length header read.
pub fn header_custom_len(fixed: &[u8]) -> Result<u32, StoreError> {
    let mut r = Reader::new(fixed);
    r.take(20)?;
    r.u32()
}

/// Column payload codec for one chunk of jobs.
pub mod columns {
    use super::*;
    use swim_trace::{Job, JobBuilder, PathId};

    /// Incremental encoder of one chunk's payload (thirteen column
    /// blocks). [`Encoder::push`] appends a job's fields to per-column
    /// byte buffers and widens the chunk's zone map in the same pass —
    /// no job is kept — and [`Encoder::finish`] concatenates the buffers
    /// in layout order and starts the next chunk.
    #[derive(Debug)]
    pub struct Encoder {
        rows: usize,
        numeric: [Vec<u8>; ZONE_COLUMNS],
        /// Last id and submit, the running values of the delta columns.
        prev: [u64; DELTA_COLUMNS],
        name_lens: Vec<u8>,
        names: Vec<u8>,
        /// Input and output path lists: per-job counts, flattened ids.
        paths: [(Vec<u8>, Vec<u8>); 2],
        zone: ZoneMap,
    }

    impl Default for Encoder {
        fn default() -> Encoder {
            Encoder {
                rows: 0,
                numeric: Default::default(),
                prev: [0; DELTA_COLUMNS],
                name_lens: Vec::new(),
                names: Vec::new(),
                paths: Default::default(),
                zone: ZoneMap::EMPTY,
            }
        }
    }

    impl Encoder {
        /// Jobs pushed since the last [`Encoder::finish`].
        pub fn rows(&self) -> usize {
            self.rows
        }

        /// Append one job to the chunk.
        pub fn push(&mut self, job: &Job) {
            let values = numeric_values(job);
            self.zone.cover(&values);
            for (column, (buf, v)) in self.numeric.iter_mut().zip(values).enumerate() {
                match self.prev.get_mut(column) {
                    Some(prev) => {
                        varint::put_u64(buf, v.wrapping_sub(*prev));
                        *prev = v;
                    }
                    None => varint::put_u64(buf, v),
                }
            }
            varint::put_u64(&mut self.name_lens, job.name.len() as u64);
            self.names.extend_from_slice(job.name.as_bytes());
            for ((counts, ids), list) in self
                .paths
                .iter_mut()
                .zip([&job.input_paths, &job.output_paths])
            {
                varint::put_u64(counts, list.len() as u64);
                varint::put_column(ids, list.iter().map(|id| id.0));
            }
            self.rows += 1;
        }

        /// The column buffers in layout order: ten numeric columns, name
        /// lengths then bytes, and per path list counts then ids.
        fn buffers(&mut self) -> impl Iterator<Item = &mut Vec<u8>> {
            self.numeric
                .iter_mut()
                .chain([&mut self.name_lens, &mut self.names])
                .chain(
                    self.paths
                        .iter_mut()
                        .flat_map(|(counts, ids)| [counts, ids]),
                )
        }

        /// Byte length of the payload [`Encoder::finish`] would append.
        pub fn payload_len(&self) -> usize {
            let numeric: usize = self.numeric.iter().map(Vec::len).sum();
            let paths: usize = self.paths.iter().map(|(c, ids)| c.len() + ids.len()).sum();
            numeric + self.name_lens.len() + self.names.len() + paths
        }

        /// Append the chunk's payload to `out`, return the chunk's zone
        /// map ([`ZoneMap::EMPTY`] for no rows), and start an empty chunk.
        pub fn finish(&mut self, out: &mut Vec<u8>) -> ZoneMap {
            for buf in self.buffers() {
                out.extend_from_slice(buf);
                buf.clear();
            }
            self.rows = 0;
            self.prev = [0; DELTA_COLUMNS];
            std::mem::replace(&mut self.zone, ZoneMap::EMPTY)
        }
    }

    /// The ten numeric columns of one chunk, decoded without touching the
    /// variable-width name/path columns that follow them in the layout.
    ///
    /// This is the projection the §4/§5 statistics fold over: because the
    /// numeric columns are stored *first*, a statistics scan never walks —
    /// let alone allocates — names or path lists.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct NumericColumns {
        /// Job ids.
        pub ids: Vec<u64>,
        /// Submit seconds (non-decreasing within a chunk).
        pub submits: Vec<u64>,
        /// Durations in seconds.
        pub durations: Vec<u64>,
        /// Input bytes.
        pub inputs: Vec<u64>,
        /// Shuffle bytes.
        pub shuffles: Vec<u64>,
        /// Output bytes.
        pub outputs: Vec<u64>,
        /// Map task-time seconds.
        pub map_times: Vec<u64>,
        /// Reduce task-time seconds.
        pub reduce_times: Vec<u64>,
        /// Map task counts.
        pub map_tasks: Vec<u64>,
        /// Reduce task counts.
        pub reduce_tasks: Vec<u64>,
    }

    impl NumericColumns {
        /// Number of jobs in the chunk.
        pub fn len(&self) -> usize {
            self.ids.len()
        }

        /// `true` iff the chunk is empty.
        pub fn is_empty(&self) -> bool {
            self.ids.is_empty()
        }

        /// Total I/O bytes of job `i` (input + shuffle + output),
        /// saturating like [`Job::total_io`].
        pub fn total_io(&self, i: usize) -> DataSize {
            DataSize::from_bytes(self.inputs[i])
                + DataSize::from_bytes(self.shuffles[i])
                + DataSize::from_bytes(self.outputs[i])
        }

        /// Total task-time of job `i`, saturating like
        /// [`Job::total_task_time`].
        pub fn total_task_time(&self, i: usize) -> Dur {
            Dur::from_secs(self.map_times[i]) + Dur::from_secs(self.reduce_times[i])
        }
    }

    impl NumericColumns {
        /// All ten columns as the view the query kernel folds.
        pub fn view(&self) -> ChunkView<'_> {
            ChunkView::new(
                self.len(),
                [
                    &self.ids,
                    &self.submits,
                    &self.durations,
                    &self.inputs,
                    &self.shuffles,
                    &self.outputs,
                    &self.map_times,
                    &self.reduce_times,
                    &self.map_tasks,
                    &self.reduce_tasks,
                ],
            )
        }
    }

    impl From<ChunkColumns> for NumericColumns {
        /// Names the ten columns of a chunk decoded under
        /// [`ColumnSet::ALL`]; nothing is copied.
        fn from(chunk: ChunkColumns) -> NumericColumns {
            let [ids, submits, durations, inputs, shuffles, outputs, map_times, reduce_times, map_tasks, reduce_tasks] =
                chunk.cols;
            NumericColumns {
                ids,
                submits,
                durations,
                inputs,
                shuffles,
                outputs,
                map_times,
                reduce_times,
                map_tasks,
                reduce_tasks,
            }
        }
    }

    /// A set of the ten numeric columns, by layout index (the
    /// [`ZoneMap`] order): what a reader asks a decode to keep.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ColumnSet(u16);

    impl ColumnSet {
        /// No column: a decode still walks and validates all ten.
        pub const EMPTY: ColumnSet = ColumnSet(0);
        /// All ten columns.
        pub const ALL: ColumnSet = ColumnSet((1 << ZONE_COLUMNS) - 1);

        /// The set plus `column` (indices past the tenth are ignored).
        pub const fn with(self, column: usize) -> ColumnSet {
            if column < ZONE_COLUMNS {
                ColumnSet(self.0 | 1 << column)
            } else {
                self
            }
        }

        /// `true` iff `column` is in the set.
        pub const fn contains(self, column: usize) -> bool {
            column < ZONE_COLUMNS && self.0 >> column & 1 == 1
        }

        /// Number of columns in the set.
        pub const fn len(self) -> usize {
            self.0.count_ones() as usize
        }

        /// `true` iff the set is empty.
        pub const fn is_empty(self) -> bool {
            self.0 == 0
        }

        /// The columns of this set that `other` lacks.
        pub const fn minus(self, other: ColumnSet) -> ColumnSet {
            ColumnSet(self.0 & !other.0)
        }
    }

    /// The first columns of the layout (id, submit) are delta-encoded.
    const DELTA_COLUMNS: usize = 2;

    /// One chunk decoded under a projection: the row count, and per
    /// column (layout order) its values — empty when the column was not
    /// asked for.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ChunkColumns {
        /// Jobs in the chunk, whichever columns were kept.
        pub rows: usize,
        /// Decoded values per column; skipped columns stay empty.
        pub cols: [Vec<u64>; ZONE_COLUMNS],
    }

    impl ChunkColumns {
        /// Borrow as the view the query kernel folds.
        pub fn view(&self) -> ChunkView<'_> {
            ChunkView::new(self.rows, self.cols.each_ref().map(Vec::as_slice))
        }
    }

    /// A chunk's columns borrowed from wherever they live (a fresh
    /// decode, a cache entry's per-column vectors). The row count does
    /// not depend on which columns are present; an absent column reads as
    /// an empty slice.
    #[derive(Debug, Clone, Copy)]
    pub struct ChunkView<'a> {
        rows: usize,
        cols: [&'a [u64]; ZONE_COLUMNS],
    }

    impl<'a> ChunkView<'a> {
        /// A view of `rows` rows over `cols` (layout order).
        pub fn new(rows: usize, cols: [&'a [u64]; ZONE_COLUMNS]) -> ChunkView<'a> {
            debug_assert!(cols.iter().all(|c| c.is_empty() || c.len() == rows));
            ChunkView { rows, cols }
        }

        /// Number of jobs in the chunk.
        pub fn len(&self) -> usize {
            self.rows
        }

        /// `true` iff the chunk is empty.
        pub fn is_empty(&self) -> bool {
            self.rows == 0
        }

        /// Column `column`'s values (empty if absent or out of range).
        pub fn column(&self, column: usize) -> &'a [u64] {
            self.cols.get(column).copied().unwrap_or(&[])
        }
    }

    /// Decode the columns of `set` from a chunk payload in one pass,
    /// stepping over the others (and stopping before the name/path
    /// columns). A skipped column is still walked varint by varint
    /// ([`varint::skip_column`]): its count is checked against the
    /// remaining bytes, truncation and `u64` overflow inside it are
    /// reported, so every projection accepts and rejects the same payloads
    /// with the same error.
    pub fn decode_projected(
        payload: &[u8],
        n: usize,
        set: ColumnSet,
    ) -> Result<ChunkColumns, StoreError> {
        decode_projected_at(payload, &mut 0, n, set)
    }

    fn decode_projected_at(
        payload: &[u8],
        pos: &mut usize,
        n: usize,
        set: ColumnSet,
    ) -> Result<ChunkColumns, StoreError> {
        let mut cols: [Vec<u64>; ZONE_COLUMNS] = Default::default();
        for (column, values) in cols.iter_mut().enumerate() {
            if !set.contains(column) {
                varint::skip_column(payload, pos, n)?;
            } else if column < DELTA_COLUMNS {
                *values = varint::get_delta_column(payload, pos, n)?;
            } else {
                *values = varint::get_column(payload, pos, n)?;
            }
        }
        Ok(ChunkColumns { rows: n, cols })
    }

    /// Decode `n` jobs from a chunk payload.
    pub fn decode(payload: &[u8], n: usize) -> Result<Vec<Job>, StoreError> {
        let pos = &mut 0usize;
        let NumericColumns {
            ids,
            submits,
            durations,
            inputs,
            shuffles,
            outputs,
            map_times,
            reduce_times,
            map_tasks,
            reduce_tasks,
        } = decode_projected_at(payload, pos, n, ColumnSet::ALL)?.into();
        let name_lens = varint::get_column(payload, pos, n)?;
        let mut names = Vec::with_capacity(n);
        for &len in &name_lens {
            let len = usize::try_from(len).map_err(|_| StoreError::Corrupt {
                context: "name length overflows usize",
            })?;
            let end = pos.checked_add(len).filter(|&e| e <= payload.len()).ok_or(
                StoreError::Truncated {
                    context: "name bytes run past chunk",
                },
            )?;
            let name =
                std::str::from_utf8(&payload[*pos..end]).map_err(|_| StoreError::Corrupt {
                    context: "job name not utf-8",
                })?;
            names.push(name.to_owned());
            *pos = end;
        }
        let mut path_lists = [Vec::new(), Vec::new()];
        for lists in &mut path_lists {
            let counts = varint::get_column(payload, pos, n)?;
            for &count in &counts {
                let count = usize::try_from(count).map_err(|_| StoreError::Corrupt {
                    context: "path count overflows usize",
                })?;
                if count > payload.len() {
                    // Each id takes at least one byte; anything larger than
                    // the payload is corrupt, not just big.
                    return Err(StoreError::Corrupt {
                        context: "path count exceeds chunk payload",
                    });
                }
                let ids = varint::get_column(payload, pos, count)?;
                lists.push(ids.into_iter().map(PathId).collect::<Vec<_>>());
            }
        }
        if *pos != payload.len() {
            return Err(StoreError::Corrupt {
                context: "trailing bytes after last column",
            });
        }
        let [mut input_paths, mut output_paths] = path_lists;

        let mut jobs = Vec::with_capacity(n);
        for i in 0..n {
            let map = u32::try_from(map_tasks[i]).map_err(|_| StoreError::Corrupt {
                context: "map task count overflows u32",
            })?;
            let reduce = u32::try_from(reduce_tasks[i]).map_err(|_| StoreError::Corrupt {
                context: "reduce task count overflows u32",
            })?;
            jobs.push(
                JobBuilder::new(ids[i])
                    .name(std::mem::take(&mut names[i]))
                    .submit(Timestamp::from_secs(submits[i]))
                    .duration(Dur::from_secs(durations[i]))
                    .input(DataSize::from_bytes(inputs[i]))
                    .shuffle(DataSize::from_bytes(shuffles[i]))
                    .output(DataSize::from_bytes(outputs[i]))
                    .map_task_time(Dur::from_secs(map_times[i]))
                    .reduce_task_time(Dur::from_secs(reduce_times[i]))
                    .tasks(map, reduce)
                    .input_paths(std::mem::take(&mut input_paths[i]))
                    .output_paths(std::mem::take(&mut output_paths[i]))
                    .build_unchecked(),
            );
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip_paper_kind() {
        let h = Header {
            version: VERSION,
            kind: WorkloadKind::Fb2010,
            machines: 3000,
            jobs_per_chunk: 512,
        };
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).unwrap(), h);
        assert_eq!(bytes.len(), h.encoded_len());
    }

    #[test]
    fn header_round_trip_custom_kind() {
        let h = Header {
            version: VERSION,
            kind: WorkloadKind::Custom("täst+trace".into()),
            machines: 7,
            jobs_per_chunk: DEFAULT_JOBS_PER_CHUNK,
        };
        assert_eq!(Header::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let h = Header {
            version: VERSION,
            kind: WorkloadKind::CcA,
            machines: 1,
            jobs_per_chunk: 1,
        };
        let mut bytes = h.encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        let mut bytes = h.encode();
        bytes[8] = 99;
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn footer_round_trip() {
        let f = Footer {
            chunks: vec![
                ChunkMeta {
                    offset: 24,
                    block_len: 1000,
                    job_count: 512,
                    min_submit: Timestamp::from_secs(0),
                    max_submit: Timestamp::from_secs(3599),
                },
                ChunkMeta {
                    offset: 1024,
                    block_len: 900,
                    job_count: 311,
                    min_submit: Timestamp::from_secs(3599),
                    max_submit: Timestamp::from_secs(9000),
                },
            ],
            summary: StoredSummary {
                jobs: 823,
                bytes_moved: DataSize::from_tb(2),
                task_time: Dur::from_hours(900),
                min_submit: Timestamp::from_secs(0),
                max_submit: Timestamp::from_secs(9000),
            },
            zones: None,
        };
        // v1 layout (no zone section).
        assert_eq!(Footer::decode(&f.encode()).unwrap(), f);

        // v2 layout: one zone map per chunk.
        let mut v2 = f.clone();
        v2.zones = Some(
            (0..2)
                .map(|i| ZoneMap {
                    min: [i; ZONE_COLUMNS],
                    max: [i + 100; ZONE_COLUMNS],
                })
                .collect(),
        );
        assert_eq!(Footer::decode(&v2.encode()).unwrap(), v2);
    }

    #[test]
    fn zone_section_length_must_match_chunk_count() {
        let f = Footer {
            chunks: vec![ChunkMeta {
                offset: 24,
                block_len: 10,
                job_count: 1,
                min_submit: Timestamp::ZERO,
                max_submit: Timestamp::ZERO,
            }],
            summary: StoredSummary {
                jobs: 1,
                bytes_moved: DataSize::ZERO,
                task_time: Dur::ZERO,
                min_submit: Timestamp::ZERO,
                max_submit: Timestamp::ZERO,
            },
            zones: Some(vec![ZoneMap {
                min: [0; ZONE_COLUMNS],
                max: [0; ZONE_COLUMNS],
            }]),
        };
        let mut bytes = f.encode();
        bytes.extend_from_slice(&[0u8; 8]); // extra trailing bytes
        assert!(matches!(
            Footer::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn zone_map_of_jobs_bounds_every_column() {
        use swim_trace::JobBuilder;
        let jobs = [
            JobBuilder::new(3)
                .submit(Timestamp::from_secs(100))
                .duration(Dur::from_secs(9))
                .input(DataSize::from_bytes(50))
                .map_task_time(Dur::from_secs(7))
                .tasks(2, 0)
                .build()
                .unwrap(),
            JobBuilder::new(8)
                .submit(Timestamp::from_secs(200))
                .duration(Dur::from_secs(1))
                .input(DataSize::from_bytes(5))
                .shuffle(DataSize::from_bytes(11))
                .map_task_time(Dur::from_secs(70))
                .reduce_task_time(Dur::from_secs(3))
                .tasks(5, 4)
                .build()
                .unwrap(),
        ];
        let z = ZoneMap::of_jobs(&jobs);
        assert_eq!(z.min, [3, 100, 1, 5, 0, 0, 7, 0, 2, 0]);
        assert_eq!(z.max, [8, 200, 9, 50, 11, 0, 70, 3, 5, 4]);
    }

    /// The payload written out longhand, one pass per column block: what
    /// the incremental encoder must reproduce byte for byte.
    fn encode_by_column(out: &mut Vec<u8>, jobs: &[Job]) {
        varint::put_delta_column(out, jobs.iter().map(|j| j.id.0));
        varint::put_delta_column(out, jobs.iter().map(|j| j.submit.secs()));
        varint::put_column(out, jobs.iter().map(|j| j.duration.secs()));
        varint::put_column(out, jobs.iter().map(|j| j.input.bytes()));
        varint::put_column(out, jobs.iter().map(|j| j.shuffle.bytes()));
        varint::put_column(out, jobs.iter().map(|j| j.output.bytes()));
        varint::put_column(out, jobs.iter().map(|j| j.map_task_time.secs()));
        varint::put_column(out, jobs.iter().map(|j| j.reduce_task_time.secs()));
        varint::put_column(out, jobs.iter().map(|j| u64::from(j.map_tasks)));
        varint::put_column(out, jobs.iter().map(|j| u64::from(j.reduce_tasks)));
        varint::put_column(out, jobs.iter().map(|j| j.name.len() as u64));
        for j in jobs {
            out.extend_from_slice(j.name.as_bytes());
        }
        for paths in [
            jobs.iter().map(|j| &j.input_paths).collect::<Vec<_>>(),
            jobs.iter().map(|j| &j.output_paths).collect::<Vec<_>>(),
        ] {
            varint::put_column(out, paths.iter().map(|p| p.len() as u64));
            for p in &paths {
                varint::put_column(out, p.iter().map(|id| id.0));
            }
        }
    }

    #[test]
    fn encoder_matches_the_column_at_a_time_layout() {
        use swim_trace::{JobBuilder, PathId};
        let jobs: Vec<Job> = (0..300u64)
            .map(|i| {
                JobBuilder::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .name("n".repeat((i % 5) as usize))
                    .submit(Timestamp::from_secs(u64::MAX - i * 97 % 50_000))
                    .duration(Dur::from_secs(i % 399))
                    .input(DataSize::from_bytes(i << (i % 60)))
                    .shuffle(DataSize::from_bytes(i * 13))
                    .output(DataSize::from_bytes(u64::MAX / (i + 1)))
                    .map_task_time(Dur::from_secs(5 + i % 100))
                    .reduce_task_time(Dur::from_secs(i % 55))
                    .tasks(u32::MAX - i as u32, (i % 3) as u32)
                    .input_paths((0..i % 4).map(|p| PathId(p << 40)).collect())
                    .output_paths(vec![PathId(i); (i % 2) as usize])
                    .build_unchecked()
            })
            .collect();
        let mut encoder = columns::Encoder::default();
        // Back-to-back chunks through one encoder: finish leaves no state.
        for chunk in [&jobs[..0], &jobs[..1], &jobs[1..200], &jobs[200..]] {
            let mut expected = Vec::new();
            encode_by_column(&mut expected, chunk);
            for job in chunk {
                encoder.push(job);
            }
            assert_eq!(encoder.rows(), chunk.len());
            assert_eq!(encoder.payload_len(), expected.len());
            let mut payload = Vec::new();
            assert_eq!(encoder.finish(&mut payload), ZoneMap::of_jobs(chunk));
            assert_eq!(payload, expected);
            assert_eq!(columns::decode(&payload, chunk.len()).unwrap(), chunk);
        }
    }

    #[test]
    fn submit_only_zone_is_permissive_everywhere_else() {
        let z = ZoneMap::submit_only(Timestamp::from_secs(5), Timestamp::from_secs(9));
        assert_eq!(z.min[ZoneMap::SUBMIT], 5);
        assert_eq!(z.max[ZoneMap::SUBMIT], 9);
        for i in (0..ZONE_COLUMNS).filter(|&i| i != ZoneMap::SUBMIT) {
            assert_eq!(z.min[i], 0);
            assert_eq!(z.max[i], u64::MAX);
        }
    }

    #[test]
    fn absurd_footer_chunk_count_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Footer::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn chunk_header_validates_length() {
        let header = encode_chunk_header(5, 10);
        let mut block = header.to_vec();
        block.extend_from_slice(&[0u8; 10]);
        assert_eq!(decode_chunk_header(&block).unwrap(), (5, 10));
        block.push(0);
        assert!(decode_chunk_header(&block).is_err());
    }

    #[test]
    fn summary_to_table1_row() {
        let s = StoredSummary {
            jobs: 10,
            bytes_moved: DataSize::from_gb(5),
            task_time: Dur::from_hours(1),
            min_submit: Timestamp::from_secs(100),
            max_submit: Timestamp::from_secs(700),
        };
        let row = s.to_trace_summary(&WorkloadKind::CcB, 300);
        assert_eq!(row.workload, "CC-b");
        assert_eq!(row.length, Dur::from_secs(600));
        assert_eq!(row.jobs, 10);
        let empty = StoredSummary { jobs: 0, ..s };
        assert_eq!(
            empty.to_trace_summary(&WorkloadKind::CcB, 300).length,
            Dur::ZERO
        );
    }
}
