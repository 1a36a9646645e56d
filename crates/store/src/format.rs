//! On-disk layout of the `swim-store` columnar trace format (version 5).
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────┐
//! │ Header   "SWIMCOL1" u16 version  u8 kind  u8 flags             │
//! │          u32 machines  u32 jobs_per_chunk                      │
//! │          u32 custom_len + custom kind label bytes              │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Chunk 0  "SCHK" u32 job_count  u64 payload_len                 │
//! │          table: 19 × (u64 length, u64 checksum), one per block │
//! │          19 column blocks, back to back, every one but stems   │
//! │          bit-packed (crate::pack):                             │
//! │            10 numeric   per job; id and submit as deltas       │
//! │            stems        count, then length + bytes each        │
//! │            codes        per job stem_id * 2 + has_suffix       │
//! │            suffixes     zigzag delta from the stem's last one  │
//! │            2 counts     per job its input, its output paths    │
//! │            kinds        per path id: fresh, back or literal    │
//! │            fresh        step over the running maximum          │
//! │            back         distance to the id's last occurrence   │
//! │            literals     the id itself                          │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Chunk 1 …                                                      │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Footer   "SFTR" u32 chunk_count                                │
//! │          per chunk: u64 offset, u64 block_len, u64 job_count,  │
//! │                     u64 min_submit, u64 max_submit             │
//! │          summary: u64 jobs, u64 bytes_moved, u64 task_time,    │
//! │                   u64 min_submit, u64 max_submit               │
//! │          "SZMP", per chunk: u64 min × 10, u64 max × 10         │
//! ├────────────────────────────────────────────────────────────────┤
//! │ Trailer  u64 checksum of header, footer and footer_offset      │
//! │          u64 footer_offset  "SWIMEND1"                         │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All fixed-width integers are little-endian. Per-chunk `min`/`max`
//! submit times let readers skip chunks wholesale for time-range queries;
//! the footer summary makes [`TraceSummary`]-style statistics O(1); the
//! zone-map section bounds **every** numeric column of every chunk — in
//! the column layout order of [`columns::ChunkColumns`] — so the
//! `swim-query` planner can skip chunks on arbitrary column predicates.
//!
//! **Integers.** Each of the eighteen integer blocks is one
//! [`crate::pack`] block: the block's minimum, one bit width, the low
//! bits of every value above the minimum packed at that width, and the
//! few values that do not fit patched in after them. The width is the
//! one that makes the block smallest, so a column of zeros — the reduce
//! columns of a map-only job — costs three bytes a chunk, and no block
//! costs more than 8 bytes a value plus a 12-byte header. The number of
//! values is never stored in the block: it is the chunk's rows, the
//! number of codes with a suffix, the sum of the path counts, or how
//! many of those references are of a kind. Since a run of equal values
//! packs to nothing, a chunk's job count is bounded by the header's
//! `jobs_per_chunk`, itself at most [`MAX_JOBS_PER_CHUNK`], not by the
//! chunk's length; kinds are never packed at width 0, so their block's
//! length bounds the path counts.
//!
//! **Path ids.** §4 of the paper finds a job's files mostly new or
//! touched shortly before (Figs. 5–6). A chunk's path ids are one stream
//! in job order — each job's inputs, then its outputs — and each is one
//! of three references: *fresh* (kind 0), an id above every id before it
//! in the chunk, stored as its step over their maximum less one (the
//! chunk's first id whole); *back* (1), the id `d + 1` references
//! earlier, stored as `d`; or *literal* (2), the id itself. Ids minted
//! densely in order of first use make a new file a fresh step near zero
//! and a recent re-access a short distance; only an old file costs a
//! whole id. The writer finds back-references through a direct-mapped
//! memo of where each id last occurred, so a collision turns one into a
//! literal: hostile ids cost bytes, never time. A reader just follows
//! the distances. Ids with neither order nor repeats pay two bits a
//! kind over storing them whole.
//!
//! **Integrity.** Every byte of a file is covered by a
//! [`checksum`] or by a check against bytes that are. The trailer's
//! checksum covers the header, the footer and the footer offset, and is
//! verified at open. Each chunk's table holds the length and checksum of
//! each of its column blocks: the lengths must add up to `payload_len`
//! (which must agree with the footer's index, as must `job_count`), and
//! a block is verified against its checksum before it is decoded —
//! *only* then, so a projected read verifies exactly the blocks it
//! reads and slices straight to them by the table's lengths. A mismatch
//! is a typed [`StoreError::Checksum`].
//!
//! **Job names.** §6.1 of the paper (Fig. 10) finds that a handful of
//! framework-generated first words name nearly all jobs. A name is
//! therefore stored split ([`columns::split_name`]) as `stem ‖
//! decimal(suffix)`, where the suffix is the longest run of ASCII digits
//! at the end of the name that fits a `u64` and has no leading zero
//! (`0` itself is fine): `insert_4411` is `insert_` + 4411, `job_007` is
//! `job_00` + 7, a 25-digit tail keeps its first digits in the stem, and
//! a name with no such run (the empty name too) is all stem. The chunk
//! lists each distinct stem once, in order of first use; a job costs one
//! code naming its stem and, if it has a suffix, the suffix as a delta
//! from the previous suffix under the same stem — about 2 bytes a job on
//! generated workloads, where the raw bytes cost 23. Every UTF-8 name
//! round-trips byte for byte. The worst case is a chunk of all-distinct
//! digitless names: each costs its length and bytes, as it would raw,
//! plus a code of at most 21 bits (13 at the default chunk size).
//!
//! **Versions.** This is the only layout a reader accepts: a header of
//! any other version is refused with [`StoreError::UnsupportedVersion`]
//! before its footer is read or any checksum checked. Files of versions
//! 1–4 are brought across by re-encoding them with a build that still
//! reads them.

use crate::pack;
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
/// Zone-map section magic (footer).
pub const ZONE_MAGIC: u32 = u32::from_le_bytes(*b"SZMP");
/// The format version this build writes, and the only one it reads.
pub const VERSION: u16 = 5;

/// Largest `jobs_per_chunk` a file may have. Chunks are decoded whole,
/// so a chunk bigger than this defeats both chunk skipping and the
/// bounded memory of streaming scans; the writer caps requests above it
/// and readers refuse a file that claims more.
pub const MAX_JOBS_PER_CHUNK: u32 = 1 << 20;

/// Number of numeric columns covered by a [`ZoneMap`] (the ten columns of
/// [`columns::ChunkColumns`], in layout order).
pub const ZONE_COLUMNS: usize = 10;
/// Size of the trailer (footer offset + magic).
pub const TRAILER_LEN: usize = 16;
/// Size of a stored [`checksum`]; one precedes the trailer.
pub const CHECKSUM_LEN: usize = 8;
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
        if version != VERSION {
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
/// layout order of [`columns::ChunkColumns`]: id, submit, duration,
/// input, shuffle, output, map_time, reduce_time, map_tasks,
/// reduce_tasks.
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
}

/// Parsed footer: the chunk index, the stored summary and the per-chunk
/// zone maps.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    /// Per-chunk index entries, in file order (non-decreasing min_submit).
    pub chunks: Vec<ChunkMeta>,
    /// Whole-trace statistics.
    pub summary: StoredSummary,
    /// Per-chunk zone maps, one per chunk.
    pub zones: Vec<ZoneMap>,
}

impl Footer {
    /// Serialize the footer.
    pub fn encode(&self) -> Vec<u8> {
        let zone_len = 4 + self.zones.len() * 16 * ZONE_COLUMNS;
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
        out.extend_from_slice(&ZONE_MAGIC.to_le_bytes());
        for z in &self.zones {
            for v in z.min.iter().chain(z.max.iter()) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parse a footer from `bytes`; the zone section must follow the
    /// summary and hold exactly one map per chunk.
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
        if r.u32().ok() != Some(ZONE_MAGIC) {
            return Err(StoreError::Corrupt {
                context: "footer lacks the zone-map section",
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

/// The store's checksum: a 64-bit multiply-rotate fold over the bytes as
/// little-endian words (the last one zero-padded), seeded with the
/// length. Whole 32-byte groups go through four independent lanes, a
/// word each, so the multiplies overlap; the lanes are then folded into
/// one state like four more words, and the rest of the bytes after them.
/// Each step is a bijection of the state for a given word and of the
/// word for a given state, and so is the final mix: two inputs of one
/// length that differ within a single word — any single flipped bit —
/// never share a checksum; anything else collides with probability 2⁻⁶⁴.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    fn step(h: u64, word: &[u8]) -> u64 {
        let mut padded = [0u8; 8];
        for (to, from) in padded.iter_mut().zip(word) {
            *to = *from;
        }
        (h.rotate_left(23) ^ u64::from_le_bytes(padded)).wrapping_mul(K)
    }
    let seed = (bytes.len() as u64 ^ K).wrapping_mul(K);
    let mut lanes = [seed, !seed, seed ^ K, !seed ^ K];
    let mut groups = bytes.chunks_exact(32);
    for group in &mut groups {
        for (lane, word) in lanes.iter_mut().zip(group.chunks_exact(8)) {
            *lane = step(*lane, word);
        }
    }
    let mut h = seed;
    for lane in lanes {
        h = step(h, &lane.to_le_bytes());
    }
    for word in groups.remainder().chunks(8) {
        h = step(h, word);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(K);
    h ^ h >> 29
}

/// Fail with [`StoreError::Checksum`] unless `bytes` have the stored
/// checksum `expected`. The error names no file; the reader that knows
/// one adds it ([`StoreError::at_path`]).
fn verify(bytes: &[u8], expected: u64, context: &'static str) -> Result<(), StoreError> {
    if checksum(bytes) == expected {
        Ok(())
    } else {
        Err(StoreError::Checksum {
            path: None,
            context,
        })
    }
}

/// What the trailer's checksum is taken over: the checksums of the
/// encoded header and footer and the footer offset, so a flipped bit in
/// any of the three changes exactly one word of what is folded.
fn meta_words(header: &[u8], footer: &[u8], footer_offset: u64) -> [u8; 24] {
    let mut words = [0u8; 24];
    let parts = [checksum(header), checksum(footer), footer_offset];
    for (word, part) in words.chunks_exact_mut(8).zip(parts) {
        word.copy_from_slice(&part.to_le_bytes());
    }
    words
}

/// Encode what follows the footer: the checksum of the file's metadata
/// (the encoded `header` and `footer`, and where the footer starts) and
/// the trailer pointing at the footer.
pub fn encode_tail(
    header: &[u8],
    footer: &[u8],
    footer_offset: u64,
) -> [u8; CHECKSUM_LEN + TRAILER_LEN] {
    let mut out = [0u8; CHECKSUM_LEN + TRAILER_LEN];
    let fields = [
        checksum(&meta_words(header, footer, footer_offset)).to_le_bytes(),
        footer_offset.to_le_bytes(),
        END_MAGIC,
    ];
    for (to, from) in out.chunks_exact_mut(8).zip(fields) {
        to.copy_from_slice(&from);
    }
    out
}

/// Verify a file's metadata against the checksum `stored` before its
/// trailer.
pub fn verify_meta(
    header: &[u8],
    footer: &[u8],
    footer_offset: u64,
    stored: &[u8],
) -> Result<(), StoreError> {
    verify(
        &meta_words(header, footer, footer_offset),
        Reader::new(stored).u64()?,
        "header and footer",
    )
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

/// Column codec for one chunk of jobs.
pub mod columns {
    use super::*;
    use std::collections::HashMap;
    use swim_trace::{Job, JobBuilder, PathId};

    /// Column blocks in a chunk of this build's format: the ten numeric
    /// columns; stems, codes and suffixes; the input and output path
    /// counts; then kinds, fresh steps, back distances and literals.
    pub const BLOCKS: usize = ZONE_COLUMNS + 3 + 2 + 4;
    /// Bytes of such a chunk's block table: a `u64` length and a `u64`
    /// [`checksum`] per block.
    pub const TABLE_LEN: usize = BLOCKS * 16;
    /// The first of the three name blocks (stems, codes, suffixes).
    const NAME_BLOCKS: usize = ZONE_COLUMNS;
    /// The first path block: the input path counts.
    const PATH_BLOCKS: usize = NAME_BLOCKS + 3;
    /// The first of the four reference blocks: the kinds.
    const KIND_BLOCK: usize = PATH_BLOCKS + 2;
    /// The reference kinds: kind `k`'s values are block `KIND_BLOCK + 1 + k`.
    const FRESH: u64 = 0;
    const BACK: u64 = 1;
    const LITERAL: u64 = 2;
    /// The writer's memo of where each id last occurred has `2^12` slots.
    const MEMO_BITS: u32 = 12;

    /// The memo slot of `id`: the top bits of a multiplicative hash.
    pub(crate) fn memo_slot(id: u64) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - MEMO_BITS)) as usize
    }

    /// Split a name as `stem ‖ decimal(suffix)`: the suffix is the longest
    /// run of ASCII digits at the end of `name` that fits a `u64` and has
    /// no leading zero (a lone `0` has none); `None` when the name ends in
    /// no digit. Appending the suffix in decimal to the stem gives back
    /// `name`, whatever it is.
    pub fn split_name(name: &str) -> (&str, Option<u64>) {
        let bytes = name.as_bytes();
        let digits = bytes.iter().rev().take_while(|b| b.is_ascii_digit());
        let mut start = bytes.len() - digits.count();
        // From the whole run of digits, give the stem every leading zero
        // (but not a lone `0`) and then digits for as long as what is
        // left does not fit.
        while let Some(tail) = bytes.get(start..).filter(|tail| !tail.is_empty()) {
            if tail.len() > 1 && tail.first() == Some(&b'0') {
                start += 1;
                continue;
            }
            let value = tail.iter().try_fold(0u64, |value, digit| {
                value.checked_mul(10)?.checked_add(u64::from(digit - b'0'))
            });
            if value.is_some() {
                // Everything from `start` on is ASCII: a char boundary.
                return (&name[..start], value);
            }
            start += 1;
        }
        (name, None)
    }

    /// A wrapping difference as an unsigned number: small steps in
    /// either direction become small values.
    fn zigzag(delta: u64) -> u64 {
        (delta << 1) ^ ((delta as i64 >> 63) as u64)
    }

    fn unzigzag(coded: u64) -> u64 {
        (coded >> 1) ^ (coded & 1).wrapping_neg()
    }

    /// The three name blocks of the chunk being encoded.
    #[derive(Debug, Default)]
    struct NameEncoder {
        /// Id of each stem seen in this chunk, in order of first use.
        ids: HashMap<Box<str>, usize>,
        /// Per stem id, the last suffix coded under it.
        last: Vec<u64>,
        /// Length + bytes of each stem, in id order (the count that
        /// starts the block is known only at the end).
        stems: Vec<u8>,
        codes: Vec<u64>,
        suffixes: Vec<u64>,
    }

    impl NameEncoder {
        fn push(&mut self, name: &str) {
            let (stem, suffix) = split_name(name);
            let id = match self.ids.get(stem) {
                Some(&id) => id,
                None => {
                    varint::put_u64(&mut self.stems, stem.len() as u64);
                    self.stems.extend_from_slice(stem.as_bytes());
                    self.ids.insert(stem.into(), self.last.len());
                    self.last.push(0);
                    self.last.len() - 1
                }
            };
            self.codes.push(id as u64 * 2 + u64::from(suffix.is_some()));
            if let Some(suffix) = suffix {
                let last = &mut self.last[id];
                self.suffixes.push(zigzag(suffix.wrapping_sub(*last)));
                *last = suffix;
            }
        }

        /// Append the stems block — the count, then the stems — and
        /// forget the chunk's stems.
        fn finish_stems(&mut self, out: &mut Vec<u8>) {
            varint::put_u64(out, self.last.len() as u64);
            out.extend_from_slice(&self.stems);
            self.ids.clear();
            self.last.clear();
            self.stems.clear();
        }
    }

    /// Incremental encoder of one chunk block. [`Encoder::push`] appends
    /// a job's fields to per-column value buffers and widens the chunk's
    /// zone map in the same pass — no job is kept — and
    /// [`Encoder::finish`] makes the path ids into references, packs each
    /// buffer into its column block and writes the chunk: fixed header,
    /// the table of the blocks' lengths and checksums, then the blocks in
    /// layout order.
    #[derive(Debug)]
    pub struct Encoder {
        rows: usize,
        numeric: [Vec<u64>; ZONE_COLUMNS],
        /// Last id and submit, the running values of the delta columns.
        prev: [u64; DELTA_COLUMNS],
        names: NameEncoder,
        /// Per job, its input and its output path count.
        path_counts: [Vec<u64>; 2],
        /// The path ids in stream order: each job's inputs, then outputs.
        path_ids: Vec<u64>,
        /// What `finish` makes of them: kinds, fresh steps, back
        /// distances and literals.
        references: [Vec<u64>; 4],
        /// Per [`memo_slot`], where in `path_ids` the last id in it was.
        memo: Vec<usize>,
        zone: ZoneMap,
        /// The chunk's column blocks, back to back, as `finish` packs
        /// them.
        blocks: Vec<u8>,
    }

    impl Default for Encoder {
        fn default() -> Encoder {
            Encoder {
                rows: 0,
                numeric: Default::default(),
                prev: [0; DELTA_COLUMNS],
                names: NameEncoder::default(),
                path_counts: Default::default(),
                path_ids: Vec::new(),
                references: Default::default(),
                memo: vec![0; 1 << MEMO_BITS],
                zone: ZoneMap::EMPTY,
                blocks: Vec::new(),
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
                        buf.push(v.wrapping_sub(*prev));
                        *prev = v;
                    }
                    None => buf.push(v),
                }
            }
            self.names.push(&job.name);
            let lists = [&job.input_paths, &job.output_paths];
            for (counts, list) in self.path_counts.iter_mut().zip(lists) {
                counts.push(list.len() as u64);
                self.path_ids.extend(list.iter().map(|id| id.0));
            }
            self.rows += 1;
        }

        /// Make the chunk's path ids into references. A memo slot is
        /// believed only if the id at the position it holds is this one.
        /// A slot no earlier id of this chunk has reached holds a stale
        /// position, and the id there is not this one, or it would have
        /// reached the slot: the memo needs no reset between chunks.
        fn reference_paths(&mut self) {
            let [kinds, fresh, back, literals] = &mut self.references;
            let mut max = None;
            for (at, &id) in self.path_ids.iter().enumerate() {
                let last = std::mem::replace(&mut self.memo[memo_slot(id)], at);
                if Some(id) > max {
                    kinds.push(FRESH);
                    fresh.push(max.map_or(id, |max| id - max - 1));
                    max = Some(id);
                } else if last < at && self.path_ids.get(last) == Some(&id) {
                    kinds.push(BACK);
                    back.push((at - last - 1) as u64);
                } else {
                    kinds.push(LITERAL);
                    literals.push(id);
                }
            }
        }

        /// Append the chunk's block to `out`, return the chunk's zone map
        /// ([`ZoneMap::EMPTY`] for no rows), and start an empty chunk.
        pub fn finish(&mut self, out: &mut Vec<u8>) -> ZoneMap {
            self.reference_paths();
            let blocks = &mut self.blocks;
            blocks.clear();
            // Where each block ends in `blocks`.
            let mut ends = Vec::with_capacity(BLOCKS);
            for column in &self.numeric {
                pack::encode(blocks, column, 0);
                ends.push(blocks.len());
            }
            let names = &mut self.names;
            names.finish_stems(blocks);
            ends.push(blocks.len());
            let [in_counts, out_counts] = &self.path_counts;
            let [kinds, fresh, back, literals] = &self.references;
            // Kinds are never packed at width 0, so the length of their
            // block bounds the path counts.
            for (values, min_width) in [
                (&names.codes, 0),
                (&names.suffixes, 0),
                (in_counts, 0),
                (out_counts, 0),
                (kinds, 1),
                (fresh, 0),
                (back, 0),
                (literals, 0),
            ] {
                pack::encode(blocks, values, min_width);
                ends.push(blocks.len());
            }

            out.reserve(CHUNK_HEADER_LEN + TABLE_LEN + blocks.len());
            out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
            out.extend_from_slice(&(self.rows as u32).to_le_bytes());
            out.extend_from_slice(&((TABLE_LEN + blocks.len()) as u64).to_le_bytes());
            let mut start = 0;
            for end in ends {
                let block = blocks.get(start..end).unwrap_or_default();
                out.extend_from_slice(&(block.len() as u64).to_le_bytes());
                out.extend_from_slice(&checksum(block).to_le_bytes());
                start = end;
            }
            out.extend_from_slice(blocks);
            let values = self
                .numeric
                .iter_mut()
                .chain([&mut self.names.codes, &mut self.names.suffixes])
                .chain(&mut self.path_counts)
                .chain([&mut self.path_ids])
                .chain(&mut self.references);
            for column in values {
                column.clear();
            }
            self.rows = 0;
            self.prev = [0; DELTA_COLUMNS];
            std::mem::replace(&mut self.zone, ZoneMap::EMPTY)
        }
    }

    /// A set of the ten numeric columns, by layout index (the
    /// [`ZoneMap`] order): what a reader asks a decode to keep.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ColumnSet(u16);

    impl ColumnSet {
        /// No column: the decode checks the chunk's framing and stops.
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
        /// The columns of `set` of a chunk's decoded `jobs`: what a
        /// projected decode of the chunk gives.
        // lint: surface: the oracle the projected decodes are compared against, in swim-store's and swim-query's tests
        pub fn project(jobs: &[Job], set: ColumnSet) -> ChunkColumns {
            let mut cols: [Vec<u64>; ZONE_COLUMNS] = Default::default();
            for job in jobs {
                let row = cols.iter_mut().zip(numeric_values(job));
                for (column, (values, value)) in row.enumerate() {
                    if set.contains(column) {
                        values.push(value);
                    }
                }
            }
            ChunkColumns {
                rows: jobs.len(),
                cols,
            }
        }

        /// Number of jobs in the chunk.
        pub fn len(&self) -> usize {
            self.rows
        }

        /// `true` iff the chunk is empty.
        pub fn is_empty(&self) -> bool {
            self.rows == 0
        }

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

    /// A chunk body (what follows the fixed chunk header) cut into its
    /// column blocks by the table that starts it.
    struct Blocks<'a> {
        /// Each block's bytes and stored checksum, in layout order.
        blocks: [(&'a [u8], u64); BLOCKS],
    }

    impl<'a> Blocks<'a> {
        /// Read the table and cut the rest of `body` by its lengths,
        /// which must add up to exactly what is there. Nothing is
        /// verified or reserved yet.
        fn parse(body: &'a [u8]) -> Result<Blocks<'a>, StoreError> {
            let mut table = Reader::new(body);
            let mut rest = body.get(TABLE_LEN..).ok_or(StoreError::Truncated {
                context: "chunk shorter than its block table",
            })?;
            let mut blocks = [(&[][..], 0u64); BLOCKS];
            for block in &mut blocks {
                let len = usize::try_from(table.u64()?).ok();
                let (bytes, after) =
                    len.and_then(|len| rest.split_at_checked(len))
                        .ok_or(StoreError::Corrupt {
                            context: "block lengths exceed chunk payload",
                        })?;
                *block = (bytes, table.u64()?);
                rest = after;
            }
            if !rest.is_empty() {
                return Err(StoreError::Corrupt {
                    context: "block lengths fall short of chunk payload",
                });
            }
            Ok(Blocks { blocks })
        }

        /// Block `index`'s bytes, once they match their checksum.
        fn verified(&self, index: usize) -> Result<&'a [u8], StoreError> {
            let (bytes, sum) = self.blocks[index];
            verify(bytes, sum, "column block")?;
            Ok(bytes)
        }
    }

    /// Fail unless a block's decode consumed it to the last byte.
    fn consumed(block: &[u8], pos: usize) -> Result<(), StoreError> {
        if pos == block.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt {
                context: "trailing bytes after a column block's values",
            })
        }
    }

    /// An integer block of exactly `n` values. A `delta` column comes
    /// back as the running sums of its values.
    fn whole_column(block: &[u8], n: usize, delta: bool) -> Result<Vec<u64>, StoreError> {
        let mut values = pack::decode(block, n)?;
        if delta {
            let mut sum = 0u64;
            for v in &mut values {
                sum = sum.wrapping_add(*v);
                *v = sum;
            }
        }
        Ok(values)
    }

    /// Decode the numeric columns of `set` from the body of a chunk of
    /// `n` jobs: the block table leads straight to the blocks of `set`;
    /// each is verified against its checksum and decoded, and no other
    /// block — numeric, name or path — is looked at.
    pub fn decode_projected(
        body: &[u8],
        n: usize,
        set: ColumnSet,
    ) -> Result<ChunkColumns, StoreError> {
        numeric(&Blocks::parse(body)?, n, set)
    }

    fn numeric(blocks: &Blocks<'_>, n: usize, set: ColumnSet) -> Result<ChunkColumns, StoreError> {
        let mut cols: [Vec<u64>; ZONE_COLUMNS] = Default::default();
        for (column, values) in cols.iter_mut().enumerate() {
            if set.contains(column) {
                let block = blocks.verified(column)?;
                *values = whole_column(block, n, column < DELTA_COLUMNS)?;
            }
        }
        Ok(ChunkColumns { rows: n, cols })
    }

    /// Decode the `n` jobs of a chunk body by their numeric columns
    /// alone: every job comes out with no name and no paths, and no name
    /// or path block is read.
    pub fn decode_numeric(body: &[u8], n: usize) -> Result<Vec<Job>, StoreError> {
        let numeric = numeric(&Blocks::parse(body)?, n, ColumnSet::ALL)?;
        let no_paths = || vec![Vec::new(); n];
        build_jobs(numeric, vec![String::new(); n], no_paths(), no_paths())
    }

    /// Decode the `n` jobs of a chunk body, every block verified first.
    pub fn decode(body: &[u8], n: usize) -> Result<Vec<Job>, StoreError> {
        let blocks = Blocks::parse(body)?;
        let numeric = numeric(&blocks, n, ColumnSet::ALL)?;
        let names = decode_names(
            blocks.verified(NAME_BLOCKS)?,
            blocks.verified(NAME_BLOCKS + 1)?,
            blocks.verified(NAME_BLOCKS + 2)?,
            n,
        )?;
        let [inputs, outputs] = decode_paths(&blocks, n)?;
        build_jobs(numeric, names, inputs, outputs)
    }

    /// The names of a chunk of `n` jobs from its stems, codes and
    /// suffixes blocks. Nothing is reserved on the word of a count that
    /// the blocks' own lengths do not bear out.
    fn decode_names(
        stems: &[u8],
        codes: &[u8],
        suffixes: &[u8],
        n: usize,
    ) -> Result<Vec<String>, StoreError> {
        let pos = &mut 0;
        let count = varint::get_u64(stems, pos)?;
        // A stem is listed because some job uses it, and takes a byte.
        let count = usize::try_from(count)
            .ok()
            .filter(|&count| count <= n && count <= stems.len())
            .ok_or(StoreError::Corrupt {
                context: "stem count exceeds the chunk's jobs",
            })?;
        // Each stem, and the last suffix decoded under it.
        let mut dictionary: Vec<(&str, u64)> = Vec::with_capacity(count);
        for _ in 0..count {
            let len = varint::get_u64(stems, pos)?;
            let bytes = usize::try_from(len)
                .ok()
                .and_then(|len| pos.checked_add(len))
                .and_then(|end| stems.get(*pos..end))
                .ok_or(StoreError::Corrupt {
                    context: "stem bytes run past the stems block",
                })?;
            *pos += bytes.len();
            let stem = std::str::from_utf8(bytes).map_err(|_| StoreError::Corrupt {
                context: "job name not utf-8",
            })?;
            dictionary.push((stem, 0));
        }
        consumed(stems, *pos)?;

        let codes = whole_column(codes, n, false)?;
        let with_suffix = codes.iter().filter(|&&code| code % 2 == 1).count();
        let mut suffixes = whole_column(suffixes, with_suffix, false)?.into_iter();
        let mut names = Vec::with_capacity(n);
        for code in codes {
            let (stem, last) = usize::try_from(code / 2)
                .ok()
                .and_then(|id| dictionary.get_mut(id))
                .ok_or(StoreError::Corrupt {
                    context: "name code names no stem",
                })?;
            let mut name = String::with_capacity(stem.len() + 20);
            name.push_str(stem);
            if code % 2 == 1 {
                // One suffix was decoded for each code that has one.
                *last = last.wrapping_add(unzigzag(suffixes.next().unwrap_or_default()));
                push_decimal(&mut name, *last);
            }
            names.push(name);
        }
        Ok(names)
    }

    /// Append `value` in decimal.
    fn push_decimal(out: &mut String, mut value: u64) {
        let mut digits = [b'0'; 20];
        let mut at = digits.len();
        while let Some(digit) = at.checked_sub(1).and_then(|at| digits.get_mut(at)) {
            *digit = b'0' + (value % 10) as u8;
            (value, at) = (value / 10, at - 1);
            if value == 0 {
                break;
            }
        }
        // ASCII digits: always text.
        out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
    }

    /// The input and the output path lists of a chunk of `n` jobs: both
    /// counts blocks, then one reference stream.
    fn decode_paths(blocks: &Blocks<'_>, n: usize) -> Result<[Vec<Vec<PathId>>; 2], StoreError> {
        let mut counts: [Vec<u64>; 2] = Default::default();
        for (list, counts) in counts.iter_mut().enumerate() {
            *counts = whole_column(blocks.verified(PATH_BLOCKS + list)?, n, false)?;
        }
        let mut stream = decode_references(blocks, &counts.concat())?.into_iter();
        let mut ids: [Vec<u64>; 2] = Default::default();
        for job in 0..n {
            for (ids, counts) in ids.iter_mut().zip(&counts) {
                ids.extend(stream.by_ref().take(counts[job] as usize));
            }
        }
        Ok([0, 1].map(|list| {
            let mut ids = std::mem::take(&mut ids[list]).into_iter().map(PathId);
            let counts = counts[list].iter();
            counts
                .map(|&count| ids.by_ref().take(count as usize).collect())
                .collect()
        }))
    }

    /// The path ids of a chunk in stream order, as many as its path
    /// `counts` add up to, rebuilt from its four reference blocks.
    fn decode_references(blocks: &Blocks<'_>, counts: &[u64]) -> Result<Vec<u64>, StoreError> {
        let corrupt = |context| StoreError::Corrupt { context };
        let kinds = blocks.verified(KIND_BLOCK)?;
        // Kinds are never packed at width 0, so the block holds a bit a
        // reference at least: no list is reserved for a count its bytes
        // do not bear out.
        let total = counts
            .iter()
            .try_fold(0u64, |sum, &count| sum.checked_add(count))
            .and_then(|total| usize::try_from(total).ok())
            .filter(|&total| total <= kinds.len().saturating_mul(8))
            .ok_or(corrupt("path counts exceed the kinds block"))?;
        let kinds = pack::decode(kinds, total)?;
        let mut per_kind = [0; 3];
        for &kind in &kinds {
            let count = usize::try_from(kind).ok().and_then(|k| per_kind.get_mut(k));
            *count.ok_or(corrupt("path reference kind above 2"))? += 1;
        }
        let values = |kind: usize| -> Result<_, StoreError> {
            let block = blocks.verified(KIND_BLOCK + 1 + kind)?;
            Ok(pack::decode(block, per_kind[kind])?.into_iter())
        };
        let (mut fresh, mut back, mut literals) = (values(0)?, values(1)?, values(2)?);
        let mut ids: Vec<u64> = Vec::with_capacity(total);
        let mut max = None;
        for kind in kinds {
            // Each kind's block holds one value per reference of it.
            let id = match kind {
                FRESH => {
                    let step = fresh.next().unwrap_or_default();
                    let id =
                        max.map_or(Some(step), |max: u64| max.checked_add(step)?.checked_add(1));
                    id.ok_or(corrupt("fresh path id step overflows u64"))?
                }
                BACK => {
                    let distance = usize::try_from(back.next().unwrap_or_default()).ok();
                    let id = distance.and_then(|d| ids.iter().rev().nth(d).copied());
                    id.ok_or(corrupt("path back-reference before the chunk's first id"))?
                }
                _ => literals.next().unwrap_or_default(),
            };
            max = max.max(Some(id));
            ids.push(id);
        }
        Ok(ids)
    }

    /// Assemble jobs from a chunk's decoded columns (one entry per job in
    /// each).
    fn build_jobs(
        numeric: ChunkColumns,
        names: Vec<String>,
        input_paths: Vec<Vec<PathId>>,
        output_paths: Vec<Vec<PathId>>,
    ) -> Result<Vec<Job>, StoreError> {
        let [ids, submits, durations, inputs, shuffles, outputs, map_times, reduce_times, map_tasks, reduce_tasks] =
            numeric.cols;
        let mut jobs = Vec::with_capacity(numeric.rows);
        let lists = names.into_iter().zip(input_paths).zip(output_paths);
        for (i, ((name, input_paths), output_paths)) in lists.enumerate() {
            let map = u32::try_from(map_tasks[i]).map_err(|_| StoreError::Corrupt {
                context: "map task count overflows u32",
            })?;
            let reduce = u32::try_from(reduce_tasks[i]).map_err(|_| StoreError::Corrupt {
                context: "reduce task count overflows u32",
            })?;
            jobs.push(
                JobBuilder::new(ids[i])
                    .name(name)
                    .submit(Timestamp::from_secs(submits[i]))
                    .duration(Dur::from_secs(durations[i]))
                    .input(DataSize::from_bytes(inputs[i]))
                    .shuffle(DataSize::from_bytes(shuffles[i]))
                    .output(DataSize::from_bytes(outputs[i]))
                    .map_task_time(Dur::from_secs(map_times[i]))
                    .reduce_task_time(Dur::from_secs(reduce_times[i]))
                    .tasks(map, reduce)
                    .input_paths(input_paths)
                    .output_paths(output_paths)
                    .build_unchecked(),
            );
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            zones: (0..2)
                .map(|i| ZoneMap {
                    min: [i; ZONE_COLUMNS],
                    max: [i + 100; ZONE_COLUMNS],
                })
                .collect(),
        };
        assert_eq!(Footer::decode(&f.encode()).unwrap(), f);
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
            zones: vec![ZoneMap {
                min: [0; ZONE_COLUMNS],
                max: [0; ZONE_COLUMNS],
            }],
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

    /// The split rule by trial: the earliest start whose tail is all
    /// digits, parses as a `u64` and prints back as itself.
    fn split_reference(name: &str) -> (&str, Option<u64>) {
        for (start, _) in name.char_indices() {
            let tail = &name[start..];
            if !tail.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            match tail.parse::<u64>() {
                Ok(suffix) if suffix.to_string() == tail => return (&name[..start], Some(suffix)),
                _ => {}
            }
        }
        (name, None)
    }

    #[test]
    fn names_split_at_the_longest_suffix_that_prints_back() {
        for (name, stem, suffix) in [
            ("", "", None),
            ("insert", "insert", None),
            ("insert_4411", "insert_", Some(4411)),
            ("job_007", "job_00", Some(7)),
            ("job_000", "job_00", Some(0)),
            ("job_0", "job_", Some(0)),
            ("job_100", "job_", Some(100)),
            ("42", "", Some(42)),
            ("0", "", Some(0)),
            ("00", "0", Some(0)),
            ("é9", "é", Some(9)),
            ("9é", "9é", None),
            ("n18446744073709551615", "n", Some(u64::MAX)),
            ("n18446744073709551616", "n1", Some(8446744073709551616)),
            ("n99999999999999999999", "n9", Some(9999999999999999999)),
            // A 25-digit tail, and one whose twentieth digit from the end
            // is a zero: the stem keeps what the suffix cannot.
            (
                "t1234567890123456789012345",
                "t123456",
                Some(7890123456789012345),
            ),
            (
                "t1234500000000000000000007",
                "t123450000000000000000000",
                Some(7),
            ),
        ] {
            assert_eq!(columns::split_name(name), (stem, suffix), "{name:?}");
            assert_eq!(split_reference(name), (stem, suffix), "{name:?}");
            let printed = suffix.map_or(String::new(), |s| s.to_string());
            assert_eq!(format!("{stem}{printed}"), name);
        }
    }

    #[test]
    fn checksums_tell_single_flips_lengths_and_padding_apart() {
        let bytes: Vec<u8> = (0..75u8).map(|i| i.wrapping_mul(37)).collect();
        let sum = checksum(&bytes);
        assert_eq!(sum, checksum(&bytes), "a pure function of the bytes");
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), sum, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // Zero padding is not free: the length is part of the sum.
        let sums: Vec<u64> = (0..20).map(|n| checksum(&vec![0u8; n])).collect();
        for (n, sum) in sums.iter().enumerate() {
            assert!(!sums[..n].contains(sum), "{n} zero bytes");
        }
        assert!(verify(&bytes, sum, "x").is_ok());
        assert!(matches!(
            verify(&flipped[1..], sum, "x"),
            Err(StoreError::Checksum {
                path: None,
                context: "x"
            })
        ));
    }

    /// An integer block written out longhand: the block at every width
    /// from `floor` to 64, its values' bits laid down one at a time, and
    /// the shortest kept (the narrowest of equals).
    fn packed_reference(values: &[u64], floor: u32) -> Vec<u8> {
        let min = values.iter().copied().min().unwrap_or(0);
        let at_width = |width: u32| {
            let mut block = Vec::new();
            varint::put_u64(&mut block, min);
            block.push(width as u8);
            let high = |v: u64| if width == 64 { 0 } else { (v - min) >> width };
            let exceptions: Vec<usize> = (0..values.len())
                .filter(|&i| high(values[i]) != 0)
                .collect();
            varint::put_u64(&mut block, exceptions.len() as u64);
            let bits: Vec<bool> = values
                .iter()
                .flat_map(|v| (0..width).map(move |bit| (v - min) >> bit & 1 == 1))
                .collect();
            for byte in bits.chunks(8) {
                block.push((0..byte.len()).map(|k| u8::from(byte[k]) << k).sum());
            }
            let mut first_free = 0;
            for at in exceptions {
                varint::put_u64(&mut block, (at - first_free) as u64);
                varint::put_u64(&mut block, high(values[at]));
                first_free = at + 1;
            }
            block
        };
        (floor..=64).map(at_width).min_by_key(Vec::len).unwrap()
    }

    /// A chunk block written out longhand, one pass per column block: what
    /// the incremental encoder must reproduce byte for byte.
    fn block_reference(jobs: &[Job]) -> Vec<u8> {
        let raw = |pick: &dyn Fn(&Job) -> u64| {
            packed_reference(&jobs.iter().map(pick).collect::<Vec<_>>(), 0)
        };
        // Each value less the one before it (the first less zero).
        let delta = |pick: &dyn Fn(&Job) -> u64| {
            let values: Vec<u64> = jobs.iter().map(pick).collect();
            let steps: Vec<u64> = (0..values.len())
                .map(|i| values[i].wrapping_sub(if i == 0 { 0 } else { values[i - 1] }))
                .collect();
            packed_reference(&steps, 0)
        };
        let mut blocks = vec![
            delta(&|j| j.id.0),
            delta(&|j| j.submit.secs()),
            raw(&|j| j.duration.secs()),
            raw(&|j| j.input.bytes()),
            raw(&|j| j.shuffle.bytes()),
            raw(&|j| j.output.bytes()),
            raw(&|j| j.map_task_time.secs()),
            raw(&|j| j.reduce_task_time.secs()),
            raw(&|j| u64::from(j.map_tasks)),
            raw(&|j| u64::from(j.reduce_tasks)),
        ];

        // Names: the distinct stems in order of first use; per job the
        // position of its stem, doubled, plus one if it has a suffix; per
        // job with a suffix, its signed step from the previous suffix
        // under the same stem (from zero for the first), zigzagged.
        let split: Vec<(&str, Option<u64>)> =
            jobs.iter().map(|j| split_reference(&j.name)).collect();
        let mut stems: Vec<&str> = Vec::new();
        for (stem, _) in &split {
            if !stems.contains(stem) {
                stems.push(stem);
            }
        }
        let mut block = Vec::new();
        varint::put_u64(&mut block, stems.len() as u64);
        for stem in &stems {
            varint::put_u64(&mut block, stem.len() as u64);
            block.extend_from_slice(stem.as_bytes());
        }
        blocks.push(block);
        let mut codes = Vec::new();
        let mut suffixes = Vec::new();
        for (i, (stem, suffix)) in split.iter().enumerate() {
            let id = stems.iter().position(|s| s == stem).unwrap() as u64;
            codes.push(id * 2 + u64::from(suffix.is_some()));
            let Some(suffix) = suffix else { continue };
            let previous = split[..i]
                .iter()
                .rev()
                .find_map(|(s, suffix)| suffix.filter(|_| s == stem))
                .unwrap_or(0);
            let step = i128::from(suffix.wrapping_sub(previous) as i64);
            let coded = if step >= 0 { 2 * step } else { -2 * step - 1 };
            suffixes.push(coded as u64);
        }
        blocks.extend([packed_reference(&codes, 0), packed_reference(&suffixes, 0)]);

        // Paths: per job its input count, then its output count; then
        // every id, each job's inputs before its outputs, as fresh (0)
        // if above every id before it — its step over their maximum less
        // one, the first id whole — else as back (1) if the last id
        // before it in its memo slot is itself — the number of ids
        // between — else as itself (2). Kinds never at width 0.
        blocks.push(packed_reference(
            &jobs
                .iter()
                .map(|j| j.input_paths.len() as u64)
                .collect::<Vec<_>>(),
            0,
        ));
        blocks.push(packed_reference(
            &jobs
                .iter()
                .map(|j| j.output_paths.len() as u64)
                .collect::<Vec<_>>(),
            0,
        ));
        let stream: Vec<u64> = jobs
            .iter()
            .flat_map(|j| j.input_paths.iter().chain(&j.output_paths))
            .map(|id| id.0)
            .collect();
        let mut references: [Vec<u64>; 4] = Default::default();
        for (at, &id) in stream.iter().enumerate() {
            let before = &stream[..at];
            let same_slot = |&other: &u64| columns::memo_slot(other) == columns::memo_slot(id);
            let (kind, value) = match (before.iter().max(), before.iter().rposition(same_slot)) {
                (None, _) => (0, id),
                (Some(&max), _) if id > max => (0, id - max - 1),
                (_, Some(last)) if before[last] == id => (1, (at - last - 1) as u64),
                _ => (2, id),
            };
            references[0].push(kind);
            references[kind as usize + 1].push(value);
        }
        for (kind, values) in references.iter().enumerate() {
            blocks.push(packed_reference(values, u32::from(kind == 0)));
        }
        assert_eq!(blocks.len(), columns::BLOCKS);

        let payload_len = columns::TABLE_LEN + blocks.iter().map(Vec::len).sum::<usize>();
        let mut out = b"SCHK".to_vec();
        out.extend_from_slice(&(jobs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        for block in &blocks {
            out.extend_from_slice(&(block.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum(block).to_le_bytes());
        }
        out.extend(blocks.concat());
        out
    }

    #[test]
    fn encoder_matches_the_column_at_a_time_layout() {
        use swim_trace::{JobBuilder, PathId};
        // An id in the memo slot of 2^40, which the inputs below re-read:
        // where it comes between two of them the second is a literal.
        let twin = (0..)
            .find(|&id| columns::memo_slot(id) == columns::memo_slot(1 << 40))
            .unwrap();
        let jobs: Vec<Job> = (0..300u64)
            .map(|i| {
                let name = match i % 6 {
                    0 => format!("insert_{}", 9_000 + i * 3),
                    1 => format!("select_{}", 500 - i),
                    2 => "n".repeat((i % 5) as usize),
                    3 => format!("piglatin:{i:04}"),
                    4 => format!("é{}", u64::MAX - i),
                    _ => format!("{}", i * i),
                };
                JobBuilder::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .name(name)
                    .submit(Timestamp::from_secs(u64::MAX - i * 97 % 50_000))
                    .duration(Dur::from_secs(i % 399))
                    .input(DataSize::from_bytes(i << (i % 60)))
                    .shuffle(DataSize::from_bytes(i * 13))
                    .output(DataSize::from_bytes(u64::MAX / (i + 1)))
                    .map_task_time(Dur::from_secs(5 + i % 100))
                    .reduce_task_time(Dur::from_secs(i % 55))
                    .tasks(u32::MAX - i as u32, (i % 3) as u32)
                    .input_paths((0..i % 4).map(|p| PathId(p << 40)).collect())
                    .output_paths(match i % 5 {
                        0 => vec![PathId(twin), PathId(i)],
                        _ => vec![PathId(i); (i % 2) as usize],
                    })
                    .build_unchecked()
            })
            .collect();
        let mut encoder = columns::Encoder::default();
        // Back-to-back chunks through one encoder: finish leaves no state.
        for chunk in [&jobs[..0], &jobs[..1], &jobs[1..200], &jobs[200..]] {
            let expected = block_reference(chunk);
            for job in chunk {
                encoder.push(job);
            }
            assert_eq!(encoder.rows(), chunk.len());
            let mut block = Vec::new();
            assert_eq!(encoder.finish(&mut block), ZoneMap::of_jobs(chunk));
            assert_eq!(block, expected);
            assert_eq!(
                decode_chunk_header(&block).unwrap(),
                (chunk.len() as u32, (block.len() - CHUNK_HEADER_LEN) as u64)
            );
            let body = &block[CHUNK_HEADER_LEN..];
            assert_eq!(columns::decode(body, chunk.len()).unwrap(), chunk);
        }
    }

    /// The body of one chunk of `jobs`: what follows the fixed header.
    fn body_of(jobs: &[Job]) -> Vec<u8> {
        let mut encoder = columns::Encoder::default();
        jobs.iter().for_each(|job| encoder.push(job));
        let mut block = Vec::new();
        encoder.finish(&mut block);
        block.split_off(CHUNK_HEADER_LEN)
    }

    /// Where each of the `count` blocks of a chunk body starts, by its
    /// table.
    fn block_starts(body: &[u8], count: usize) -> Vec<usize> {
        (0..count)
            .scan(count * 16, |start, b| {
                let len = u64::from_le_bytes(body[b * 16..][..8].try_into().unwrap());
                let this = *start;
                *start += len as usize;
                Some(this)
            })
            .collect()
    }

    /// A chunk body of `count` blocks with block `index` replaced by
    /// `bytes` (its table entry rewritten to match, so only the block's
    /// own decode can object).
    fn with_block(body: &[u8], count: usize, index: usize, bytes: &[u8]) -> Vec<u8> {
        let len = u64::from_le_bytes(body[index * 16..][..8].try_into().unwrap()) as usize;
        let start = block_starts(body, count)[index];
        let mut out = body[..start].to_vec();
        out.extend_from_slice(bytes);
        out.extend_from_slice(&body[start + len..]);
        out[index * 16..][..8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        out[index * 16 + 8..][..8].copy_from_slice(&checksum(bytes).to_le_bytes());
        out
    }

    #[test]
    fn declared_counts_never_drive_an_allocation() {
        use swim_trace::{JobBuilder, PathId};
        // Paths 0, 1, 2: three fresh references, steps 0 (the first id
        // whole), 0 and 0, so the kinds block is four bytes.
        let jobs: Vec<Job> = (0..3u64)
            .map(|i| {
                JobBuilder::new(i)
                    .name(format!("a{i}"))
                    .input_paths(vec![PathId(i)])
                    .build_unchecked()
            })
            .collect();
        let corrupt = |index: usize, bytes: &[u8], want: &str| {
            let body = with_block(&body_of(&jobs), columns::BLOCKS, index, bytes);
            match columns::decode(&body, jobs.len()) {
                Err(StoreError::Corrupt { context }) => assert_eq!(context, want),
                other => panic!("block {index} = {bytes:02x?}: {other:?}"),
            }
        };
        let packed = |values: &[u64]| {
            let mut block = Vec::new();
            pack::encode(&mut block, values, 0);
            block
        };
        let mut huge = Vec::new();
        varint::put_u64(&mut huge, u64::MAX);
        // Stems: a count beyond the jobs (4 > 3, and 2^64 - 1), a stem
        // longer than what is left of the block, bytes after the last.
        corrupt(10, &[4, 1, b'a'], "stem count exceeds the chunk's jobs");
        corrupt(10, &huge, "stem count exceeds the chunk's jobs");
        corrupt(10, &[1, 9, b'a'], "stem bytes run past the stems block");
        corrupt(
            10,
            &[&[1u8][..], &huge].concat(),
            "stem bytes run past the stems block",
        );
        corrupt(
            10,
            &[1, 1, b'a', 0],
            "trailing bytes after a column block's values",
        );
        corrupt(10, &[1, 1, 0xFF], "job name not utf-8");
        // Codes: a stem that is not listed.
        corrupt(11, &packed(&[3, 1, 5]), "name code names no stem");
        // Path counts: more references than the four-byte kinds block
        // has bits, than a u64 can count, or 2^40 of them from a width-0
        // block that is one exception.
        let exceed = "path counts exceed the kinds block";
        corrupt(13, &packed(&[0, 40, 0]), exceed);
        corrupt(14, &packed(&[u64::MAX, u64::MAX, 0]), exceed);
        let bomb = [&[0, 0, 1, 0][..], &[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]].concat();
        assert_eq!(pack::decode(&bomb, 3).unwrap(), [1 << 40, 0, 0]);
        corrupt(13, &bomb, exceed);
        // References: a kind of 3; a back-reference first, which reaches
        // before the chunk (distance 0 from the width-0 back block); a
        // fresh step past u64::MAX.
        corrupt(15, &packed(&[0, 3, 0]), "path reference kind above 2");
        corrupt(
            15,
            &packed(&[1, 0, 0]),
            "path back-reference before the chunk's first id",
        );
        corrupt(
            16,
            &packed(&[0, u64::MAX, 0]),
            "fresh path id step overflows u64",
        );
        // Any integer block: an exception past the jobs, and high bits
        // that do not fit above the width.
        corrupt(
            2,
            &[0, 0, 1, 3, 1],
            "exception position past the block's values",
        );
        let mut wide = vec![0, 63, 1];
        wide.extend([0; 24]); // three 63-bit values
        wide.extend([0, 2]); // the first one's two bits over 2^63
        corrupt(2, &wide, "exception bits overflow u64");

        // The table: lengths past the payload, short of it, and wrapping.
        let body = with_block(&body_of(&jobs), columns::BLOCKS, 12, &[2, 2, 2]);
        for (entry, len, want) in [
            (0, 1 << 40, "block lengths exceed chunk payload"),
            (16, u64::MAX, "block lengths exceed chunk payload"),
            (12, 2, "block lengths fall short of chunk payload"),
        ] {
            let mut body = body.clone();
            body[entry * 16..][..8].copy_from_slice(&u64::to_le_bytes(len));
            for set in [columns::ColumnSet::EMPTY, columns::ColumnSet::ALL] {
                match columns::decode_projected(&body, jobs.len(), set) {
                    Err(StoreError::Corrupt { context }) => assert_eq!(context, want),
                    other => panic!("entry {entry} = {len}: {other:?}"),
                }
            }
        }
        assert!(matches!(
            columns::decode_projected(&body[..100], 3, columns::ColumnSet::EMPTY),
            Err(StoreError::Truncated { .. })
        ));
        // A job count no block could hold is refused before a column is
        // reserved for it.
        assert!(matches!(
            columns::decode_projected(&body, 1 << 40, columns::ColumnSet::ALL),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_projected_decode_verifies_exactly_the_blocks_it_reads() {
        use swim_trace::JobBuilder;
        let jobs: Vec<Job> = (0..40u64)
            .map(|i| {
                JobBuilder::new(i)
                    .name(format!("a{i}"))
                    .input(DataSize::from_bytes(i * 1000))
                    .build_unchecked()
            })
            .collect();
        let input = ZoneMap::IO[0];
        let intact = body_of(&jobs);
        let mut damaged = intact.clone();
        let last = damaged.len() - 1; // in the path literals
        damaged[last] ^= 1;
        let at_input = block_starts(&intact, columns::BLOCKS)[input] + 5;
        damaged[at_input] ^= 0x10;
        let set = |c| columns::ColumnSet::EMPTY.with(c);
        for column in (0..ZONE_COLUMNS).filter(|&c| c != input) {
            assert_eq!(
                columns::decode_projected(&damaged, 40, set(column)).unwrap(),
                columns::decode_projected(&intact, 40, set(column)).unwrap()
            );
        }
        for set in [set(input), columns::ColumnSet::ALL] {
            assert!(matches!(
                columns::decode_projected(&damaged, 40, set),
                Err(StoreError::Checksum { .. })
            ));
        }
        assert!(matches!(
            columns::decode(&damaged, 40),
            Err(StoreError::Checksum { .. })
        ));
        assert_eq!(columns::decode(&intact, 40).unwrap(), jobs);
    }

    #[test]
    fn ids_with_neither_order_nor_repeats_cost_two_bits_a_kind_over_whole_ids() {
        use swim_trace::{JobBuilder, PathId};
        // 8,192 hashed ids: each of 4,096 jobs reads one and writes one.
        let hashed = |i: u64| checksum(&i.to_le_bytes());
        let jobs: Vec<Job> = (0..4096u64)
            .map(|i| {
                JobBuilder::new(i)
                    .input_paths(vec![PathId(hashed(2 * i))])
                    .output_paths(vec![PathId(hashed(2 * i + 1))])
                    .build_unchecked()
            })
            .collect();
        let body = body_of(&jobs);
        let len = |b: usize| u64::from_le_bytes(body[b * 16..][..8].try_into().unwrap()) as usize;
        let references: usize = (15..19).map(len).sum();
        // Each list's ids stored whole: a block never at width 0.
        let whole: usize = (0..2)
            .map(|list| {
                let ids: Vec<u64> = (0..4096).map(|i| hashed(2 * i + list)).collect();
                let mut block = Vec::new();
                pack::encode(&mut block, &ids, 1);
                block.len()
            })
            .sum();
        let most = 8192usize.div_ceil(4) + 4 * pack::MAX_HEADER_LEN;
        assert!(
            references <= whole + most,
            "{references} B > {whole} B + {most} B"
        );
        assert_eq!(columns::decode(&body, jobs.len()).unwrap(), jobs);
    }

    /// Jobs whose path ids are minted densely (fresh), re-read soon
    /// (back) or long after (back, or literal once their memo slot has
    /// moved on), 0, `u64::MAX`, runs of one id, ids sharing a memo slot
    /// with the first ids minted, and noise.
    fn arb_path_jobs() -> impl Strategy<Value = Vec<Job>> {
        let draws = prop::collection::vec((0u8..8, any::<u64>(), 0u8..3), 0..300);
        draws.prop_map(|draws| {
            let twin = |id: u64| {
                let slot = columns::memo_slot(id);
                (id + 1..).find(|&other| columns::memo_slot(other) == slot)
            };
            let (mut ids, mut minted) = (Vec::new(), 0u64);
            let (mut jobs, mut lists) = (Vec::new(), [Vec::new(), Vec::new()]);
            for (kind, r, cut) in draws {
                let id = match kind {
                    0 => {
                        minted += 1 + r % 3;
                        minted
                    }
                    1 => ids.iter().rev().nth(r as usize % 8).copied().unwrap_or(r),
                    2 => ids.get(r as usize % ids.len().max(1)).copied().unwrap_or(r),
                    3 => 0,
                    4 => u64::MAX,
                    5 => ids.last().copied().unwrap_or(r),
                    6 => twin(r % 16).unwrap_or(r),
                    _ => r,
                };
                ids.push(id);
                // Into the job's inputs (0) or outputs (1, 2); 2 also
                // closes the job.
                lists[usize::from(cut > 0)].push(swim_trace::PathId(id));
                if cut == 2 {
                    let [inputs, outputs] = std::mem::take(&mut lists);
                    jobs.push(
                        swim_trace::JobBuilder::new(jobs.len() as u64)
                            .input_paths(inputs)
                            .output_paths(outputs)
                            .build_unchecked(),
                    );
                }
            }
            jobs
        })
    }

    proptest! {
        /// Every id stream comes back exactly, through one encoder at
        /// chunk sizes 1, 7 and 4,096 — its memo carried from chunk to
        /// chunk.
        #[test]
        fn path_references_round_trip_at_every_chunk_size(jobs in arb_path_jobs()) {
            for size in [1, 7, 4096] {
                let mut encoder = columns::Encoder::default();
                for chunk in jobs.chunks(size) {
                    chunk.iter().for_each(|job| encoder.push(job));
                    let mut block = Vec::new();
                    encoder.finish(&mut block);
                    let body = &block[CHUNK_HEADER_LEN..];
                    prop_assert_eq!(columns::decode(body, chunk.len()).unwrap(), chunk);
                }
            }
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
        let mut block = b"SCHK".to_vec();
        block.extend_from_slice(&5u32.to_le_bytes());
        block.extend_from_slice(&10u64.to_le_bytes());
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
