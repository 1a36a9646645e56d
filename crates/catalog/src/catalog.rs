//! The [`Catalog`]: a directory of immutable `.swim` shards behind one
//! versioned manifest, with atomic ingest and compaction.
//!
//! ## Atomicity and generations
//!
//! Every mutation follows the same discipline:
//!
//! 1. new shard files are written to a per-process temp name — jobs are
//!    encoded into the open shard's [`StoreWriter`] as they arrive, one
//!    write path for ingest and compaction — then fsynced and published
//!    with **no-clobber** link semantics (shard files are immutable once
//!    published — appends never touch an existing shard);
//! 2. the `MANIFEST` is rewritten **last**, also via fsynced temp +
//!    rename (plus a directory fsync), with the generation bumped.
//!
//! A reader that opened the catalog before a mutation keeps a consistent
//! view: its manifest still names the old shard files, which are never
//! modified or deleted by ingest or [`Catalog::compact`] (only
//! [`Catalog::vacuum`] reclaims unreferenced files, and is meant to run
//! when no older readers remain). A mutation that fails removes its open
//! temp file and leaves the shards it had already published as orphans; a
//! crash can leave `.tmp` litter besides. The next vacuum removes both;
//! the manifest itself is never torn or lost to a power cut.
//!
//! Mutation is **single-writer, enforced loudly**: the no-clobber
//! publish plus a re-check of the on-disk generation immediately before
//! the manifest rename turn a concurrent-mutator race into a typed
//! "concurrent mutation" error instead of silent corruption.

use crate::cache::{ColumnCache, Found, ShardColumns, DEFAULT_CACHE_SHARDS};
use crate::manifest::{Manifest, ShardEntry, MANIFEST_FILE};
use crate::{CacheStats, CatalogError};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use swim_store::format::columns::ColumnSet;
use swim_store::{
    ChunkMeta, ChunkReader, Store, StoreError, StoreOptions, StoreWriter, ZONE_COLUMNS,
};
use swim_trace::trace::WorkloadKind;
use swim_trace::{spent, DataSize, Dur, Job, JobId, Timestamp, Trace, TraceSummary};

/// swim-obs instruments for the write side (the cache has its own).
mod obs {
    use swim_obs::Counter;

    /// Shard files fsynced and linked under their final name.
    pub static SHARDS_PUBLISHED: Counter = Counter::new("catalog.shards_published");
}

/// Default shard granularity: 2^18 jobs. With the store's default 4096
/// jobs per chunk that is 64 chunks per shard — small enough that a
/// shard decodes in tens of milliseconds, large enough that a 4M-job
/// dataset stays at 16 shards.
pub const DEFAULT_JOBS_PER_SHARD: u32 = 1 << 18;

/// Largest accepted `jobs_per_shard` (requests above are capped).
pub const MAX_JOBS_PER_SHARD: u32 = 1 << 24;

/// Tuning knobs for ingest and compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogOptions {
    /// Maximum jobs per shard; larger traces split into several shards.
    /// Zero is rejected; values above [`MAX_JOBS_PER_SHARD`] are capped.
    pub jobs_per_shard: u32,
    /// Chunking options for the shard stores themselves.
    pub store: StoreOptions,
}

impl Default for CatalogOptions {
    fn default() -> Self {
        CatalogOptions {
            jobs_per_shard: DEFAULT_JOBS_PER_SHARD,
            store: StoreOptions::default(),
        }
    }
}

impl CatalogOptions {
    /// Validate, returning the effective shard size.
    pub fn validate(&self) -> Result<u32, CatalogError> {
        if self.jobs_per_shard == 0 {
            return Err(CatalogError::Invalid(
                "jobs_per_shard must be at least 1".into(),
            ));
        }
        self.store
            .validate()
            .map_err(|e| CatalogError::Invalid(e.to_string()))?;
        Ok(self.jobs_per_shard.min(MAX_JOBS_PER_SHARD))
    }
}

/// What one ingest added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Shards written.
    pub shards: usize,
    /// Jobs ingested.
    pub jobs: u64,
    /// Bytes written across the new shard files.
    pub bytes: u64,
}

/// What one compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Shards merged away.
    pub rewritten: usize,
    /// Replacement shards created.
    pub created: usize,
    /// Jobs moved through the rewrite.
    pub jobs: u64,
}

/// An opened sharded trace dataset.
pub struct Catalog {
    dir: PathBuf,
    manifest: Manifest,
    cache: ColumnCache,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("dir", &self.dir)
            .field("generation", &self.manifest.generation)
            .field("shards", &self.manifest.shards.len())
            .finish()
    }
}

/// A cache entry shaped like `store` — its chunks' job counts — holding
/// no column yet.
fn new_entry(store: &Store) -> ShardColumns {
    let rows = store.chunk_meta().iter().map(|c| c.job_count as usize);
    ShardColumns::new(rows.collect())
}

/// Materialize `stores` as one trace: [`merge_stores`] collected, jobs
/// in `(submit, id)` order, ties in store order, under
/// [`kind_and_machines`]. `at` attributes a read error to the store (by
/// index) it came from.
pub fn read_stores<E>(stores: &[Store], at: impl Fn(usize, StoreError) -> E) -> Result<Trace, E> {
    let (kind, machines) = kind_and_machines(stores);
    // Grown as chunks decode, not sized up front: a manifest's `jobs=`
    // fields bound nothing.
    let jobs = merge_stores(stores).map(|job| job.map_err(|(idx, e)| at(idx, e)));
    let jobs = jobs.collect::<Result<_, E>>()?;
    Ok(Trace::new_unchecked(kind, machines, jobs))
}

/// The identity of `stores` read as one trace: their common kind, or
/// `Custom("mixed")` when they differ (`Custom("empty catalog")` when
/// there are none), and the largest machine count.
pub fn kind_and_machines(stores: &[Store]) -> (WorkloadKind, u32) {
    let kind = match stores {
        [] => WorkloadKind::Custom("empty catalog".into()),
        [first, rest @ ..] if rest.iter().all(|s| s.kind() == first.kind()) => first.kind().clone(),
        _ => WorkloadKind::Custom("mixed".into()),
    };
    (kind, stores.iter().map(Store::machines).max().unwrap_or(0))
}

/// Every job of `stores`, k-way merged by `(submit, id)`, ties in store
/// order. A store's chunks are decoded one at a time, each when the
/// first submit of its window comes up, so shards whose windows do not
/// overlap are read one chunk at a time. An error names the store (by
/// index) it came from and ends the merge; a job that sorts before one
/// already yielded (a store out of order, or a chunk window that
/// understates its jobs) is [`StoreError::Corrupt`].
pub fn merge_stores(stores: &[Store]) -> StoreMerge<'_> {
    merge_stores_with_text(stores, |_| true)
}

/// [`merge_stores`], decoding a chunk's names and paths only when `text`
/// accepts its index entry: the jobs of every other chunk come out with
/// their numeric fields alone ([`ChunkReader::numeric_jobs`]).
pub fn merge_stores_with_text<'s>(
    stores: &'s [Store],
    text: impl Fn(&ChunkMeta) -> bool + 's,
) -> StoreMerge<'s> {
    let mut cursors: Vec<Cursor<'_>> = stores.iter().map(Cursor::new).collect();
    let steps = cursors.iter_mut().enumerate();
    let heap = steps.filter_map(|(idx, cursor)| cursor.next_step(idx));
    StoreMerge {
        heap: heap.map(Reverse).collect(),
        cursors,
        text: Box::new(text),
        last: None,
    }
}

/// The iterator of [`merge_stores`].
pub struct StoreMerge<'s> {
    cursors: Vec<Cursor<'s>>,
    /// Each unfinished store's next step, least first.
    heap: BinaryHeap<Reverse<Step>>,
    /// Whether a chunk's names and paths are decoded.
    text: Box<dyn Fn(&ChunkMeta) -> bool + 's>,
    last: Option<(Timestamp, JobId)>,
}

/// A store's next step: yield its next job, keyed `(submit, id)`, or
/// decode its next chunk, keyed `(min_submit, 0)` and sorting before a
/// job of the same key; then the store's index.
type Step = (Timestamp, JobId, bool, usize);

/// One store's place in a [`StoreMerge`].
struct Cursor<'s> {
    store: &'s Store,
    /// Open from the first chunk decoded to the last.
    reader: Option<ChunkReader<'s>>,
    next_chunk: usize,
    /// The rest of the decoded chunk.
    jobs: std::vec::IntoIter<Job>,
}

impl<'s> Cursor<'s> {
    fn new(store: &'s Store) -> Cursor<'s> {
        Cursor {
            store,
            reader: None,
            next_chunk: 0,
            jobs: Vec::new().into_iter(),
        }
    }

    /// The step after the one taken, for the store at `idx`; none once
    /// its last chunk is spent.
    fn next_step(&mut self, idx: usize) -> Option<Step> {
        if let Some(job) = self.jobs.as_slice().first() {
            return Some((job.submit, job.id, true, idx));
        }
        let chunks = self.store.chunk_meta();
        while let Some(meta) = chunks.get(self.next_chunk) {
            if meta.job_count > 0 {
                return Some((meta.min_submit, JobId(0), false, idx));
            }
            self.next_chunk += 1;
        }
        self.reader = None;
        None
    }

    fn decode(&mut self, text: &dyn Fn(&ChunkMeta) -> bool) -> Result<(), StoreError> {
        let reader = match &mut self.reader {
            Some(reader) => reader,
            None => self.reader.insert(self.store.reader()?),
        };
        let idx = self.next_chunk;
        let jobs = match text(&self.store.chunk_meta()[idx]) {
            true => reader.jobs(idx)?,
            false => reader.numeric_jobs(idx)?,
        };
        self.jobs = jobs.into_iter();
        self.next_chunk += 1;
        Ok(())
    }
}

impl Iterator for StoreMerge<'_> {
    type Item = Result<Job, (usize, StoreError)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // The least step is replaced in place by its store's next.
            let mut top = self.heap.peek_mut()?;
            let Reverse((_, _, decoded, idx)) = *top;
            let cursor = &mut self.cursors[idx];
            let job = match decoded {
                true => cursor.jobs.next(),
                false => match cursor.decode(&self.text) {
                    Ok(()) => None,
                    Err(e) => {
                        drop(top);
                        self.heap.clear();
                        return Some(Err((idx, e)));
                    }
                },
            };
            match cursor.next_step(idx) {
                Some(step) => {
                    *top = Reverse(step);
                    drop(top);
                }
                None => drop(PeekMut::pop(top)),
            }
            let Some(job) = job else {
                continue;
            };
            let key = (job.submit, job.id);
            if self.last.is_some_and(|last| key < last) {
                self.heap.clear();
                let context = "jobs out of (submit, id) order";
                return Some(Err((idx, StoreError::Corrupt { context })));
            }
            self.last = Some(key);
            return Some(Ok(job));
        }
    }
}

impl Catalog {
    /// Create a new, empty catalog in `dir` (created if missing). Fails
    /// with [`CatalogError::AlreadyInitialized`] if a manifest exists.
    pub fn init(dir: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| CatalogError::io(&dir, e))?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(CatalogError::AlreadyInitialized(dir));
        }
        let catalog = Catalog {
            dir,
            manifest: Manifest::default(),
            cache: ColumnCache::new(DEFAULT_CACHE_SHARDS),
        };
        catalog.write_manifest(&catalog.manifest)?;
        Ok(catalog)
    }

    /// Open an existing catalog directory: read and decode its MANIFEST
    /// (the `catalog.open` span).
    pub fn open(dir: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        let _span = swim_obs::span("catalog.open");
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CatalogError::NotACatalog(dir))
            }
            Err(e) => return Err(CatalogError::io(&manifest_path, e)),
        };
        let manifest = Manifest::decode(&text, &manifest_path)?;
        Ok(Catalog {
            dir,
            manifest,
            cache: ColumnCache::new(DEFAULT_CACHE_SHARDS),
        })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current dataset generation (bumped by every ingest and compact).
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// The shard index, in ingest order.
    pub fn shards(&self) -> &[ShardEntry] {
        &self.manifest.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Total jobs across all shards (O(manifest)), saturating: the
    /// addends are manifest text.
    pub fn job_count(&self) -> u64 {
        let jobs = self.manifest.shards.iter().map(|s| s.jobs);
        jobs.fold(0, u64::saturating_add)
    }

    /// The distinct workload labels of the shards, sorted.
    fn kind_labels(&self) -> Vec<&str> {
        let shards = self.manifest.shards.iter();
        let mut labels: Vec<&str> = shards.map(|s| s.kind_label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// The Table-1 row for the whole dataset, computed from the manifest
    /// in O(shards) without opening any shard. The workload label is the
    /// shards' common label, or `mixed(N)` when N kinds are present.
    pub fn summary(&self) -> TraceSummary {
        let shards = &self.manifest.shards;
        let workload = match self.kind_labels().as_slice() {
            [] => "empty catalog".to_owned(),
            [one] => (*one).to_owned(),
            many => format!("mixed({})", many.len()),
        };
        let jobs = self.job_count();
        let bytes_moved = shards
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.bytes_moved));
        let length = if jobs == 0 {
            Dur::ZERO
        } else {
            let min = shards
                .iter()
                .map(|s| s.submit_window().0)
                .min()
                .unwrap_or(0);
            let max = shards
                .iter()
                .map(|s| s.submit_window().1)
                .max()
                .unwrap_or(0);
            Dur::from_secs(max - min)
        };
        TraceSummary {
            workload,
            machines: shards.iter().map(|s| s.machines).max().unwrap_or(0),
            length,
            jobs: jobs as usize,
            bytes_moved: DataSize::from_bytes(bytes_moved),
        }
    }

    /// Open one shard's store (reads header + footer only). A file whose
    /// footer job count is not its manifest line's is refused: it was
    /// swapped or is stale, and the manifest's statistics describe
    /// another.
    pub fn open_shard(&self, idx: usize) -> Result<Store, CatalogError> {
        let entry = &self.manifest.shards[idx];
        let store = Store::open(self.dir.join(&entry.file))
            .map_err(|e| CatalogError::shard(entry.file.clone(), e))?;
        if store.job_count() != entry.jobs {
            return Err(CatalogError::shard(
                entry.file.clone(),
                StoreError::Corrupt {
                    context: "shard job count disagrees with its manifest line",
                },
            ));
        }
        Ok(store)
    }

    /// Open every shard's store, in manifest order (headers and footers
    /// only).
    pub fn open_shards(&self) -> Result<Vec<Store>, CatalogError> {
        (0..self.shard_count())
            .map(|idx| self.open_shard(idx))
            .collect()
    }

    /// Attribute a read error of shard `idx` to its file.
    fn shard_error(&self, idx: usize, e: StoreError) -> CatalogError {
        CatalogError::shard(self.manifest.shards[idx].file.clone(), e)
    }

    /// Lookup-or-fill, the one way to a shard's decoded columns: the
    /// cache entry if it already holds every column of `set` (a hit —
    /// the disk is not touched); otherwise, given the opened shard in
    /// `fill`, a miss: the columns the entry lacks are decoded in one
    /// pass over the shard, stepping over the rest, and added to it —
    /// unless the cache does not admit the shard (`cache.rs`: it is full
    /// of entries used since this shard was last looked up), which keeps
    /// and decodes nothing. `None` means not cached and not to be: read
    /// the shard through.
    pub fn shard_columns(
        &self,
        idx: usize,
        set: ColumnSet,
        fill: Option<&Store>,
    ) -> Result<Option<Arc<ShardColumns>>, CatalogError> {
        let entry = &self.manifest.shards[idx];
        let Some(store) = fill else {
            return Ok(self.cache.lookup(&entry.file, entry.created_gen, set));
        };
        let new = || new_entry(store);
        match self
            .cache
            .lookup_or_admit(&entry.file, entry.created_gen, set, new)
        {
            Found::Hit(shard) => Ok(Some(shard)),
            Found::Fill(shard) => self.decode_into(idx, store, set, shard).map(Some),
            Found::Bypass => Ok(None),
        }
    }

    /// All ten columns of a shard, from the cache or decoded into it —
    /// or, for a shard the cache does not admit, into an entry of the
    /// caller's own. `store` must be the opened shard at `idx`.
    pub fn load_columns(
        &self,
        idx: usize,
        store: &Store,
    ) -> Result<Arc<ShardColumns>, CatalogError> {
        match self.shard_columns(idx, ColumnSet::ALL, Some(store))? {
            Some(shard) => Ok(shard),
            None => self.decode_into(idx, store, ColumnSet::ALL, Arc::new(new_entry(store))),
        }
    }

    /// Decode the columns of `set` that `shard` lacks, in one pass over
    /// its store, and add them.
    fn decode_into(
        &self,
        idx: usize,
        store: &Store,
        set: ColumnSet,
        shard: Arc<ShardColumns>,
    ) -> Result<Arc<ShardColumns>, CatalogError> {
        let at = |e| CatalogError::shard(self.manifest.shards[idx].file.clone(), e);
        let missing = set.minus(shard.present());
        let mut decoded: [Vec<Vec<u64>>; ZONE_COLUMNS] = Default::default();
        let mut reader = store.reader().map_err(at)?;
        for chunk in 0..store.chunk_count() {
            let chunk = reader.columns(chunk, missing).map_err(at)?;
            for (column, values) in decoded.iter_mut().zip(chunk.cols) {
                column.push(values);
            }
        }
        shard.fill(missing, decoded);
        Ok(shard)
    }

    /// Cache counters and sizing.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Bound the decoded-column cache to `shards` entries (0 disables
    /// caching). Shrinking evicts immediately.
    pub fn set_cache_capacity(&self, shards: usize) {
        self.cache.set_capacity(shards);
    }

    /// Current decoded-column cache capacity in shards (cheap; the query
    /// hot path uses this to skip the cache entirely when it is
    /// disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Ingest an in-memory trace, splitting it into shards of at most
    /// `jobs_per_shard` jobs: [`Catalog::ingest_stream`] with the trace
    /// as its one block, borrowed. The manifest is rewritten last, so
    /// readers see the whole trace or none of it. An empty trace is a
    /// no-op.
    pub fn ingest_trace(
        &mut self,
        trace: &Trace,
        options: &CatalogOptions,
    ) -> Result<IngestStats, CatalogError> {
        let _span = swim_obs::span("catalog.ingest");
        let blocks = std::iter::once(Ok(trace.jobs()));
        self.ingest_blocks(trace.kind.clone(), trace.machines, blocks, drop, options)
    }

    /// Ingest a stream of job blocks without ever materializing the
    /// trace, or even a shard of it: every job is encoded into the open
    /// shard's [`StoreWriter`] as its block arrives and the block is
    /// handed back, so the catalog holds the encoded bytes of at most one
    /// store chunk (`jobs_per_chunk` jobs) plus the block in hand and one
    /// spent block, and a generator can pipe 100M+ jobs into sharded,
    /// immutable storage at O(store chunk + block) memory. Blocks
    /// concatenate to the logical trace and may be of any length; shard
    /// and chunk boundaries depend on the job sequence alone.
    ///
    /// Each encoded block goes to [`swim_trace::spent::stash`] rather than
    /// being dropped, so a producer that takes it back on this thread
    /// (`ScenarioStream::next_chunk` does) can write the next block over
    /// it without allocating. A producer that does not take it leaves it
    /// there until the next block replaces it: that is the spent block
    /// above. The stash is left empty on return.
    ///
    /// Jobs must arrive in non-decreasing `(submit, id)` order (the
    /// streaming generators guarantee it). This is checked: the first job
    /// that sorts before its predecessor fails the ingest with a
    /// [`CatalogError::Invalid`] naming its id.
    ///
    /// A shard is finished, fsynced and linked under its final name on
    /// this thread as soon as it holds `jobs_per_shard` jobs, before the
    /// next block is asked for; the manifest is still rewritten last, so
    /// readers see the whole stream or none of it. Publishing stays
    /// synchronous on purpose: handing fsync + link to a helper thread
    /// measured −4 % on the 1,048,576-job `ingest-stream` build over ten
    /// pairs and nothing on `serve-scan-cold`, not worth a thread and a
    /// second ordering to reason about. On any failure — an invalid
    /// option, an out-of-order job, an I/O error, a panicking iterator —
    /// the open shard's temp file is removed and the manifest is
    /// untouched; shards already published stay unreferenced until
    /// [`Catalog::vacuum`]. An empty stream is a no-op.
    pub fn ingest_stream<I>(
        &mut self,
        kind: WorkloadKind,
        machines: u32,
        blocks: I,
        options: &CatalogOptions,
    ) -> Result<IngestStats, CatalogError>
    where
        I: IntoIterator<Item = Vec<Job>>,
    {
        let _span = swim_obs::span("catalog.ingest");
        let blocks = blocks.into_iter().map(Ok);
        let ingested = self.ingest_blocks(kind, machines, blocks, spent::stash, options);
        drop(spent::take());
        ingested
    }

    /// The ingest loop: push each block into a [`ShardSink`] and pass it
    /// to `done`, publish the manifest after the last. Invalid options or
    /// an `Err` block abort before any manifest change.
    fn ingest_blocks<B: AsRef<[Job]>>(
        &mut self,
        kind: WorkloadKind,
        machines: u32,
        blocks: impl Iterator<Item = Result<B, CatalogError>>,
        mut done: impl FnMut(B),
        options: &CatalogOptions,
    ) -> Result<IngestStats, CatalogError> {
        let per_shard = options.validate()?;
        let gen = self.manifest.generation + 1;
        let mut sink = ShardSink::new(&self.dir, gen, 0, kind, machines, per_shard, options.store);
        for block in blocks {
            let block = block?;
            sink.push(block.as_ref())?;
            done(block);
        }
        let entries = sink.finish()?;
        self.commit_new_shards(entries)
    }

    /// Ingest a trace file by extension: `.swim`/`.store` streamed chunk
    /// by chunk, so arbitrarily large stores ingest at bounded memory;
    /// anything else through [`swim_trace::io::read_file`] (`.csv`
    /// labelled by file stem and sized by `csv_machines`, or JSON-lines).
    pub fn ingest_path(
        &mut self,
        path: impl AsRef<Path>,
        csv_machines: u32,
        options: &CatalogOptions,
    ) -> Result<IngestStats, CatalogError> {
        let path = path.as_ref();
        if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("swim" | "store")
        ) {
            return self.ingest_store_streaming(path, options);
        }
        let file = std::fs::File::open(path).map_err(|e| CatalogError::io(path, e))?;
        let trace = swim_trace::io::read_file(path, csv_machines, file).map_err(|e| {
            CatalogError::Parse {
                path: path.to_path_buf(),
                message: e.to_string(),
            }
        })?;
        self.ingest_trace(&trace, options)
    }

    /// Stream a `.swim` store into shards without materializing it.
    fn ingest_store_streaming(
        &mut self,
        path: &Path,
        options: &CatalogOptions,
    ) -> Result<IngestStats, CatalogError> {
        let _span = swim_obs::span("catalog.ingest");
        let shard_err = |e| CatalogError::Parse {
            path: path.to_path_buf(),
            message: format!("{e}"),
        };
        let store = Store::open(path).map_err(shard_err)?;
        let (kind, machines) = (store.kind().clone(), store.machines());
        let blocks = store
            .scan()
            .map_err(shard_err)?
            .map(|chunk| chunk.map_err(shard_err));
        self.ingest_blocks(kind, machines, blocks, drop, options)
    }

    /// Append freshly written shards and atomically publish the new
    /// manifest generation.
    fn commit_new_shards(&mut self, entries: Vec<ShardEntry>) -> Result<IngestStats, CatalogError> {
        if entries.is_empty() {
            return Ok(IngestStats::default());
        }
        let stats = IngestStats {
            shards: entries.len(),
            jobs: entries.iter().map(|e| e.jobs).sum(),
            bytes: entries.iter().map(|e| e.bytes).sum(),
        };
        let mut next = self.manifest.clone();
        next.generation += 1;
        next.shards.extend(entries);
        // The shard renames must be durable before a manifest that
        // references them is published.
        sync_dir(&self.dir)?;
        self.check_not_raced()?;
        self.write_manifest(&next)?;
        self.manifest = next;
        Ok(stats)
    }

    /// Optimistic concurrency check before publishing a new manifest:
    /// if another process advanced the on-disk generation since this
    /// handle loaded it, publishing would silently drop that mutation —
    /// fail loudly instead. (Shard-file collisions between racers are
    /// already prevented by [`publish_no_clobber`].)
    fn check_not_raced(&self) -> Result<(), CatalogError> {
        let manifest_path = self.dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| CatalogError::io(&manifest_path, e))?;
        let on_disk = Manifest::decode(&text, &manifest_path)?;
        if on_disk.generation != self.manifest.generation {
            return Err(CatalogError::Invalid(format!(
                "concurrent mutation detected: manifest generation moved from {} to {} \
                 while this handle was open (re-open the catalog and retry)",
                self.manifest.generation, on_disk.generation
            )));
        }
        Ok(())
    }

    fn write_manifest(&self, manifest: &Manifest) -> Result<(), CatalogError> {
        let tmp = tmp_path(&self.dir, MANIFEST_FILE);
        let final_path = self.dir.join(MANIFEST_FILE);
        std::fs::write(&tmp, manifest.encode()).map_err(|e| CatalogError::io(&tmp, e))?;
        // Durability, not just atomicity: the temp file's data must be on
        // disk before the rename is journaled, and the rename itself
        // before we report success — otherwise a power cut can leave a
        // zero-length MANIFEST behind an apparently successful ingest.
        sync_file(&tmp)?;
        std::fs::rename(&tmp, &final_path).map_err(|e| CatalogError::io(&final_path, e))?;
        sync_dir(&self.dir)
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Merge undersized shards (fewer than half of `jobs_per_shard`
    /// jobs) with their neighbours, under a new manifest generation.
    ///
    /// Old shard files are left on disk so readers that opened an
    /// earlier generation keep working; run [`Catalog::vacuum`] once no
    /// such readers remain. A catalog with nothing to rewrite is left
    /// untouched (same generation).
    pub fn compact(&mut self, options: &CatalogOptions) -> Result<CompactStats, CatalogError> {
        let _span = swim_obs::span("catalog.compact");
        let per_shard = options.validate()?;
        let threshold = u64::from(per_shard / 2).max(1);

        // Group undersized shards greedily (in manifest order) into
        // bins of at most `jobs_per_shard` jobs.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut current_jobs = 0u64;
        for (idx, entry) in self.manifest.shards.iter().enumerate() {
            if entry.jobs >= threshold {
                continue;
            }
            if !current.is_empty() && current_jobs + entry.jobs > u64::from(per_shard) {
                groups.push(std::mem::take(&mut current));
                current_jobs = 0;
            }
            current.push(idx);
            current_jobs += entry.jobs;
        }
        if !current.is_empty() {
            groups.push(current);
        }
        // Convergence: a singleton group gains nothing from a rewrite —
        // its shard is undersized but has no merge partner. Skipping it
        // makes repeated compacts of the same catalog a no-op instead of
        // generation churn.
        groups.retain(|group| group.len() > 1);
        if groups.is_empty() {
            return Ok(CompactStats::default());
        }

        let gen = self.manifest.generation + 1;
        let mut stats = CompactStats::default();
        let mut new_entries = Vec::new();
        let mut rewritten = vec![false; self.manifest.shards.len()];
        let mut rewritten_count = 0usize;
        for group in &groups {
            let stores = group.iter().map(|&idx| self.open_shard(idx));
            let stores = stores.collect::<Result<Vec<_>, _>>()?;
            // Sorted, so merged shards regain tight, submit-ordered chunk
            // windows; the sink splits if a merge overflowed the cap.
            let merged = read_stores(&stores, |i, e| self.shard_error(group[i], e))?;
            stats.jobs += merged.len() as u64;
            let seq = new_entries.len();
            let mut sink = ShardSink::new(
                &self.dir,
                gen,
                seq,
                merged.kind.clone(),
                merged.machines,
                per_shard,
                options.store,
            );
            sink.push(merged.jobs())?;
            new_entries.extend(sink.finish()?);
            for &idx in group {
                rewritten[idx] = true;
            }
            rewritten_count += group.len();
        }
        stats.rewritten = rewritten_count;
        stats.created = new_entries.len();

        // Surviving entries keep their manifest order; replacements are
        // appended. Queries are order-insensitive and materialization
        // re-sorts by submit, so order is presentation only.
        let mut next = Manifest {
            generation: gen,
            shards: Vec::with_capacity(
                self.manifest.shards.len() - rewritten_count + new_entries.len(),
            ),
        };
        for (idx, entry) in self.manifest.shards.iter().enumerate() {
            if !rewritten[idx] {
                next.shards.push(entry.clone());
            }
        }
        next.shards.extend(new_entries);
        sync_dir(&self.dir)?;
        self.check_not_raced()?;
        self.write_manifest(&next)?;
        self.manifest = next;
        self.cache.clear();
        Ok(stats)
    }

    /// Remove shard files and temp litter not referenced by the current
    /// manifest. Returns the number of files removed. Vacuum is a
    /// mutation: it must not run while a reader of an older generation
    /// is live (their shard files would vanish) or while another writer
    /// is mid-commit (its not-yet-referenced shard would be reaped as an
    /// orphan). The generation re-check below catches a writer that has
    /// already published; an in-flight one cannot be detected, so the
    /// single-writer rule applies to vacuum too.
    pub fn vacuum(&self) -> Result<usize, CatalogError> {
        let _span = swim_obs::span("catalog.vacuum");
        self.check_not_raced()?;
        let mut removed = 0usize;
        let entries = std::fs::read_dir(&self.dir).map_err(|e| CatalogError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| CatalogError::io(&self.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_tmp = name.ends_with(".tmp");
            let is_orphan_shard = name.starts_with("shard-")
                && name.ends_with(".swim")
                && !self.manifest.shards.iter().any(|s| s.file == name);
            if is_tmp || is_orphan_shard {
                std::fs::remove_file(entry.path())
                    .map_err(|e| CatalogError::io(entry.path(), e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// A temp file that is removed when the guard drops: after it was
/// linked under its final name, and on every error and unwind path
/// before that.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The shard being written.
struct OpenShard {
    file: String,
    tmp: TempFile,
    writer: StoreWriter<std::fs::File>,
}

/// The one shard write path, under ingest and compaction alike: jobs
/// pushed in `(submit, id)` order are encoded straight into the open
/// shard's [`StoreWriter`], and a shard that reaches `jobs_per_shard`
/// jobs is finished, fsynced and linked under its final name before the
/// next job is looked at. The manifest is the caller's business.
struct ShardSink<'a> {
    dir: &'a Path,
    gen: u64,
    /// Sequence number of this sink's first shard within the generation.
    first_seq: usize,
    kind: WorkloadKind,
    machines: u32,
    per_shard: usize,
    store: StoreOptions,
    open: Option<OpenShard>,
    /// Key of the last job pushed: the writer checks the order within a
    /// shard, this links one shard to the next.
    last: (Timestamp, JobId),
    entries: Vec<ShardEntry>,
}

impl<'a> ShardSink<'a> {
    fn new(
        dir: &'a Path,
        gen: u64,
        first_seq: usize,
        kind: WorkloadKind,
        machines: u32,
        per_shard: u32,
        store: StoreOptions,
    ) -> ShardSink<'a> {
        ShardSink {
            dir,
            gen,
            first_seq,
            kind,
            machines,
            per_shard: per_shard as usize,
            store,
            open: None,
            last: (Timestamp::ZERO, JobId(0)),
            entries: Vec::new(),
        }
    }

    /// Create the next shard's temp file and write its store header.
    fn start_shard(&self) -> Result<OpenShard, CatalogError> {
        let file = shard_file_name(self.gen, self.first_seq + self.entries.len());
        let tmp = TempFile(tmp_path(self.dir, &file));
        let handle = std::fs::File::create(&tmp.0).map_err(|e| CatalogError::io(&tmp.0, e))?;
        let writer = StoreWriter::new(handle, self.kind.clone(), self.machines, &self.store)
            .map_err(|e| write_error(&file, &tmp.0, e))?;
        Ok(OpenShard { file, tmp, writer })
    }

    fn push(&mut self, mut jobs: &[Job]) -> Result<(), CatalogError> {
        while let Some(first) = jobs.first() {
            let mut shard = match self.open.take() {
                Some(shard) => shard,
                None if (first.submit, first.id) < self.last => {
                    return Err(out_of_order(first.id.0))
                }
                None => self.start_shard()?,
            };
            let room = self.per_shard - shard.writer.jobs() as usize;
            let (head, tail) = jobs.split_at(room.min(jobs.len()));
            shard
                .writer
                .push(head)
                .map_err(|e| write_error(&shard.file, &shard.tmp.0, e))?;
            if let Some(job) = head.last() {
                self.last = (job.submit, job.id);
            }
            if head.len() == room {
                self.publish(shard)?;
            } else {
                self.open = Some(shard);
            }
            jobs = tail;
        }
        Ok(())
    }

    /// Finish the shard's store, make it durable under its final name,
    /// and record its manifest entry from what the writer folded.
    fn publish(&mut self, shard: OpenShard) -> Result<(), CatalogError> {
        let _span = swim_obs::span("catalog.write_shard");
        let OpenShard { file, tmp, writer } = shard;
        let stats = writer.finish().map_err(|e| write_error(&file, &tmp.0, e))?;
        {
            let _span = swim_obs::span("catalog.sync");
            sync_file(&tmp.0)?;
            publish_no_clobber(&tmp.0, &self.dir.join(&file))?;
        }
        obs::SHARDS_PUBLISHED.incr();
        self.entries.push(ShardEntry {
            file,
            store_version: swim_store::format::VERSION,
            created_gen: self.gen,
            jobs: stats.jobs,
            bytes: stats.bytes_written,
            machines: self.machines,
            bytes_moved: stats.summary.bytes_moved.bytes(),
            task_time: stats.summary.task_time.secs(),
            zone: stats.zone,
            kind_label: self.kind.label().to_owned(),
        });
        Ok(())
    }

    /// Publish the last (short) shard; the entries of every shard written.
    fn finish(mut self) -> Result<Vec<ShardEntry>, CatalogError> {
        if let Some(shard) = self.open.take() {
            self.publish(shard)?;
        }
        Ok(self.entries)
    }
}

fn out_of_order(id: u64) -> CatalogError {
    CatalogError::Invalid(format!(
        "job {id} is out of order: jobs must be ingested in non-decreasing (submit, id) order"
    ))
}

/// A shard write failure: the order violation as the catalog's typed
/// refusal, anything else attributed to the shard and its temp file.
fn write_error(file: &str, tmp: &Path, e: StoreError) -> CatalogError {
    match e {
        StoreError::Unsorted { id } => out_of_order(id),
        e => CatalogError::shard(file, e.at_path(tmp)),
    }
}

/// Per-process temp path for a file about to be published (unique so
/// two racing processes never write the same temp file).
fn tmp_path(dir: &Path, file: &str) -> PathBuf {
    dir.join(format!("{file}.{}.tmp", std::process::id()))
}

/// Shard file name for a generation and a per-batch sequence number,
/// plus a per-attempt uniqueness token (pid + counter). The token means
/// a mutation that crashed after publishing its shard but before its
/// manifest can never collide with — and therefore never block — a
/// later attempt at the same generation; the orphan just waits for
/// [`Catalog::vacuum`].
fn shard_file_name(gen: u64, seq: usize) -> String {
    static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // lint: ordering: uniqueness token; only atomicity of the increment matters
    let n = NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    format!(
        "shard-g{gen:06}-{seq:04}-{:08x}{n:04x}.swim",
        std::process::id()
    )
}

/// Publish a temp file under its final shard name without ever
/// overwriting: `hard_link` fails with `AlreadyExists` if the target is
/// present (shard files must stay immutable once published — the cache
/// key and zone maps depend on it). With per-attempt unique names a
/// collision should be impossible; this is the backstop that keeps it
/// from ever being silent.
fn publish_no_clobber(tmp: &Path, final_path: &Path) -> Result<(), CatalogError> {
    match std::fs::hard_link(tmp, final_path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
            Err(CatalogError::Invalid(format!(
                "shard {} already exists and shard files are immutable — \
                 remove leftover files with vacuum (swim-catalog compact --vacuum) \
                 and retry",
                final_path.display()
            )))
        }
        Err(e) => Err(CatalogError::io(final_path, e)),
    }
}

/// Flush a just-written file's data to disk before it is renamed into
/// place.
fn sync_file(path: &Path) -> Result<(), CatalogError> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| CatalogError::io(path, e))
}

/// Flush directory metadata (renames) to disk. Unix only: directory
/// handles cannot be opened for fsync portably (Windows' CreateFile
/// refuses plain directory opens), and rename durability there is the
/// filesystem's business.
fn sync_dir(dir: &Path) -> Result<(), CatalogError> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)
            .and_then(|f| f.sync_all())
            .map_err(|e| CatalogError::io(dir, e))
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::JobBuilder;

    /// A store image of jobs `(id, submit)`, in 3-job chunks, each job
    /// named after the store's `tag`.
    fn image_of(tag: usize, jobs: &[(u64, u64)]) -> Vec<u8> {
        let jobs = jobs.iter().map(|&(id, submit)| {
            let job = JobBuilder::new(id).submit(Timestamp::from_secs(submit));
            job.name(format!("store {tag}")).build().unwrap()
        });
        let trace = Trace::new_unchecked(WorkloadKind::CcA, 10, jobs.collect());
        swim_store::store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 3 })
    }

    fn store_of(tag: usize, jobs: &[(u64, u64)]) -> Store {
        Store::from_vec(image_of(tag, jobs)).unwrap()
    }

    #[test]
    fn merge_stores_is_a_stable_sort_of_the_stores_jobs() {
        // Overlapping windows, a store of no jobs, and a job of one
        // `(submit, id)` in two stores: store order breaks the tie.
        let parts: [&[(u64, u64)]; 4] = [
            &[(0, 5), (2, 9), (4, 9), (6, 40), (8, 41)],
            &[],
            &[(1, 1), (3, 9), (4, 9), (5, 12), (7, 50), (9, 50), (11, 60)],
            &[(10, 0), (12, 41)],
        ];
        let stores: Vec<Store> = (parts.iter().enumerate())
            .map(|(tag, jobs)| store_of(tag, jobs))
            .collect();
        let mut expected: Vec<Job> = Vec::new();
        for store in &stores {
            expected.extend(store.scan().unwrap().flat_map(Result::unwrap));
        }
        expected.sort_by_key(|job| (job.submit, job.id));
        let merged: Vec<Job> = merge_stores(&stores).map(Result::unwrap).collect();
        assert_eq!(merged, expected);
        assert_eq!(read_stores(&stores, |_, e| e).unwrap().jobs(), expected);
    }

    #[test]
    fn a_chunk_window_that_understates_its_jobs_is_corrupt() {
        use swim_store::format::{self, Footer, Header};
        // Store 0's second chunk (submits 30–50) claims to start at 45:
        // store 1's job at 40 comes out first, then a job at 30.
        let image = image_of(0, &[(0, 1), (1, 2), (2, 3), (3, 30), (4, 50)]);
        let header = &image[..Header::decode(&image).unwrap().encode().len()];
        let tail = image.len() - format::CHECKSUM_LEN - format::TRAILER_LEN;
        let at = format::decode_trailer(&image[tail + format::CHECKSUM_LEN..]).unwrap();
        let mut footer = Footer::decode(&image[at as usize..tail]).unwrap();
        footer.chunks[1].min_submit = Timestamp::from_secs(45);
        let footer = footer.encode();
        let seal = format::encode_tail(header, &footer, at);
        let forged = Store::from_vec([&image[..at as usize], &footer, &seal].concat()).unwrap();
        let stores = [forged, store_of(1, &[(9, 40)])];
        let merged: Vec<_> = merge_stores(&stores).collect();
        let n = merged.len();
        assert!(
            matches!(merged[n - 1], Err((0, StoreError::Corrupt { .. }))),
            "{merged:?}"
        );
        assert!(merged[..n - 1].iter().all(Result::is_ok), "{merged:?}");
    }

    #[test]
    fn shard_sink_holds_back_less_than_one_store_chunk() {
        // 200-job shards of 64-job store chunks, fed 100-job blocks: after
        // every push each full shard is linked under its final name and
        // the open shard's writer holds only its last partial chunk.
        let dir = std::env::temp_dir().join(format!("swim-catalog-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jobs: Vec<Job> = (0..900u64)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 7))
                    .build()
                    .unwrap()
            })
            .collect();
        let store = StoreOptions { jobs_per_chunk: 64 };
        let mut sink = ShardSink::new(&dir, 1, 0, WorkloadKind::CcA, 10, 200, store);
        for (i, block) in jobs.chunks(100).enumerate() {
            sink.push(block).unwrap();
            let pushed = 100 * (i + 1);
            let pending = sink
                .open
                .as_ref()
                .map_or(0, |shard| shard.writer.pending_jobs());
            assert_eq!(pending, pushed % 200 % 64, "after block {i}");
            assert_eq!(sink.entries.len(), pushed / 200, "after block {i}");
        }
        let entries = sink.finish().unwrap();
        assert_eq!(
            entries.iter().map(|e| e.jobs).collect::<Vec<_>>(),
            [200, 200, 200, 200, 100]
        );
        // Every temp file is gone; the five shards are all that is left.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
