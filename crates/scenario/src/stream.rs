//! Streaming scenario execution: turn a [`Scenario`] into a
//! submit-ordered, chunk-at-a-time job stream with bounded memory.
//!
//! The stream is a two-stage pipeline. Stage one samples: each tenant's
//! [`StreamingGenerator`] (itself O(chunk)) runs on a thread of its own
//! and hands blocks of [`TENANT_CHUNK`] heap-free [`JobDraft`]s over a
//! bounded channel. Stage two, on the caller's thread, k-way-merges the
//! tenant heads by `(submit, tenant index)`, builds each job (tenant
//! prefix and path remap folded in), applies the heavy-tail and
//! retry-storm overlays *in emission order*, and reassigns sequential
//! job ids. Every tenant owns its RNG streams and the merge waits for
//! the head it needs, so the output is bit-identical for a given seed
//! regardless of chunk size, core count or scheduling.
//!
//! Only drafts cross threads — plain data, nothing allocated per job —
//! because a `Job`'s name and path vectors, freed by a thread that did
//! not allocate them, cost more CPU than the overlap wins back (see
//! ARCHITECTURE.md, "Scenario layer").
//!
//! Pending retries live in a bounded binary-heap reorder buffer — when
//! it fills, the storm saturates and further retries are dropped and
//! counted rather than buffered. Memory is O(buffer + tenants ×
//! [`CHANNEL_DEPTH`] × [`TENANT_CHUNK`]), never O(trace).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;
use swim_catalog::{Catalog, CatalogOptions, IngestStats};
use swim_obs::Counter;
use swim_trace::trace::WorkloadKind;
use swim_trace::{Dur, Job, JobId, Timestamp, Trace};
use swim_workloadgen::dist::LogNormal;
use swim_workloadgen::files::PopulationBounds;
use swim_workloadgen::jobtypes::{derive_map_tasks, derive_reduce_tasks};
use swim_workloadgen::profiles::WorkloadProfile;
use swim_workloadgen::{
    DraftPrefix, GenerationStats, GeneratorConfig, JobDraft, StreamingGenerator,
};

use crate::model::{HeavyTail, RetryStorm, Scenario, ScenarioError};

/// Default chunk size for scenario streams (jobs per yielded block).
pub const DEFAULT_CHUNK: usize = 8_192;

/// Capacity of the retry reorder buffer: the hard bound on pending
/// resubmissions held in memory.
pub const REORDER_CAP: usize = 4_096;

/// Drafts per block handed from a tenant's sampling thread to the merge.
pub const TENANT_CHUNK: usize = 512;

/// Blocks a tenant's sampling thread may run ahead of the merge. Deep
/// enough to keep sampling through a shard's encode and fsynced publish
/// on the consumer; together with [`TENANT_CHUNK`] it is the whole
/// per-tenant memory bound of the hand-off.
pub const CHANNEL_DEPTH: usize = 16;

const DRAFT_BYTES: usize = std::mem::size_of::<JobDraft>();

static SCENARIO_JOBS: Counter = Counter::new("scenario.jobs");
static SCENARIO_RETRIES: Counter = Counter::new("scenario.retries");
static SCENARIO_BOOSTED: Counter = Counter::new("scenario.boosted");

/// Running statistics of a scenario stream — the scenario's *declared*
/// statistics that a catalog built from the stream must agree with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioStats {
    /// Aggregate stats over every emitted job (originals and retries).
    pub generation: GenerationStats,
    /// Original jobs emitted per tenant, in tenant order.
    pub per_tenant: Vec<(String, u64)>,
    /// Jobs whose data sizes were boosted by the heavy-tail overlay.
    pub boosted: u64,
    /// Retry resubmissions emitted.
    pub retries: u64,
    /// Retries dropped because the reorder buffer was saturated.
    pub retries_dropped: u64,
    /// High-water mark of the reorder buffer.
    pub peak_pending: usize,
}

/// One hand-off from a tenant's sampling thread.
struct TenantChunk {
    drafts: Vec<JobDraft>,
    /// The generator's `resident_bytes()` after sampling this block.
    resident: usize,
}

/// Where a tenant's drafts come from.
enum Source {
    /// Not pulled from yet: the generator still sits on the caller's
    /// thread, so builder calls such as `population_bounds` reach it.
    Idle(Box<StreamingGenerator>),
    /// Sampling on `worker`, which ends when the generator is exhausted
    /// or `chunks` is dropped (its next `send` fails).
    Running {
        chunks: Receiver<TenantChunk>,
        worker: JoinHandle<()>,
    },
    /// Exhausted and joined.
    Done,
}

/// Start a sampling thread that sends what `produce` yields until it
/// yields `None` or the receiver is gone.
fn spawn_worker(
    label: &str,
    mut produce: impl FnMut() -> Option<TenantChunk> + Send + 'static,
) -> Source {
    let (tx, chunks) = sync_channel(CHANNEL_DEPTH);
    let worker = std::thread::Builder::new()
        .name(format!("swim-tenant-{label}"))
        .spawn(move || {
            while let Some(chunk) = produce() {
                if tx.send(chunk).is_err() {
                    break;
                }
            }
        })
        .expect("spawn a tenant sampling thread");
    Source::Running { chunks, worker }
}

/// One tenant: its draft source plus the block being merged.
struct TenantStream {
    label: String,
    source: Source,
    buffer: std::vec::IntoIter<JobDraft>,
    /// Generator state in bytes, as last reported by the worker.
    resident: usize,
}

impl TenantStream {
    /// Submit time of the tenant's next draft (blocks until its worker
    /// has one or is exhausted).
    fn head(&mut self) -> Option<Timestamp> {
        self.refill();
        self.buffer.as_slice().first().map(|d| d.submit)
    }

    fn pop(&mut self) -> Option<JobDraft> {
        self.refill();
        self.buffer.next()
    }

    fn refill(&mut self) {
        while self.buffer.as_slice().is_empty() {
            match &self.source {
                Source::Done => return,
                Source::Idle(_) => self.start(),
                Source::Running { chunks, .. } => match chunks.recv() {
                    Ok(chunk) => {
                        self.resident = chunk.resident;
                        self.buffer = chunk.drafts.into_iter();
                    }
                    // Disconnected: the worker returned or panicked. A
                    // panic is re-raised here, never read as "exhausted".
                    Err(_) => {
                        if let Err(panic) = self.stop() {
                            std::panic::resume_unwind(panic);
                        }
                    }
                },
            }
        }
    }

    /// Move the idle generator onto its own thread.
    fn start(&mut self) {
        if let Source::Idle(mut generator) = std::mem::replace(&mut self.source, Source::Done) {
            self.source = spawn_worker(&self.label, move || {
                let drafts = generator.next_drafts()?;
                Some(TenantChunk {
                    drafts,
                    resident: generator.resident_bytes(),
                })
            });
        }
    }

    /// End and join the worker, if one is running; `Err` carries its
    /// panic. Dropping the receiver first fails the `send` a worker that
    /// still has drafts is (or will be) blocked in.
    fn stop(&mut self) -> std::thread::Result<()> {
        match std::mem::replace(&mut self.source, Source::Done) {
            Source::Running { chunks, worker } => {
                drop(chunks);
                worker.join()
            }
            _ => Ok(()),
        }
    }

    fn resident_bytes(&self) -> usize {
        match &self.source {
            Source::Idle(generator) => generator.resident_bytes(),
            // Plus the blocks outside the generator: a full channel, one
            // in the worker's hands, one being merged.
            _ => self.resident + (CHANNEL_DEPTH + 2) * TENANT_CHUNK * DRAFT_BYTES,
        }
    }
}

impl Drop for TenantStream {
    fn drop(&mut self) {
        // A stream dropped or cut short mid-way still joins its workers.
        // A worker's panic has been printed by the panic hook; `Drop`
        // must not raise it again.
        let _ = self.stop();
    }
}

/// A pending retry, ordered by (submit, insertion sequence) so the heap
/// pops in deterministic submit order.
struct Pending {
    submit: Timestamp,
    seq: u64,
    job: Job,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.submit, self.seq) == (other.submit, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.submit, other.seq).cmp(&(self.submit, self.seq))
    }
}

/// The streaming executor for one scenario; see the module docs.
///
/// Implements `Iterator<Item = Vec<Job>>`: chunks of at most
/// `chunk_size` jobs, globally submit-ordered with sequential ids, and
/// deterministic per seed regardless of chunk size.
pub struct ScenarioStream {
    tenants: Vec<TenantStream>,
    heavy_tail: Option<(HeavyTail, LogNormal)>,
    retry_storm: Option<RetryStorm>,
    overlay_rng: StdRng,
    pending: BinaryHeap<Pending>,
    pending_seq: u64,
    tenant_count: u64,
    next_id: u64,
    chunk_size: usize,
    stats: ScenarioStats,
    machines: u32,
    kind: WorkloadKind,
}

impl ScenarioStream {
    /// Build the stream: validate the scenario, split the job budget
    /// over tenants by weight (largest-remainder rounding), and derive
    /// each tenant's generator scale so its share arrives spread over
    /// the scenario's full `days` window.
    ///
    /// `total_jobs` is a *budget*: each tenant's arrival process is
    /// capped at its share, so very bursty scenarios (whose arrival
    /// mass concentrates in rare peak hours that the cap truncates)
    /// emit fewer jobs than the budget. [`ScenarioStats`] always
    /// reports what was actually emitted.
    pub fn new(scenario: &Scenario, seed: u64, total_jobs: u64) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let targets = split_budget(scenario, total_jobs);
        let mut tenants = Vec::with_capacity(scenario.tenants.len());
        for (index, (tenant, target)) in scenario.tenants.iter().zip(&targets).enumerate() {
            let mut profile = WorkloadProfile::for_kind(&tenant.kind)
                .expect("validate() checked every tenant kind");
            let tweak = &tenant.tweak;
            if let Some(a) = tweak.diurnal_amplitude {
                profile.arrival.diurnal_amplitude = a;
            }
            if let Some(p) = tweak.peak_hour {
                profile.arrival.peak_hour = p;
            }
            if let Some(s) = tweak.burst_sigma {
                profile.arrival.burst_sigma = s;
            }
            // Scale so the expected job count over `days` equals the
            // tenant's target; max_jobs caps the Poisson overshoot.
            let scale =
                *target as f64 * profile.length_days / (profile.total_jobs as f64 * scenario.days);
            if *target == 0 || scale <= 0.0 {
                continue;
            }
            let mut config = GeneratorConfig::new(tenant.kind.clone())
                .scale(scale)
                .days(scenario.days)
                .seed(derive_seed(seed, index as u64 + 1));
            if let Some(s) = tenant.sigma {
                config = config.sigma(s);
            }
            let generator = StreamingGenerator::from_profile(config, profile)?
                .chunk_size(TENANT_CHUNK)
                .max_jobs(*target);
            tenants.push(TenantStream {
                label: tenant.label.clone(),
                source: Source::Idle(Box::new(generator)),
                buffer: Vec::new().into_iter(),
                resident: 0,
            });
        }
        let heavy_tail = scenario.heavy_tail.clone().map(|ht| {
            let dist = LogNormal::from_median(ht.median_boost, ht.sigma);
            (ht, dist)
        });
        let stats = ScenarioStats {
            per_tenant: tenants.iter().map(|t| (t.label.clone(), 0)).collect(),
            ..Default::default()
        };
        Ok(ScenarioStream {
            tenant_count: tenants.len().max(1) as u64,
            tenants,
            heavy_tail,
            retry_storm: scenario.retry_storm.clone(),
            overlay_rng: StdRng::seed_from_u64(derive_seed(seed, 0)),
            pending: BinaryHeap::new(),
            pending_seq: 0,
            next_id: 0,
            chunk_size: DEFAULT_CHUNK,
            stats,
            machines: scenario.machines(),
            kind: WorkloadKind::Custom(scenario.workload_label()),
        })
    }

    /// Set the chunk size (jobs per yielded block); clamped to >= 1.
    pub fn chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = n.max(1);
        self
    }

    /// Cap the per-tenant file-population state (forwarding
    /// [`PopulationBounds`] to every tenant generator). Only meaningful
    /// before any chunk is pulled.
    pub fn population_bounds(mut self, bounds: PopulationBounds) -> Self {
        for tenant in &mut self.tenants {
            tenant.source = match std::mem::replace(&mut tenant.source, Source::Done) {
                Source::Idle(generator) => {
                    Source::Idle(Box::new(generator.population_bounds(bounds)))
                }
                started => started,
            };
        }
        self
    }

    /// Statistics over everything emitted so far.
    pub fn stats(&self) -> &ScenarioStats {
        &self.stats
    }

    /// Nominal machine count of the scenario's consolidated cluster.
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// The workload kind stamped on generated jobs' traces/shards.
    pub fn kind(&self) -> &WorkloadKind {
        &self.kind
    }

    /// Bytes of resident generator state: tenant generators (each
    /// worker reports its generator's figure with every block), the
    /// hand-off at full depth, plus the retry reorder buffer. Constant in trace length — the
    /// O(chunk)-not-O(trace) figure the memory tests pin.
    pub fn resident_bytes(&self) -> usize {
        let tenants: usize = self.tenants.iter().map(|t| t.resident_bytes()).sum();
        tenants + self.pending.capacity() * std::mem::size_of::<Pending>()
    }

    /// Next chunk of at most `chunk_size` jobs; `None` when the
    /// scenario (including all pending retries) is exhausted.
    pub fn next_chunk(&mut self) -> Option<Vec<Job>> {
        let _span = swim_obs::span("scenario.chunk");
        let mut chunk = Vec::with_capacity(self.chunk_size.min(DEFAULT_CHUNK));
        while chunk.len() < self.chunk_size {
            match self.next_job() {
                Some(job) => chunk.push(job),
                None => break,
            }
        }
        if chunk.is_empty() {
            None
        } else {
            SCENARIO_JOBS.add(chunk.len() as u64);
            Some(chunk)
        }
    }

    fn next_job(&mut self) -> Option<Job> {
        // Earliest tenant head, by (submit, tenant index) for stability.
        let mut next_tenant: Option<(Timestamp, usize)> = None;
        for (i, tenant) in self.tenants.iter_mut().enumerate() {
            if let Some(submit) = tenant.head() {
                let key = (submit, i);
                if next_tenant.is_none_or(|cur| key < cur) {
                    next_tenant = Some(key);
                }
            }
        }
        // Flush any retry due before (or at) the next original.
        if let Some(p) = self.pending.peek() {
            let due = match next_tenant {
                Some((submit, _)) => p.submit <= submit,
                None => true,
            };
            if due {
                let p = self.pending.pop().expect("peeked above");
                self.stats.retries += 1;
                SCENARIO_RETRIES.incr();
                return Some(self.finalize(p.job));
            }
        }
        let (_, index) = next_tenant?;
        let tenant = &mut self.tenants[index];
        let draft = tenant.pop().expect("peeked above");
        // Namespace the tenant's names and file paths (collision-free
        // remap: old id times tenant count plus tenant index).
        let mut job = draft.into_job(Some(&DraftPrefix {
            label: &tenant.label,
            path_stride: self.tenant_count,
            path_offset: index as u64,
        }));
        self.apply_heavy_tail(&mut job);
        self.schedule_retries(&job);
        self.stats.per_tenant[index].1 += 1;
        Some(self.finalize(job))
    }

    /// Heavy-tail overlay: boost data sizes and task-times by one
    /// lognormal factor, then re-derive task counts so the job stays
    /// schema-consistent. Draws happen in emission order, so the stream
    /// stays deterministic for any chunking.
    fn apply_heavy_tail(&mut self, job: &mut Job) {
        let Some((ht, dist)) = &self.heavy_tail else {
            return;
        };
        if !self.overlay_rng.random_bool(ht.probability) {
            return;
        }
        let factor = dist.sample(&mut self.overlay_rng);
        job.input = job.input.scale(factor);
        job.shuffle = job.shuffle.scale(factor);
        job.output = job.output.scale(factor);
        job.map_task_time = job.map_task_time.scale(factor);
        job.reduce_task_time = job.reduce_task_time.scale(factor);
        job.map_tasks = derive_map_tasks(job.input, job.map_task_time, job.duration);
        job.reduce_tasks = derive_reduce_tasks(job.shuffle, job.reduce_task_time);
        self.stats.boosted += 1;
        SCENARIO_BOOSTED.incr();
    }

    /// Retry-storm overlay: chain failure draws (attempt k fails with
    /// probability p, capped) and buffer each resubmission `k·backoff`
    /// after the original, dropping (and counting) retries when the
    /// reorder buffer is saturated.
    fn schedule_retries(&mut self, job: &Job) {
        let Some(rs) = &self.retry_storm else {
            return;
        };
        for attempt in 1..=rs.max_retries {
            if !self.overlay_rng.random_bool(rs.probability) {
                break;
            }
            if self.pending.len() >= REORDER_CAP {
                self.stats.retries_dropped += 1;
                continue;
            }
            let mut retry = job.clone();
            retry.submit = job.submit + Dur::from_secs(rs.backoff.secs() * attempt as u64);
            self.pending.push(Pending {
                submit: retry.submit,
                seq: self.pending_seq,
                job: retry,
            });
            self.pending_seq += 1;
            self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len());
        }
    }

    fn finalize(&mut self, mut job: Job) -> Job {
        job.id = JobId(self.next_id);
        self.next_id += 1;
        self.stats.generation.observe(&job);
        job
    }

    /// Drain the whole stream into an in-memory [`Trace`] (for the
    /// comparison study; paper-scale generation should stream into a
    /// catalog instead — see [`generate_into_catalog`]).
    pub fn collect_trace(mut self) -> Result<(Trace, ScenarioStats), ScenarioError> {
        let mut jobs = Vec::new();
        while let Some(chunk) = self.next_chunk() {
            jobs.extend(chunk);
        }
        let trace = Trace::new(self.kind.clone(), self.machines, jobs).map_err(|e| {
            ScenarioError::Invalid {
                scenario: self.kind.label().to_owned(),
                message: format!("generated trace failed validation: {e}"),
            }
        })?;
        Ok((trace, self.stats))
    }
}

impl Iterator for ScenarioStream {
    type Item = Vec<Job>;

    fn next(&mut self) -> Option<Vec<Job>> {
        self.next_chunk()
    }
}

/// Outcome of streaming a scenario into a catalog.
#[derive(Debug, Clone)]
pub struct GenerateOutcome {
    /// Shards/jobs/bytes written by the catalog.
    pub ingest: IngestStats,
    /// The stream's declared statistics (catalog `summary()` must agree).
    pub stats: ScenarioStats,
}

/// Stream `total_jobs` jobs of `scenario` into an open catalog without
/// ever materializing the trace: memory stays O(chunk) while shards are
/// published incrementally (the 100M-job path).
pub fn generate_into_catalog(
    scenario: &Scenario,
    seed: u64,
    total_jobs: u64,
    chunk_size: usize,
    catalog: &mut Catalog,
    options: &CatalogOptions,
) -> Result<GenerateOutcome, ScenarioError> {
    let mut stream = ScenarioStream::new(scenario, seed, total_jobs)?.chunk_size(chunk_size);
    let kind = stream.kind().clone();
    let machines = stream.machines();
    let ingest = catalog
        .ingest_stream(kind, machines, &mut stream, options)
        .map_err(|e| ScenarioError::Catalog(e.to_string()))?;
    Ok(GenerateOutcome {
        ingest,
        stats: stream.stats().clone(),
    })
}

/// Split `total` jobs over tenants by weight using largest-remainder
/// rounding — deterministic, sums exactly to `total`.
fn split_budget(scenario: &Scenario, total: u64) -> Vec<u64> {
    let sum: f64 = scenario.tenants.iter().map(|t| t.weight).sum();
    let mut shares: Vec<(usize, u64, f64)> = scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let exact = t.weight / sum * total as f64;
            (i, exact.floor() as u64, exact - exact.floor())
        })
        .collect();
    let assigned: u64 = shares.iter().map(|s| s.1).sum();
    // The sum of floors is short by fewer than one job per tenant.
    let remainder = total.saturating_sub(assigned) as usize;
    // Largest fractional part first; ties broken by tenant order.
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        shares[b]
            .2
            .partial_cmp(&shares[a].2)
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(remainder) {
        shares[i].1 += 1;
    }
    shares.into_iter().map(|s| s.1).collect()
}

/// Derive an independent 64-bit stream seed from a master seed
/// (splitmix64 finalizer — same construction the generator uses for its
/// arrival/body split).
fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn chunked(scenario: &Scenario, seed: u64, jobs: u64, chunk: usize) -> Vec<Job> {
        ScenarioStream::new(scenario, seed, jobs)
            .expect("preset is valid")
            .chunk_size(chunk)
            .flatten()
            .collect()
    }

    #[test]
    fn stream_is_sorted_with_sequential_ids() {
        for preset in presets::presets() {
            let jobs = chunked(&preset, 42, 600, 128);
            assert!(!jobs.is_empty(), "{} produced nothing", preset.name);
            assert!(
                jobs.windows(2).all(|w| w[0].submit <= w[1].submit),
                "{} not submit-ordered",
                preset.name
            );
            for (i, job) in jobs.iter().enumerate() {
                assert_eq!(
                    job.id,
                    JobId(i as u64),
                    "{} ids not sequential",
                    preset.name
                );
                job.validate().expect("every job valid");
            }
        }
    }

    /// The stream as a single thread produces it, written out longhand:
    /// every tenant's generator pulled on this thread, names prefixed
    /// and paths remapped in a second pass over finished jobs, a linear
    /// `(submit, index)` merge, and a flat list for the retry buffer.
    fn serial_reference(scenario: &Scenario, seed: u64, jobs: u64) -> Vec<Job> {
        let mut stream = ScenarioStream::new(scenario, seed, jobs).expect("preset is valid");
        let count = stream.tenant_count;
        let mut tenants = Vec::new();
        for (index, tenant) in stream.tenants.iter_mut().enumerate() {
            let Source::Idle(generator) = std::mem::replace(&mut tenant.source, Source::Done)
            else {
                panic!("workers start lazily");
            };
            let jobs: Vec<Job> = generator
                .flatten()
                .map(|mut job| {
                    if !job.name.is_empty() {
                        job.name = format!("{}:{}", tenant.label, job.name);
                    }
                    for p in job.input_paths.iter_mut().chain(&mut job.output_paths) {
                        *p = swim_trace::PathId(p.0 * count + index as u64);
                    }
                    job
                })
                .collect();
            tenants.push(jobs.into_iter().peekable());
        }
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
        let mut pending: Vec<(Timestamp, u64, Job)> = Vec::new();
        let mut pending_seq = 0u64;
        let mut out: Vec<Job> = Vec::new();
        loop {
            let next = tenants
                .iter_mut()
                .enumerate()
                .filter_map(|(i, t)| t.peek().map(|job| (job.submit, i)))
                .min();
            let due = pending
                .iter()
                .map(|(submit, seq, _)| (*submit, *seq))
                .min()
                .filter(|(submit, _)| next.is_none_or(|(original, _)| *submit <= original));
            let mut job = if let Some(key) = due {
                let at = pending
                    .iter()
                    .position(|(submit, seq, _)| (*submit, *seq) == key)
                    .expect("the minimum is in the list");
                pending.swap_remove(at).2
            } else if let Some((_, index)) = next {
                let mut job = tenants[index].next().expect("peeked above");
                if let Some(ht) = &scenario.heavy_tail {
                    if rng.random_bool(ht.probability) {
                        let factor =
                            LogNormal::from_median(ht.median_boost, ht.sigma).sample(&mut rng);
                        job.input = job.input.scale(factor);
                        job.shuffle = job.shuffle.scale(factor);
                        job.output = job.output.scale(factor);
                        job.map_task_time = job.map_task_time.scale(factor);
                        job.reduce_task_time = job.reduce_task_time.scale(factor);
                        job.map_tasks =
                            derive_map_tasks(job.input, job.map_task_time, job.duration);
                        job.reduce_tasks = derive_reduce_tasks(job.shuffle, job.reduce_task_time);
                    }
                }
                if let Some(rs) = &scenario.retry_storm {
                    for attempt in 1..=rs.max_retries {
                        if !rng.random_bool(rs.probability) {
                            break;
                        }
                        if pending.len() >= REORDER_CAP {
                            continue;
                        }
                        let mut retry = job.clone();
                        retry.submit += Dur::from_secs(rs.backoff.secs() * attempt as u64);
                        pending.push((retry.submit, pending_seq, retry));
                        pending_seq += 1;
                    }
                }
                job
            } else {
                return out;
            };
            job.id = JobId(out.len() as u64);
            out.push(job);
        }
    }

    #[test]
    fn threaded_stream_equals_the_serial_reference() {
        // 3 000 jobs: every tenant hands over several TENANT_CHUNK blocks.
        for preset in presets::presets() {
            let reference = serial_reference(&preset, 13, 3_000);
            assert!(
                reference.len() > 1_000,
                "{}: {}",
                preset.name,
                reference.len()
            );
            for chunk in [1usize, 7, 4096] {
                assert!(
                    reference == chunked(&preset, 13, 3_000, chunk),
                    "{} diverged from the serial reference at chunk size {chunk}",
                    preset.name
                );
            }
        }
    }

    fn tenant_over(source: Source) -> TenantStream {
        TenantStream {
            label: "t".into(),
            source,
            buffer: Vec::new().into_iter(),
            resident: 0,
        }
    }

    fn one_draft() -> JobDraft {
        let config = GeneratorConfig::new(WorkloadKind::CcB).seed(1);
        let mut generator = StreamingGenerator::new(config).expect("valid config");
        generator.next_drafts().expect("CC-b has jobs")[0]
    }

    #[test]
    fn workers_start_on_the_first_pull_not_before() {
        let bounds = PopulationBounds {
            max_files: 256,
            reserved_files: 32,
            max_outputs: 64,
            max_access_log: 64,
        };
        let idle = |s: &ScenarioStream| {
            s.tenants
                .iter()
                .filter(|t| matches!(t.source, Source::Idle(_)))
                .count()
        };
        let preset = presets::multitenant_saas();
        let mut stream = ScenarioStream::new(&preset, 5, 2_000)
            .expect("valid")
            .population_bounds(bounds);
        // Still on this thread, where `population_bounds` reached them
        // (`resident_state_is_constant_in_stream_length` shows it took).
        assert_eq!(idle(&stream), preset.tenants.len());
        stream.next_chunk().expect("a first chunk");
        assert_eq!(idle(&stream), 0, "the merge needs every tenant's head");
    }

    #[test]
    fn a_stream_dropped_mid_way_ends_and_joins_its_workers() {
        // A worker that never runs dry, blocked in `send` on a full
        // channel once the consumer stops pulling.
        let alive = std::sync::Arc::new(());
        let held = alive.clone();
        let draft = one_draft();
        let mut tenant = tenant_over(spawn_worker("endless", move || {
            let _held = &held;
            Some(TenantChunk {
                drafts: vec![draft; 4],
                resident: 0,
            })
        }));
        assert_eq!(tenant.pop(), Some(draft));
        drop(tenant);
        // Joined, not detached: the closure (and its Arc) is gone.
        assert_eq!(std::sync::Arc::strong_count(&alive), 1);

        // The same through the public surface: cut short after one chunk
        // of a budget far larger than the channels hold.
        let mut stream = ScenarioStream::new(&presets::multitenant_saas(), 5, 1_000_000)
            .expect("valid")
            .chunk_size(64);
        assert_eq!(stream.next_chunk().expect("a first chunk").len(), 64);
        drop(stream);
    }

    #[test]
    #[should_panic(expected = "sampler exploded")]
    fn a_worker_panic_is_re_raised_on_the_consumer() {
        let mut stream = ScenarioStream::new(&presets::steady_retail(), 5, 2_000).expect("valid");
        let draft = one_draft();
        let mut sent = false;
        stream.tenants[0].source = spawn_worker("doomed", move || {
            if sent {
                panic!("sampler exploded");
            }
            sent = true;
            Some(TenantChunk {
                drafts: vec![draft],
                resident: 0,
            })
        });
        // One good job, then the tenant's channel disconnects: that must
        // not read as "tenant exhausted" and end the stream quietly.
        while stream.next_chunk().is_some() {}
    }

    #[test]
    fn chunk_size_never_changes_the_stream() {
        let preset = presets::multitenant_saas();
        let fine = chunked(&preset, 7, 500, 1);
        for chunk in [7usize, 64, 4096] {
            assert_eq!(
                fine,
                chunked(&preset, 7, 500, chunk),
                "chunk {chunk} diverged"
            );
        }
    }

    #[test]
    fn retry_storm_emits_retries_and_stays_bounded() {
        let preset = presets::retrystorm_fintech();
        let mut stream = ScenarioStream::new(&preset, 11, 1_500).expect("valid");
        let mut total = 0usize;
        while let Some(chunk) = stream.next_chunk() {
            total += chunk.len();
        }
        let stats = stream.stats();
        assert!(stats.retries > 0, "a 25% storm must emit retries");
        assert!(stats.peak_pending <= REORDER_CAP);
        assert_eq!(stats.generation.jobs as usize, total);
        let originals: u64 = stats.per_tenant.iter().map(|(_, n)| n).sum();
        assert_eq!(originals + stats.retries, stats.generation.jobs);
    }

    #[test]
    fn heavy_tail_boosts_a_plausible_fraction() {
        let preset = presets::heavytail_adtech();
        let mut stream = ScenarioStream::new(&preset, 3, 2_000).expect("valid");
        while stream.next_chunk().is_some() {}
        let stats = stream.stats();
        let frac = stats.boosted as f64 / stats.generation.jobs as f64;
        assert!(
            (0.04..0.14).contains(&frac),
            "boosted fraction {frac} far from probability 0.08"
        );
    }

    #[test]
    fn multitenant_split_respects_weights_and_remaps_paths() {
        let preset = presets::multitenant_saas();
        let mut stream = ScenarioStream::new(&preset, 5, 2_000).expect("valid");
        let jobs: Vec<Job> = (&mut stream).flatten().collect();
        let stats = stream.stats();
        let total: u64 = stats.per_tenant.iter().map(|(_, n)| n).sum();
        assert_eq!(total as usize, jobs.len());
        for ((label, n), tenant) in stats.per_tenant.iter().zip(&preset.tenants) {
            assert_eq!(label, &tenant.label);
            let share = *n as f64 / total as f64;
            let weight: f64 = preset.tenants.iter().map(|t| t.weight).sum();
            let expect = tenant.weight / weight;
            assert!(
                (share - expect).abs() < 0.1,
                "tenant {label} share {share} far from {expect}"
            );
        }
        // Tenant-labelled names show every tenant reached the stream.
        for tenant in &preset.tenants {
            let prefix = format!("{}:", tenant.label);
            assert!(
                jobs.iter().any(|j| j.name.starts_with(&prefix)),
                "no jobs named for tenant {}",
                tenant.label
            );
        }
    }

    #[test]
    fn budget_split_is_exact() {
        let preset = presets::multitenant_saas();
        let targets = split_budget(&preset, 1_000);
        assert_eq!(targets.iter().sum::<u64>(), 1_000);
        assert_eq!(targets.len(), preset.tenants.len());
        let targets = split_budget(&preset, 1);
        assert_eq!(targets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn resident_state_is_constant_in_stream_length() {
        let preset = presets::bursty_telecom();
        let bounds = PopulationBounds {
            max_files: 256,
            reserved_files: 32,
            max_outputs: 64,
            max_access_log: 64,
        };
        let measure = |jobs: u64| {
            let mut stream = ScenarioStream::new(&preset, 9, jobs)
                .expect("valid")
                .chunk_size(256)
                .population_bounds(bounds);
            while stream.next_chunk().is_some() {}
            (stream.stats().generation.jobs, stream.resident_bytes())
        };
        let (short_jobs, short_bytes) = measure(2_000);
        let (long_jobs, long_bytes) = measure(10_000);
        assert!(long_jobs > short_jobs * 3, "streams must differ in length");
        assert_eq!(
            short_bytes, long_bytes,
            "resident bytes must not grow with stream length"
        );
    }

    #[test]
    fn stats_declare_exactly_what_was_emitted() {
        let preset = presets::steady_retail();
        let mut stream = ScenarioStream::new(&preset, 21, 800).expect("valid");
        let jobs: Vec<Job> = (&mut stream).flatten().collect();
        let stats = stream.stats();
        assert_eq!(stats.generation.jobs as usize, jobs.len());
        let bytes: swim_trace::DataSize = jobs.iter().map(|j| j.total_io()).sum();
        assert_eq!(stats.generation.bytes_moved, bytes);
        assert_eq!(
            stats.generation.span(),
            jobs.last().expect("nonempty").submit.since(jobs[0].submit)
        );
    }
}
