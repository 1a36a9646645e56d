//! The replay engine: executes a [`ReplayPlan`] on a simulated cluster.
//!
//! Execution model (the paper's own abstraction level): a job is a bag of
//! map tasks followed by a bag of reduce tasks; each task occupies one
//! slot for roughly `task_time / task_count` seconds. Reduces launch only
//! after every map of the job finished (no slow-start). Inputs are read
//! through the storage layer at **first task launch** (so a job queued
//! behind a backlog cannot warm the cache before it actually runs);
//! outputs are written back at completion.
//!
//! # Wave scheduling
//!
//! The engine is *wave-scheduled*: each dispatch round coalesces the N
//! same-duration tasks a job is granted into a single
//! [`Event::WaveFinish`] carrying the task count, so the event heap holds
//! one entry per **wave** instead of one per task — O(waves) events where
//! waves ≈ tasks / slots. Dispatch is incremental: the scheduler keeps a
//! runnable-with-demand index (jobs that can accept a freed slot right
//! now), so each round touches exactly the jobs it grants to instead of
//! scanning every runnable job per event.
//!
//! # Exactness
//!
//! Slot-seconds are preserved **bit-for-bit**: a job's task-time budget
//! is distributed over its tasks as `base = total / n` seconds with the
//! remainder `total % n` spread one extra second over the first tasks
//! granted, so `Σ task durations == total` always — no ceil-rounding
//! inflation (the old engine inflated small jobs by up to ~20 %). Very
//! large jobs are additionally *batched*: a job with hundreds of
//! thousands of tasks is simulated as at most `max_tasks_per_job` slot
//! grants whose durations preserve the same exact total.
//!
//! A per-task reference implementation with identical semantics lives in
//! [`crate::reference`] and is held to bit-exact FIFO parity by tests.

use crate::cache::{CachePolicy, CacheStats};
use crate::cluster::{ClusterConfig, SlotPool};
use crate::event::{Event, EventQueue};
use crate::hdfs::{Hdfs, HdfsConfig};
use crate::metrics::{JobOutcome, UtilizationTracker};
use crate::scheduler::{Scheduler, SchedulerKind};
#[cfg(test)]
use swim_synth::ReplayJob;
use swim_synth::ReplayPlan;
use swim_trace::{DataSize, Dur, PathId, Timestamp};

/// swim-obs instruments for the simulator. Tallies accumulate in locals
/// inside the event loop and are added here once per run, so enabling
/// metrics costs nothing on the hot path.
mod obs {
    use swim_obs::Counter;

    /// Heap events processed (submissions + wave finishes).
    pub static HEAP_EVENTS: Counter = Counter::new("sim.heap_events");
    /// Wave-finish events alone — the wave-coalescing win is
    /// `sim.heap_events` vs tasks.
    pub static WAVE_EVENTS: Counter = Counter::new("sim.wave_events");
    /// Jobs driven to completion.
    pub static JOBS_REPLAYED: Counter = Counter::new("sim.jobs_replayed");
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Storage configuration.
    pub hdfs: HdfsConfig,
    /// Optional cache tier: policy and capacity.
    pub cache: Option<(CachePolicy, DataSize)>,
    /// Wave-batching cap on simulated tasks per job (see module docs).
    pub max_tasks_per_job: u32,
}

impl SimConfig {
    /// Defaults: FIFO, no cache, 1000-task batching cap.
    pub fn new(nodes: u32) -> Self {
        SimConfig {
            cluster: ClusterConfig::with_nodes(nodes),
            scheduler: SchedulerKind::Fifo,
            hdfs: HdfsConfig::default(),
            cache: None,
            max_tasks_per_job: 1_000,
        }
    }

    /// Use the fair scheduler.
    pub fn fair(mut self) -> Self {
        self.scheduler = SchedulerKind::Fair;
        self
    }

    /// Attach a cache tier.
    pub fn with_cache(mut self, policy: CachePolicy, capacity: DataSize) -> Self {
        self.cache = Some((policy, capacity));
        self
    }
}

/// Results of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-job outcomes, in plan order.
    pub outcomes: Vec<JobOutcome>,
    /// Average active slots per hour (Fig. 7 column 4).
    pub hourly_utilization: Vec<f64>,
    /// Cache statistics, when a cache tier was configured.
    pub cache: Option<CacheStats>,
    /// Completion time of the last job.
    pub makespan: Timestamp,
    /// Heap events processed (waves + submissions) — the engine-cost
    /// metric the wave-vs-per-task benchmarks compare.
    pub events: u64,
    /// Total slot-seconds integrated over the run. Exactly equal to the
    /// plan's total task-time (wave batching preserves slot-seconds
    /// bit-for-bit).
    pub slot_seconds: f64,
}

impl SimResult {
    /// Mean queueing delay over all jobs, in seconds.
    pub fn mean_queue_delay(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.queue_delay().as_f64())
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Median job latency in seconds (nearest-rank, i.e.
    /// `latency_percentile(0.5)` — the lower median for even counts).
    pub fn median_latency(&self) -> f64 {
        self.latency_percentile(0.5)
    }

    /// The given percentile of job latency, in seconds, by the
    /// **nearest-rank** definition: the smallest latency `l` such that at
    /// least `p × len` jobs have latency ≤ `l`. `p = 0.0` yields the
    /// minimum, `p = 1.0` the maximum.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.outcomes.iter().map(|o| o.latency().as_f64()).collect();
        lat.sort_by(f64::total_cmp);
        lat[swim_obs::nearest_rank(p, lat.len())]
    }
}

/// Exact wave decomposition of one task bag: `count` simulated tasks, of
/// which the `long` granted first run `base + 1 s` and the rest `base`,
/// so that total slot-seconds are preserved bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskBatch {
    /// Simulated task (slot-grant) count.
    pub count: u32,
    /// Base per-task duration (`total / count`, floored).
    pub base: Dur,
    /// How many tasks run one extra second (`total % count`).
    pub long: u32,
}

impl TaskBatch {
    pub(crate) const EMPTY: TaskBatch = TaskBatch {
        count: 0,
        base: Dur::ZERO,
        long: 0,
    };

    /// Total slot-seconds across the batch (exact reconstruction).
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.count as u64 * self.base.secs() + self.long as u64
    }
}

/// Wave-batching: represent `tasks` tasks totalling `total_time`
/// slot-seconds as at most `cap` simulated grants whose durations sum to
/// `total_time` **exactly** — the remainder is distributed one second at
/// a time instead of ceil-rounding every task up (which inflated small
/// jobs' slot-seconds by up to ~20 %).
pub(crate) fn batch_tasks(tasks: u32, total_time: Dur, cap: u32) -> TaskBatch {
    if tasks == 0 {
        return TaskBatch::EMPTY;
    }
    let count = tasks.min(cap).max(1);
    let base = total_time.secs() / count as u64;
    let long = (total_time.secs() % count as u64) as u32;
    TaskBatch {
        count,
        base: Dur::from_secs(base),
        long,
    }
}

/// Per-job runtime state (shared with the per-task reference engine in
/// [`crate::reference`]).
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    pub(crate) submit: Timestamp,
    pub(crate) first_start: Option<Timestamp>,
    /// Input has been read through the storage layer (set at first task
    /// launch, not at submission — a queued job must not warm the cache).
    pub(crate) input_read: bool,
    pub(crate) pending_map: u32,
    /// Of the pending maps, how many still run `map_base + 1 s`.
    pub(crate) long_map: u32,
    pub(crate) running_map: u32,
    pub(crate) map_base: Dur,
    pub(crate) pending_reduce: u32,
    pub(crate) long_reduce: u32,
    pub(crate) running_reduce: u32,
    pub(crate) reduce_base: Dur,
    /// Slots granted to this job in the current dispatch round, to be
    /// coalesced into wave events (scratch; zero between dispatches).
    pub(crate) grant_map: u32,
    pub(crate) grant_reduce: u32,
    pub(crate) input_path: PathId,
    pub(crate) output_path: PathId,
    pub(crate) input: DataSize,
    pub(crate) output: DataSize,
    pub(crate) done: bool,
}

impl JobState {
    /// Read the job's input on its first launch (or, for task-less jobs,
    /// at its instantaneous execution).
    pub(crate) fn ensure_input_read(&mut self, hdfs: &mut Hdfs, now: Timestamp) {
        if !self.input_read {
            self.input_read = true;
            hdfs.read(self.input_path, self.input, now);
        }
    }
}

/// The discrete-event replay simulator.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Build a simulator.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Execute `plan` to completion and return the collected metrics.
    ///
    /// `input_paths` optionally maps plan jobs to shared input files (the
    /// pre-population plan); when absent each job reads a private file,
    /// which makes every cache access a cold miss — the correct null model
    /// for a plan without path information.
    pub fn run(&self, plan: &ReplayPlan, input_paths: Option<&[PathId]>) -> SimResult {
        let _span = swim_obs::span("sim.run");
        let mut hdfs = Hdfs::new(self.config.hdfs);
        if let Some((policy, capacity)) = self.config.cache {
            hdfs = hdfs.with_cache(policy, capacity);
        }
        let mut slots = SlotPool::new(self.config.cluster);
        let mut scheduler = Scheduler::new(self.config.scheduler);
        let mut queue = EventQueue::new();
        let mut util = UtilizationTracker::new();

        let mut jobs = materialize_jobs(plan, input_paths, self.config.max_tasks_per_job);
        for (i, js) in jobs.iter().enumerate() {
            queue.push(js.submit, Event::JobSubmit { job: i });
        }

        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(plan.len());
        let mut now = Timestamp::ZERO;
        let mut events: u64 = 0;
        let mut wave_events: u64 = 0;

        while let Some((at, event)) = queue.pop() {
            now = at;
            events += 1;
            match event {
                Event::JobSubmit { job } => {
                    let js = &jobs[job];
                    if js.pending_map > 0 {
                        scheduler.enqueue_map(job);
                    } else if js.pending_reduce > 0 {
                        scheduler.enqueue_reduce(job);
                    } else {
                        // Zero-task oddity (empty replay job): it executes
                        // instantaneously at submission.
                        maybe_finish(job, &mut jobs, &mut hdfs, &mut outcomes, now);
                    }
                }
                Event::WaveFinish { job, is_map, count } => {
                    wave_events += 1;
                    let js = &mut jobs[job];
                    if is_map {
                        js.running_map -= count;
                        slots.release_map_n(count);
                        if js.pending_map == 0 && js.running_map == 0 && js.pending_reduce > 0 {
                            // Last map drained: reduces become runnable.
                            scheduler.enqueue_reduce(job);
                        }
                    } else {
                        js.running_reduce -= count;
                        slots.release_reduce_n(count);
                    }
                    maybe_finish(job, &mut jobs, &mut hdfs, &mut outcomes, now);
                }
            }
            dispatch(
                &mut jobs,
                &mut scheduler,
                &mut slots,
                &mut queue,
                &mut hdfs,
                now,
            );
            util.record(now, slots.busy_total());
        }

        outcomes.sort_by_key(|o| o.job);
        // Aggregate tallies land in swim-obs once per run: the hot event
        // loop above touches only the two local integers.
        obs::HEAP_EVENTS.add(events);
        obs::WAVE_EVENTS.add(wave_events);
        obs::JOBS_REPLAYED.add(outcomes.len() as u64);
        SimResult {
            hourly_utilization: util.hourly_average_slots(),
            cache: hdfs.cache_stats(),
            makespan: now,
            events,
            slot_seconds: util.total_slot_seconds(),
            outcomes,
        }
    }
}

/// Build per-job runtime state from the plan (shared by the wave engine
/// and the per-task reference engine in [`crate::reference`]).
pub(crate) fn materialize_jobs(
    plan: &ReplayPlan,
    input_paths: Option<&[PathId]>,
    cap: u32,
) -> Vec<JobState> {
    let mut jobs: Vec<JobState> = Vec::with_capacity(plan.len());
    let mut t = Timestamp::ZERO;
    for (i, rj) in plan.jobs.iter().enumerate() {
        t += rj.gap;
        let map = batch_tasks(rj.map_tasks, rj.map_task_time, cap);
        let red = batch_tasks(rj.reduce_tasks, rj.reduce_task_time, cap);
        let input_path = input_paths
            .and_then(|p| p.get(i).copied())
            .unwrap_or(PathId(1_000_000_000 + i as u64));
        jobs.push(JobState {
            submit: t,
            first_start: None,
            input_read: false,
            pending_map: map.count,
            long_map: map.long,
            running_map: 0,
            map_base: map.base,
            pending_reduce: red.count,
            long_reduce: red.long,
            running_reduce: 0,
            reduce_base: red.base,
            grant_map: 0,
            grant_reduce: 0,
            input_path,
            output_path: PathId(2_000_000_000 + i as u64),
            input: rj.input,
            output: rj.output,
            done: false,
        });
    }
    jobs
}

/// Launch tasks onto free slots per the scheduling policy, coalescing
/// each job's grants into wave events.
///
/// Incremental-dispatch invariant: every loop iteration either grants at
/// least one slot or terminates, so a dispatch round costs O(slots
/// granted), independent of how many jobs are runnable.
fn dispatch(
    jobs: &mut [JobState],
    scheduler: &mut Scheduler,
    slots: &mut SlotPool,
    queue: &mut EventQueue,
    hdfs: &mut Hdfs,
    now: Timestamp,
) {
    if scheduler.is_idle() || (slots.free_map == 0 && slots.free_reduce == 0) {
        return;
    }
    let mut touched: Vec<usize> = Vec::new();
    match scheduler.kind() {
        SchedulerKind::Fifo => {
            // Head job takes everything it can, then the next.
            while slots.free_map > 0 {
                let Some(job) = scheduler.map_at(0) else {
                    break;
                };
                let js = &mut jobs[job];
                let got = slots.take_map(js.pending_map);
                grant(js, job, true, got, &mut touched);
                if js.pending_map == 0 {
                    scheduler.remove_map_at(0);
                }
            }
            while slots.free_reduce > 0 {
                let Some(job) = scheduler.reduce_at(0) else {
                    break;
                };
                let js = &mut jobs[job];
                let got = slots.take_reduce(js.pending_reduce);
                grant(js, job, false, got, &mut touched);
                if js.pending_reduce == 0 {
                    scheduler.remove_reduce_at(0);
                }
            }
        }
        SchedulerKind::Fair => {
            // One slot per job per pass, round-robin until slots or
            // demand run out.
            let mut i = 0;
            while slots.free_map > 0 && scheduler.map_len() > 0 {
                if i >= scheduler.map_len() {
                    i = 0;
                }
                // `i` was just wrapped below `map_len`, so the lookup
                // cannot miss; break defensively rather than panic.
                let Some(job) = scheduler.map_at(i) else {
                    break;
                };
                let js = &mut jobs[job];
                let got = slots.take_map(1);
                grant(js, job, true, got, &mut touched);
                if js.pending_map == 0 {
                    scheduler.remove_map_at(i);
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while slots.free_reduce > 0 && scheduler.reduce_len() > 0 {
                if i >= scheduler.reduce_len() {
                    i = 0;
                }
                // Same wrap-around invariant as the map loop above.
                let Some(job) = scheduler.reduce_at(i) else {
                    break;
                };
                let js = &mut jobs[job];
                let got = slots.take_reduce(1);
                grant(js, job, false, got, &mut touched);
                if js.pending_reduce == 0 {
                    scheduler.remove_reduce_at(i);
                } else {
                    i += 1;
                }
            }
        }
    }
    // Emit at most two wave events per touched job and kind: the
    // remainder-second tasks and the base-duration tasks.
    for job in touched {
        let js = &mut jobs[job];
        if js.grant_map > 0 || js.grant_reduce > 0 {
            js.first_start.get_or_insert(now);
            js.ensure_input_read(hdfs, now);
        }
        if js.grant_map > 0 {
            let long = js.grant_map.min(js.long_map);
            js.long_map -= long;
            let short = js.grant_map - long;
            js.grant_map = 0;
            if long > 0 {
                queue.push(
                    now + js.map_base + Dur::from_secs(1),
                    Event::WaveFinish {
                        job,
                        is_map: true,
                        count: long,
                    },
                );
            }
            if short > 0 {
                queue.push(
                    now + js.map_base,
                    Event::WaveFinish {
                        job,
                        is_map: true,
                        count: short,
                    },
                );
            }
        }
        if js.grant_reduce > 0 {
            let long = js.grant_reduce.min(js.long_reduce);
            js.long_reduce -= long;
            let short = js.grant_reduce - long;
            js.grant_reduce = 0;
            if long > 0 {
                queue.push(
                    now + js.reduce_base + Dur::from_secs(1),
                    Event::WaveFinish {
                        job,
                        is_map: false,
                        count: long,
                    },
                );
            }
            if short > 0 {
                queue.push(
                    now + js.reduce_base,
                    Event::WaveFinish {
                        job,
                        is_map: false,
                        count: short,
                    },
                );
            }
        }
    }
    scheduler.rotate();
}

/// Record `got` granted slots on a job's scratch counters.
fn grant(js: &mut JobState, job: usize, is_map: bool, got: u32, touched: &mut Vec<usize>) {
    if got == 0 {
        return;
    }
    if js.grant_map == 0 && js.grant_reduce == 0 {
        touched.push(job);
    }
    if is_map {
        js.pending_map -= got;
        js.running_map += got;
        js.grant_map += got;
    } else {
        js.pending_reduce -= got;
        js.running_reduce += got;
        js.grant_reduce += got;
    }
}

/// Complete a job when its last task has drained.
pub(crate) fn maybe_finish(
    job: usize,
    jobs: &mut [JobState],
    hdfs: &mut Hdfs,
    outcomes: &mut Vec<JobOutcome>,
    now: Timestamp,
) {
    let js = &mut jobs[job];
    if js.done
        || js.pending_map > 0
        || js.running_map > 0
        || js.pending_reduce > 0
        || js.running_reduce > 0
    {
        return;
    }
    js.done = true;
    // Task-less jobs execute instantaneously here: their only chance to
    // read input.
    js.ensure_input_read(hdfs, now);
    hdfs.write(js.output_path, js.output, now);
    outcomes.push(JobOutcome {
        job,
        submit: js.submit,
        first_start: js.first_start.unwrap_or(now),
        finish: now,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_job(gap: u64, maps: u32, map_secs: u64, reds: u32, red_secs: u64) -> ReplayJob {
        ReplayJob {
            gap: Dur::from_secs(gap),
            input: DataSize::from_mb(64),
            shuffle: if reds > 0 {
                DataSize::from_mb(8)
            } else {
                DataSize::ZERO
            },
            output: DataSize::from_mb(8),
            map_task_time: Dur::from_secs(map_secs),
            reduce_task_time: Dur::from_secs(red_secs),
            map_tasks: maps,
            reduce_tasks: reds,
        }
    }

    fn plan(jobs: Vec<ReplayJob>) -> ReplayPlan {
        ReplayPlan {
            name: "test".into(),
            machines: 2,
            jobs,
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        // 2 maps × 10 s each (20 slot-seconds), then 1 reduce × 5 s.
        let p = plan(vec![replay_job(0, 2, 20, 1, 5)]);
        let r = Simulator::new(SimConfig::new(2)).run(&p, None);
        assert_eq!(r.outcomes.len(), 1);
        let o = r.outcomes[0];
        assert_eq!(o.queue_delay(), Dur::ZERO);
        // 4 map slots available → both maps run in parallel (10 s), then
        // the reduce (5 s): latency 15 s.
        assert_eq!(o.latency(), Dur::from_secs(15));
        assert_eq!(r.makespan, Timestamp::from_secs(15));
    }

    #[test]
    fn slot_contention_serializes_tasks() {
        // 1 node → 2 map slots. 4 maps × 10 s: two waves → 20 s.
        let p = plan(vec![replay_job(0, 4, 40, 0, 0)]);
        let r = Simulator::new(SimConfig::new(1)).run(&p, None);
        assert_eq!(r.outcomes[0].latency(), Dur::from_secs(20));
    }

    #[test]
    fn fifo_head_of_line_blocks_small_job() {
        // Big job grabs both map slots for 100 s; small job submitted 1 s
        // later waits for a free slot.
        let p = plan(vec![replay_job(0, 2, 200, 0, 0), replay_job(1, 1, 1, 0, 0)]);
        let r = Simulator::new(SimConfig::new(1)).run(&p, None);
        let small = r.outcomes[1];
        assert!(
            small.queue_delay() >= Dur::from_secs(90),
            "queue delay {}",
            small.queue_delay()
        );
    }

    #[test]
    fn fair_scheduler_reduces_small_job_delay() {
        // Same contention, but the big job has many one-wave tasks; under
        // fair scheduling the small job gets a slot at the next wave
        // boundary instead of after the whole big job.
        let big = replay_job(0, 20, 400, 0, 0); // 20 tasks × 20 s
        let small = replay_job(1, 1, 1, 0, 0);
        let p = plan(vec![big, small]);
        let fifo = Simulator::new(SimConfig::new(1)).run(&p, None);
        let fair = Simulator::new(SimConfig::new(1).fair()).run(&p, None);
        assert!(
            fair.outcomes[1].latency() < fifo.outcomes[1].latency(),
            "fair {} vs fifo {}",
            fair.outcomes[1].latency(),
            fifo.outcomes[1].latency()
        );
    }

    #[test]
    fn reduces_wait_for_all_maps() {
        // 2 maps × 10 s on 4 slots (1 wave), 2 reduces × 10 s.
        let p = plan(vec![replay_job(0, 2, 20, 2, 20)]);
        let r = Simulator::new(SimConfig::new(2)).run(&p, None);
        // Maps finish at 10, reduces at 20.
        assert_eq!(r.outcomes[0].latency(), Dur::from_secs(20));
    }

    #[test]
    fn utilization_reflects_busy_slots() {
        let p = plan(vec![replay_job(0, 2, 7200, 0, 0)]); // 2 maps × 1 hr
        let r = Simulator::new(SimConfig::new(1)).run(&p, None);
        assert!(!r.hourly_utilization.is_empty());
        // Both slots busy through the first hour.
        assert!((r.hourly_utilization[0] - 2.0).abs() < 0.01);
    }

    #[test]
    fn cache_hits_on_shared_input() {
        let p = plan(vec![replay_job(0, 1, 1, 0, 0), replay_job(5, 1, 1, 0, 0)]);
        let shared = [PathId(7), PathId(7)];
        let sim =
            Simulator::new(SimConfig::new(2).with_cache(CachePolicy::Lru, DataSize::from_gb(1)));
        let r = sim.run(&p, Some(&shared));
        let stats = r.cache.unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn private_inputs_never_hit() {
        let p = plan(vec![replay_job(0, 1, 1, 0, 0), replay_job(5, 1, 1, 0, 0)]);
        let sim =
            Simulator::new(SimConfig::new(2).with_cache(CachePolicy::Lru, DataSize::from_gb(1)));
        let r = sim.run(&p, None);
        assert_eq!(r.cache.unwrap().hits, 0);
    }

    #[test]
    fn queued_job_does_not_warm_cache_before_launch() {
        // Three distinct 64 MB inputs, LRU capacity for two. The blocker
        // holds both map slots until t = 100; jobs 1 and 2 queue behind
        // it. Their inputs must enter the cache at *launch* (t = 100),
        // not at submission (t = 1, t = 2): the blocker's input, read at
        // t = 0, must be the LRU victim of the single eviction.
        let p = plan(vec![
            replay_job(0, 2, 200, 0, 0), // blocker: both slots until t=100
            replay_job(1, 1, 1, 0, 0),   // queued; launches at t=100
            replay_job(1, 1, 1, 0, 0),   // queued; launches at t=100
        ]);
        let paths = [PathId(10), PathId(11), PathId(12)];
        let cap = DataSize::from_mb(140); // fits 2 × 64 MB inputs, not 3
        let sim = Simulator::new(SimConfig::new(1).with_cache(CachePolicy::Lru, cap));
        let r = sim.run(&p, Some(&paths));
        let stats = r.cache.unwrap();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        for o in &r.outcomes[1..] {
            assert!(
                o.first_start >= Timestamp::from_secs(100),
                "queued job started at {}",
                o.first_start
            );
        }
    }

    #[test]
    fn long_queue_delay_changes_lru_eviction_order() {
        // One-entry LRU cache; 1 node (2 map + 2 reduce slots).
        //
        //   t=0   blocker B (2 maps × 100 s, path 9) launches on both
        //         map slots, reads path 9 → cache {9}.
        //   t=5   Q (1 map × 1 s, path 7) submits; both map slots busy →
        //         queued until t=100.
        //   t=10  W (map-less: 1 reduce × 1 s, path 9) submits; reduce
        //         slots are free → launches immediately and re-reads
        //         path 9.
        //
        // Fixed engine (read at first launch): Q has not touched the
        // cache at t=10, so W's read of path 9 HITS — 1 hit, 2 misses.
        //
        // Buggy warm-at-submit engine: Q's submission at t=5 read path 7
        // and evicted path 9 from the one-entry cache while Q sat in the
        // queue, so W's read at t=10 missed — 0 hits, 3 misses. A queued
        // job must not be able to change the LRU eviction order before
        // it runs.
        let mut blocker = replay_job(0, 2, 200, 0, 0);
        blocker.input = DataSize::from_mb(64);
        let queued = replay_job(5, 1, 1, 0, 0);
        let warm_reuser = replay_job(5, 0, 0, 1, 1);
        let p = plan(vec![blocker, queued, warm_reuser]);
        let paths = [PathId(9), PathId(7), PathId(9)];
        let cap = DataSize::from_mb(100); // exactly one 64 MB entry
        let sim = Simulator::new(SimConfig::new(1).with_cache(CachePolicy::Lru, cap));
        let r = sim.run(&p, Some(&paths));
        let stats = r.cache.unwrap();
        assert_eq!(stats.hits, 1, "W must hit the still-warm path 9");
        assert_eq!(stats.misses, 2);
        // Q really was delayed past W's run.
        assert!(r.outcomes[1].first_start >= Timestamp::from_secs(100));
        assert_eq!(r.outcomes[2].first_start, Timestamp::from_secs(10));
    }

    #[test]
    fn batching_caps_event_count_preserving_slot_seconds() {
        let b = batch_tasks(1_000_000, Dur::from_secs(2_000_000), 1_000);
        assert_eq!(b.count, 1_000);
        assert_eq!(b.base, Dur::from_secs(2_000)); // 1000 × 2000 = 2 M slot-secs
        assert_eq!(b.long, 0);
        assert_eq!(b.total(), 2_000_000);
        let b0 = batch_tasks(0, Dur::from_secs(10), 1_000);
        assert_eq!(b0, TaskBatch::EMPTY);
    }

    #[test]
    fn batching_distributes_remainder_exactly() {
        // The adversarial case from the issue: 3 tasks / 10 s. The old
        // engine gave every task ceil(10/3) = 4 s → 12 slot-seconds, a
        // 20 % inflation. The fix: one task of 4 s (3+1 remainder
        // second), two of 3 s → exactly 10.
        let b = batch_tasks(3, Dur::from_secs(10), 1_000);
        assert_eq!((b.count, b.base, b.long), (3, Dur::from_secs(3), 1));
        assert_eq!(b.total(), 10);
        // Exactness holds for every (tasks, total) combination.
        for tasks in 1..=64u32 {
            for total in 0..=130u64 {
                let b = batch_tasks(tasks, Dur::from_secs(total), 1_000);
                assert_eq!(b.total(), total, "tasks={tasks} total={total}");
                assert!(b.long < b.count.max(1) || (b.long == 0 && total == 0));
            }
        }
        // And under the batching cap.
        for cap in [1u32, 2, 3, 7, 100] {
            let b = batch_tasks(1_000, Dur::from_secs(12_345), cap);
            assert_eq!(b.count, cap);
            assert_eq!(b.total(), 12_345, "cap={cap}");
        }
    }

    #[test]
    fn simulated_slot_seconds_match_plan_exactly() {
        // End-to-end exactness: the utilization integral equals the
        // plan's total task-time bit-for-bit, including under batching
        // and contention.
        let p = plan(vec![
            replay_job(0, 3, 10, 2, 7),      // remainder-heavy
            replay_job(5, 7, 13, 0, 0),      // 13/7: base 1, long 6
            replay_job(1, 2000, 999, 3, 11), // batched above the cap
        ]);
        let total: u64 = p
            .jobs
            .iter()
            .map(|j| j.map_task_time.secs() + j.reduce_task_time.secs())
            .sum();
        let mut cfg = SimConfig::new(1);
        cfg.max_tasks_per_job = 50;
        let r = Simulator::new(cfg).run(&p, None);
        assert_eq!(r.slot_seconds, total as f64, "slot-second inflation");
    }

    #[test]
    fn wave_events_are_fewer_than_tasks() {
        // 600 tasks on 4 slots: the per-task engine would push 600
        // finish events; waves push ~2 per dispatch round.
        let p = plan(vec![replay_job(0, 600, 6_000, 0, 0)]);
        let r = Simulator::new(SimConfig::new(2)).run(&p, None);
        assert_eq!(r.outcomes[0].latency(), Dur::from_secs(1_500)); // 150 waves × 10 s
        assert!(
            r.events <= 1 + 2 * 150,
            "expected O(waves) events, got {}",
            r.events
        );
    }

    #[test]
    fn empty_plan_yields_empty_result() {
        let p = plan(vec![]);
        let r = Simulator::new(SimConfig::new(1)).run(&p, None);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.makespan, Timestamp::ZERO);
        assert_eq!(r.events, 0);
    }

    #[test]
    fn zero_duration_tasks_complete_without_inflation() {
        // tasks with a zero task-time budget must not be rounded up to
        // 1 s each (the old engine's `.max(1.0)`).
        let p = plan(vec![replay_job(0, 4, 0, 0, 0)]);
        let r = Simulator::new(SimConfig::new(1)).run(&p, None);
        assert_eq!(r.outcomes[0].latency(), Dur::ZERO);
        assert_eq!(r.slot_seconds, 0.0);
    }

    #[test]
    fn metrics_summaries() {
        let p = plan(vec![replay_job(0, 1, 10, 0, 0), replay_job(0, 1, 10, 0, 0)]);
        let r = Simulator::new(SimConfig::new(2)).run(&p, None);
        assert!(r.median_latency() >= 10.0);
        assert!(r.latency_percentile(1.0) >= r.latency_percentile(0.5));
        assert!(r.mean_queue_delay() >= 0.0);
    }

    #[test]
    fn percentiles_nearest_rank_edge_cases() {
        let mk = |lats: &[u64]| SimResult {
            outcomes: lats
                .iter()
                .enumerate()
                .map(|(i, &l)| JobOutcome {
                    job: i,
                    submit: Timestamp::ZERO,
                    first_start: Timestamp::ZERO,
                    finish: Timestamp::from_secs(l),
                })
                .collect(),
            hourly_utilization: vec![],
            cache: None,
            makespan: Timestamp::ZERO,
            events: 0,
            slot_seconds: 0.0,
        };
        // len 1: every percentile is the single element.
        let one = mk(&[42]);
        assert_eq!(one.latency_percentile(0.0), 42.0);
        assert_eq!(one.latency_percentile(0.5), 42.0);
        assert_eq!(one.latency_percentile(1.0), 42.0);
        assert_eq!(one.median_latency(), 42.0);
        // len 2: nearest-rank median is the LOWER median, and
        // median_latency must agree with latency_percentile(0.5).
        let two = mk(&[10, 20]);
        assert_eq!(two.median_latency(), 10.0);
        assert_eq!(two.median_latency(), two.latency_percentile(0.5));
        assert_eq!(two.latency_percentile(0.0), 10.0);
        assert_eq!(two.latency_percentile(1.0), 20.0);
        // p clamped outside [0,1].
        assert_eq!(two.latency_percentile(-3.0), 10.0);
        assert_eq!(two.latency_percentile(7.0), 20.0);
        // Empty result: all zeros.
        let empty = mk(&[]);
        assert_eq!(empty.median_latency(), 0.0);
        assert_eq!(empty.latency_percentile(0.9), 0.0);
    }
}
