//! The per-task reference engine: the pre-wave execution model, kept
//! (test builds only) as the wave engine's parity oracle.
//!
//! This is the O(runnable-jobs × events) design the wave-scheduled
//! engine replaced: one heap event per **task** and a full scan of every
//! runnable job per event. Task durations use the same exact
//! remainder-distribution as the wave engine (no ceil inflation) and
//! inputs are read at first launch, so for FIFO plans the two engines
//! are held to bit-for-bit identical [`SimResult`]s by the parity tests
//! below — only the event count differs.

#![cfg(test)]

use crate::cluster::SlotPool;
use crate::engine::{materialize_jobs, maybe_finish, JobState, SimConfig, SimResult, Storage};
use crate::event::{Event, EventQueue};
use crate::metrics::{JobOutcome, UtilizationTracker};
use crate::replay::ReplayPlan;
use crate::scheduler::SchedulerKind;
use std::collections::VecDeque;
use swim_trace::{Dur, Timestamp};

/// Execute `plan` with per-task events and full-scan dispatch.
///
/// Semantically equivalent to [`crate::Simulator::run`] (exact
/// slot-seconds, read-at-first-launch); asymptotically worse: the event
/// heap carries one entry per task and every event rescans all runnable
/// jobs.
pub fn run_per_task(config: &SimConfig, plan: &ReplayPlan) -> SimResult {
    let mut storage = Storage::of(config);
    let mut slots = SlotPool::new(config.nodes);
    let mut queue = EventQueue::new();
    let mut util = UtilizationTracker::new();
    // The old engine's runnable set: every submitted-but-unfinished job,
    // scanned in full on every event.
    let mut runnable: VecDeque<usize> = VecDeque::new();

    let mut jobs = materialize_jobs(plan);
    for (i, js) in jobs.iter().enumerate() {
        queue.push(js.submit, Event::JobSubmit { job: i });
    }

    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(plan.len());
    let mut now = Timestamp::ZERO;
    let mut events: u64 = 0;

    while let Some((at, event)) = queue.pop() {
        now = at;
        events += 1;
        match event {
            Event::JobSubmit { job } => {
                if jobs[job].pending_map > 0 || jobs[job].pending_reduce > 0 {
                    runnable.push_back(job);
                } else {
                    maybe_finish(job, &mut jobs, &mut storage, &mut outcomes, now);
                }
            }
            Event::WaveFinish { job, is_map, count } => {
                debug_assert_eq!(count, 1, "reference engine is strictly per-task");
                let js = &mut jobs[job];
                if is_map {
                    js.running_map -= 1;
                    slots.release_map_n(1);
                } else {
                    js.running_reduce -= 1;
                    slots.release_reduce_n(1);
                }
                maybe_finish(job, &mut jobs, &mut storage, &mut outcomes, now);
                if jobs[job].done {
                    runnable.retain(|&j| j != job);
                }
            }
        }
        dispatch(
            config,
            &mut jobs,
            &mut runnable,
            &mut slots,
            &mut queue,
            &mut storage,
            now,
        );
        util.record(now, slots.busy_total());
    }

    outcomes.sort_by_key(|o| o.job);
    SimResult {
        hourly_utilization: util.hourly_average_slots(),
        cache: storage.as_ref().map(Storage::stats),
        makespan: now,
        events,
        slot_seconds: util.total_slot_seconds(),
        outcomes,
    }
}

/// The old engine's dispatch: a full candidate scan per event, one heap
/// event pushed per granted task.
fn dispatch(
    config: &SimConfig,
    jobs: &mut [JobState],
    runnable: &mut VecDeque<usize>,
    slots: &mut SlotPool,
    queue: &mut EventQueue,
    storage: &mut Option<Storage>,
    now: Timestamp,
) {
    loop {
        let mut granted_any = false;
        let candidates: Vec<usize> = runnable.iter().copied().collect();
        for job in candidates {
            let per_round = match config.scheduler {
                SchedulerKind::Fifo => u32::MAX,
                SchedulerKind::Fair => 1,
            };
            let js = &mut jobs[job];
            if js.pending_map > 0 {
                let want = js.pending_map.min(per_round);
                let got = slots.take_map(want);
                if got > 0 {
                    js.first_start.get_or_insert(now);
                    js.ensure_input_read(storage, now);
                    for _ in 0..got {
                        js.pending_map -= 1;
                        js.running_map += 1;
                        let dur = if js.long_map > 0 {
                            js.long_map -= 1;
                            js.map_base + Dur::from_secs(1)
                        } else {
                            js.map_base
                        };
                        queue.push(
                            now + dur,
                            Event::WaveFinish {
                                job,
                                is_map: true,
                                count: 1,
                            },
                        );
                    }
                    granted_any = true;
                }
            } else if js.running_map == 0 && js.pending_reduce > 0 {
                // Reduces only after all maps complete.
                let want = js.pending_reduce.min(per_round);
                let got = slots.take_reduce(want);
                if got > 0 {
                    js.first_start.get_or_insert(now);
                    js.ensure_input_read(storage, now);
                    for _ in 0..got {
                        js.pending_reduce -= 1;
                        js.running_reduce += 1;
                        let dur = if js.long_reduce > 0 {
                            js.long_reduce -= 1;
                            js.reduce_base + Dur::from_secs(1)
                        } else {
                            js.reduce_base
                        };
                        queue.push(
                            now + dur,
                            Event::WaveFinish {
                                job,
                                is_map: false,
                                count: 1,
                            },
                        );
                    }
                    granted_any = true;
                }
            }
        }
        // Fair-share rotation, as in the old engine.
        if config.scheduler == SchedulerKind::Fair {
            if let Some(head) = runnable.pop_front() {
                runnable.push_back(head);
            }
        }
        if !granted_any || config.scheduler == SchedulerKind::Fifo {
            break;
        }
    }
}

#[path = "../tests/support/seeded.rs"]
mod seeded;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayJob;
    use crate::Simulator;
    use seeded::{seeded_plan, GOLDEN_FIFO_LATENCIES};
    use swim_trace::DataSize;

    fn job(gap: u64, maps: u32, map_secs: u64, reds: u32, red_secs: u64) -> ReplayJob {
        ReplayJob {
            gap: Dur::from_secs(gap),
            input_file: None,
            input: DataSize::from_mb(64),
            shuffle: DataSize::ZERO,
            output: DataSize::from_mb(8),
            map_task_time: Dur::from_secs(map_secs),
            reduce_task_time: Dur::from_secs(red_secs),
            map_tasks: maps,
            reduce_tasks: reds,
        }
    }

    fn plan(jobs: Vec<ReplayJob>) -> ReplayPlan {
        ReplayPlan {
            name: "ref".into(),
            machines: 2,
            jobs,
        }
    }

    #[test]
    fn per_task_reference_reproduces_the_same_goldens() {
        let plan = seeded_plan(2012, 200, true);
        let r = run_per_task(&SimConfig::new(4), &plan);
        let lats: Vec<u64> = r.outcomes.iter().map(|o| o.latency().secs()).collect();
        assert_eq!(lats, GOLDEN_FIFO_LATENCIES);
    }

    #[test]
    fn fifo_wave_and_per_task_engines_agree_on_remainder_heavy_plans() {
        for seed in [1u64, 7, 42, 1234] {
            let plan = seeded_plan(seed, 120, false);
            let cfg = SimConfig::new(3);
            let wave = Simulator::new(cfg).run(&plan);
            let per_task = run_per_task(&cfg, &plan);
            assert_eq!(wave.outcomes, per_task.outcomes, "seed {seed}");
            assert_eq!(wave.makespan, per_task.makespan, "seed {seed}");
            assert_eq!(wave.slot_seconds, per_task.slot_seconds, "seed {seed}");
            assert!(
                wave.events < per_task.events,
                "seed {seed}: wave engine must push fewer events ({} vs {})",
                wave.events,
                per_task.events
            );
        }
    }

    #[test]
    fn per_task_engine_pushes_one_event_per_task() {
        // 10 maps + 2 reduces + 1 submission = 13 events.
        let p = plan(vec![job(0, 10, 100, 2, 20)]);
        let r = run_per_task(&SimConfig::new(2), &p);
        assert_eq!(r.events, 13);
    }

    #[test]
    fn fifo_parity_with_wave_engine_on_remainder_heavy_plan() {
        // Non-divisible task times exercise the remainder distribution in
        // both engines.
        let p = plan(vec![
            job(0, 3, 10, 2, 7),
            job(2, 7, 13, 0, 0),
            job(0, 5, 23, 4, 9),
            job(11, 1, 1, 1, 1),
        ]);
        let cfg = SimConfig::new(1);
        let wave = Simulator::new(cfg).run(&p);
        let per_task = run_per_task(&cfg, &p);
        assert_eq!(wave.outcomes, per_task.outcomes);
        assert_eq!(wave.makespan, per_task.makespan);
        assert_eq!(wave.slot_seconds, per_task.slot_seconds);
        assert_eq!(wave.hourly_utilization, per_task.hourly_utilization);
        assert!(wave.events <= per_task.events);
    }
}
