//! Replay plans: the executable form of a synthesized workload.
//!
//! SWIM replays a workload as a stream of synthetic MapReduce jobs, each
//! characterized by an inter-arrival gap and input/shuffle/output byte
//! targets. The replay driver (here `swim-sim`; on a real deployment, the
//! SWIM Hadoop scripts) launches one generic job per entry, reading and
//! writing padding data of the specified sizes.

use swim_trace::{DataSize, Dur, Timestamp, Trace};

/// One job of a replay plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayJob {
    /// Gap since the previous job's submission (first job: gap from t=0).
    pub gap: Dur,
    /// Bytes the synthetic job must read.
    pub input: DataSize,
    /// Bytes it must shuffle.
    pub shuffle: DataSize,
    /// Bytes it must write.
    pub output: DataSize,
    /// Map task-time budget (slot-seconds) for simulators that model
    /// compute cost; real replays derive this from data size.
    pub map_task_time: Dur,
    /// Reduce task-time budget.
    pub reduce_task_time: Dur,
    /// Map task count.
    pub map_tasks: u32,
    /// Reduce task count.
    pub reduce_tasks: u32,
}

/// A complete replay plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayPlan {
    /// Descriptive name (source workload + transforms applied).
    pub name: String,
    /// Target cluster size the plan was scaled for.
    pub machines: u32,
    /// The job stream, in submission order.
    pub jobs: Vec<ReplayJob>,
}

impl ReplayPlan {
    /// Derive a replay plan from a trace: gaps between successive submits,
    /// byte targets and task shapes copied per job.
    pub fn from_trace(trace: &Trace) -> ReplayPlan {
        let mut jobs = Vec::with_capacity(trace.len());
        let mut prev = Timestamp::ZERO;
        for job in trace.jobs() {
            jobs.push(ReplayJob {
                gap: job.submit.since(prev),
                input: job.input,
                shuffle: job.shuffle,
                output: job.output,
                map_task_time: job.map_task_time,
                reduce_task_time: job.reduce_task_time,
                map_tasks: job.map_tasks,
                reduce_tasks: job.reduce_tasks,
            });
            prev = job.submit;
        }
        ReplayPlan {
            name: format!("{}-replay", trace.kind),
            machines: trace.machines,
            jobs,
        }
    }

    /// Number of jobs in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` iff the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total bytes the replay will move.
    pub fn total_bytes(&self) -> DataSize {
        self.jobs
            .iter()
            .map(|j| j.input + j.shuffle + j.output)
            .sum()
    }

    /// Total task count (maps + reduces) across the plan.
    pub fn total_tasks(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.map_tasks as u64 + j.reduce_tasks as u64)
            .sum()
    }

    /// Total task-time (slot-seconds) across the plan — the quantity a
    /// replay must preserve exactly (the simulator's `slot_seconds`
    /// equals this bit-for-bit).
    pub fn total_task_time(&self) -> Dur {
        self.jobs
            .iter()
            .map(|j| j.map_task_time + j.reduce_task_time)
            .sum()
    }

    /// Tile the job stream `times` times end to end, preserving gaps (the
    /// first job of each repetition follows the last job of the previous
    /// one by its own gap). SWIM's knob for stretching a sampled day into
    /// a multi-day soak, and the bench harness's way to build 50k-job
    /// plans from a synthesized base.
    pub fn repeat(&self, times: usize) -> ReplayPlan {
        let mut jobs = Vec::with_capacity(self.jobs.len() * times);
        for _ in 0..times {
            jobs.extend(self.jobs.iter().cloned());
        }
        ReplayPlan {
            name: format!("{}-rep{times}", self.name),
            machines: self.machines,
            jobs,
        }
    }

    /// Total wall-clock span of the submission schedule.
    pub fn schedule_length(&self) -> Dur {
        self.jobs.iter().map(|j| j.gap).sum()
    }

    /// Reconstruct absolute submit times from the gap encoding.
    pub fn submit_times(&self) -> Vec<Timestamp> {
        let mut t = Timestamp::ZERO;
        self.jobs
            .iter()
            .map(|j| {
                t += j.gap;
                t
            })
            .collect()
    }

    /// Speed the schedule up (`factor` > 1) or slow it down (< 1) without
    /// touching data sizes — SWIM's knob for stress testing a cluster with
    /// the same job mix at higher intensity.
    pub fn accelerate(&self, factor: f64) -> ReplayPlan {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "factor must be positive"
        );
        ReplayPlan {
            name: format!("{}-x{factor:.2}", self.name),
            machines: self.machines,
            jobs: self
                .jobs
                .iter()
                .map(|j| ReplayJob {
                    gap: j.gap.scale(1.0 / factor),
                    ..j.clone()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::JobBuilder;

    fn trace() -> Trace {
        let jobs = vec![
            JobBuilder::new(0)
                .submit(Timestamp::from_secs(100))
                .duration(Dur::from_secs(10))
                .input(DataSize::from_mb(5))
                .map_task_time(Dur::from_secs(8))
                .tasks(1, 0)
                .build()
                .unwrap(),
            JobBuilder::new(1)
                .submit(Timestamp::from_secs(160))
                .duration(Dur::from_secs(10))
                .input(DataSize::from_mb(2))
                .shuffle(DataSize::from_mb(1))
                .output(DataSize::from_mb(3))
                .map_task_time(Dur::from_secs(4))
                .reduce_task_time(Dur::from_secs(4))
                .tasks(2, 1)
                .build()
                .unwrap(),
        ];
        Trace::new(WorkloadKind::CcB, 300, jobs).unwrap()
    }

    #[test]
    fn gaps_encode_submission_schedule() {
        let plan = ReplayPlan::from_trace(&trace());
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.jobs[0].gap, Dur::from_secs(100));
        assert_eq!(plan.jobs[1].gap, Dur::from_secs(60));
        let times = plan.submit_times();
        assert_eq!(times[0], Timestamp::from_secs(100));
        assert_eq!(times[1], Timestamp::from_secs(160));
    }

    #[test]
    fn totals_are_conserved() {
        let t = trace();
        let plan = ReplayPlan::from_trace(&t);
        assert_eq!(plan.total_bytes(), t.bytes_moved());
        assert_eq!(plan.schedule_length(), Dur::from_secs(160));
    }

    #[test]
    fn accelerate_shrinks_gaps_only() {
        let plan = ReplayPlan::from_trace(&trace()).accelerate(2.0);
        assert_eq!(plan.jobs[0].gap, Dur::from_secs(50));
        assert_eq!(plan.jobs[1].gap, Dur::from_secs(30));
        assert_eq!(plan.jobs[0].input, DataSize::from_mb(5));
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn accelerate_rejects_zero() {
        ReplayPlan::from_trace(&trace()).accelerate(0.0);
    }

    #[test]
    fn task_totals_sum_over_jobs() {
        let plan = ReplayPlan::from_trace(&trace());
        assert_eq!(plan.total_tasks(), 1 + 2 + 1);
        assert_eq!(plan.total_task_time(), Dur::from_secs(8 + 4 + 4));
    }

    #[test]
    fn repeat_tiles_schedule_and_preserves_totals() {
        let plan = ReplayPlan::from_trace(&trace());
        let tiled = plan.repeat(3);
        assert_eq!(tiled.len(), plan.len() * 3);
        assert_eq!(tiled.total_tasks(), plan.total_tasks() * 3);
        assert_eq!(
            tiled.schedule_length(),
            Dur::from_secs(plan.schedule_length().secs() * 3)
        );
        assert_eq!(tiled.machines, plan.machines);
        // Submissions keep strictly advancing across repetition joints.
        let times = tiled.submit_times();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.repeat(1).jobs, plan.jobs);
    }
}
