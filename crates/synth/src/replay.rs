//! Replay plans: the executable form of a synthesized workload.
//!
//! SWIM replays a workload as a stream of synthetic MapReduce jobs, each
//! characterized by an inter-arrival gap and input/shuffle/output byte
//! targets. The replay driver (here `swim-sim`; on a real deployment, the
//! SWIM Hadoop scripts) launches one generic job per entry, reading and
//! writing padding data of the specified sizes.

use swim_trace::{DataSize, Dur, PathId, Timestamp, Trace};

/// One job of a replay plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayJob {
    /// Gap since the previous job's submission (first job: gap from t=0).
    pub gap: Dur,
    /// The file the job reads: the first of its trace job's input paths.
    /// `None` when the trace names no input path; the job then reads a
    /// file of its own, which no other job of the plan reads and no
    /// [`PathId`] names, so a cache replay counts its read as a cold miss.
    /// The bundle JSON `swim-analyze --bundle` writes does not carry it.
    pub input_file: Option<PathId>,
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
    /// each job's input file, byte targets and task shapes copied per job.
    pub fn from_trace(trace: &Trace) -> ReplayPlan {
        let mut jobs = Vec::with_capacity(trace.len());
        let mut prev = Timestamp::ZERO;
        for job in trace.jobs() {
            jobs.push(ReplayJob {
                gap: job.submit.since(prev),
                input_file: job.input_paths.first().copied(),
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

    /// Total wall-clock span of the submission schedule.
    pub fn schedule_length(&self) -> Dur {
        self.jobs.iter().map(|j| j.gap).sum()
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
                .input_paths(vec![PathId(4), PathId(9)])
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
        let second = Timestamp::ZERO + plan.jobs[0].gap + plan.jobs[1].gap;
        assert_eq!(second, Timestamp::from_secs(160));
    }

    #[test]
    fn a_job_reads_its_first_input_path_or_a_file_of_its_own() {
        let plan = ReplayPlan::from_trace(&trace());
        assert_eq!(plan.jobs[0].input_file, None);
        assert_eq!(plan.jobs[1].input_file, Some(PathId(4)));
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
}
