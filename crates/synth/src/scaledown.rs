//! Scale-down: rescale a workload from its production cluster to a target
//! cluster size.
//!
//! §7 ("Scaled-down workloads") notes there are many candidate
//! normalizations — data size, number of jobs, or processing-per-data
//! against nodes, CPU, or memory. SWIM's published tooling scales *data
//! size proportionally to the number of nodes* while keeping the job
//! count and arrival pattern intact; that is the one rule here.

use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;

/// Scale a trace down (or up) to `target_machines`, in place: every
/// job's bytes shrink (or grow) by the node ratio where they lie, so the
/// trace is never held twice; the job count and arrivals are kept.
///
/// Task *times* are preserved: the paper's replay methodology reproduces
/// per-job data patterns and lets the target cluster determine execution
/// times; shrinking slot-seconds would double-count the smaller cluster.
pub fn scale_trace(trace: Trace, target_machines: u32) -> Trace {
    assert!(target_machines > 0, "target cluster must be non-empty");
    let ratio = target_machines as f64 / trace.machines.max(1) as f64;
    let kind = WorkloadKind::Custom(format!("{}@{}nodes", trace.kind, target_machines));
    let mut jobs = trace.into_jobs();
    for job in &mut jobs {
        job.input = job.input.scale(ratio);
        job.shuffle = job.shuffle.scale(ratio);
        job.output = job.output.scale(ratio);
    }
    Trace::new_unchecked(kind, target_machines, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp};

    fn trace_with(machines: u32, n: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 100))
                    .duration(Dur::from_secs(60))
                    .input(DataSize::from_gb(10))
                    .shuffle(DataSize::from_gb(4))
                    .output(DataSize::from_gb(2))
                    .map_task_time(Dur::from_secs(500))
                    .reduce_task_time(Dur::from_secs(300))
                    .tasks(10, 2)
                    .build()
                    .unwrap()
            })
            .collect();
        Trace::new(WorkloadKind::Fb2009, machines, jobs).unwrap()
    }

    #[test]
    fn data_mode_scales_bytes_keeps_jobs() {
        let src = trace_with(600, 100);
        let out = scale_trace(src, 60);
        assert_eq!(out.len(), 100);
        assert_eq!(out.machines, 60);
        let j = &out.jobs()[0];
        assert_eq!(j.input, DataSize::from_gb(1));
        assert_eq!(j.shuffle, DataSize::from_mb(400));
        // Task times untouched.
        assert_eq!(j.map_task_time, Dur::from_secs(500));
    }

    #[test]
    fn upscaling_grows_bytes() {
        let src = trace_with(100, 10);
        let out = scale_trace(src, 200);
        assert_eq!(out.jobs()[0].input, DataSize::from_gb(20));
    }

    #[test]
    fn bytes_moved_shrinks_by_ratio() {
        let src = trace_with(600, 50);
        let out = scale_trace(src.clone(), 60);
        let ratio = out.bytes_moved().as_f64() / src.bytes_moved().as_f64();
        assert!((ratio - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "target cluster must be non-empty")]
    fn zero_target_rejected() {
        scale_trace(trace_with(10, 1), 0);
    }
}
