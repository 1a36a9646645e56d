//! Scale-down: rescale a workload from its production cluster to a target
//! cluster size.
//!
//! §7 ("Scaled-down workloads") notes there are many candidate
//! normalizations — data size, number of jobs, or processing-per-data
//! against nodes, CPU, or memory. SWIM's published tooling scales *data
//! size proportionally to the number of nodes* while keeping the job
//! count and arrival pattern intact; that is the default here, with the
//! alternative (thinning the job stream) available for ablation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swim_trace::trace::WorkloadKind;
use swim_trace::{JobId, Trace};

/// Which quantity absorbs the scale-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleMode {
    /// Shrink every job's bytes by the node ratio (SWIM default; keeps
    /// the arrival process and job count intact).
    DataSize,
    /// Keep per-job bytes; thin the job stream by the node ratio
    /// (each job survives with probability = ratio).
    JobCount,
}

/// Scale-down parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Target cluster size in machines.
    pub target_machines: u32,
    /// What to scale.
    pub mode: ScaleMode,
    /// Seed for job-thinning mode.
    pub seed: u64,
}

/// Scale a trace down (or up) to `config.target_machines`, in place:
/// the jobs are rescaled (or, for [`ScaleMode::JobCount`], thinned and
/// renumbered) where they lie, so the trace is never held twice.
///
/// Task *times* are preserved: the paper's replay methodology reproduces
/// per-job data patterns and lets the target cluster determine execution
/// times; shrinking slot-seconds would double-count the smaller cluster.
pub fn scale_trace(trace: Trace, config: ScaleConfig) -> Trace {
    assert!(
        config.target_machines > 0,
        "target cluster must be non-empty"
    );
    let ratio = config.target_machines as f64 / trace.machines.max(1) as f64;
    let kind = WorkloadKind::Custom(format!("{}@{}nodes", trace.kind, config.target_machines));
    let mut jobs = trace.into_jobs();
    match config.mode {
        ScaleMode::DataSize => {
            for job in &mut jobs {
                job.input = job.input.scale(ratio);
                job.shuffle = job.shuffle.scale(ratio);
                job.output = job.output.scale(ratio);
            }
        }
        ScaleMode::JobCount => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            jobs.retain(|_| rng.random::<f64>() < ratio.min(1.0));
            for (id, job) in jobs.iter_mut().enumerate() {
                job.id = JobId(id as u64);
            }
        }
    }
    Trace::new_unchecked(kind, config.target_machines, jobs)
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
        let out = scale_trace(
            src,
            ScaleConfig {
                target_machines: 60,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
        assert_eq!(out.len(), 100);
        assert_eq!(out.machines, 60);
        let j = &out.jobs()[0];
        assert_eq!(j.input, DataSize::from_gb(1));
        assert_eq!(j.shuffle, DataSize::from_mb(400));
        // Task times untouched.
        assert_eq!(j.map_task_time, Dur::from_secs(500));
    }

    #[test]
    fn job_mode_thins_stream_keeps_bytes() {
        let src = trace_with(600, 2_000);
        let out = scale_trace(
            src.clone(),
            ScaleConfig {
                target_machines: 60,
                mode: ScaleMode::JobCount,
                seed: 4,
            },
        );
        let frac = out.len() as f64 / src.len() as f64;
        assert!((frac - 0.1).abs() < 0.03, "kept {frac}");
        assert_eq!(out.jobs()[0].input, DataSize::from_gb(10));
    }

    #[test]
    fn upscaling_grows_bytes() {
        let src = trace_with(100, 10);
        let out = scale_trace(
            src,
            ScaleConfig {
                target_machines: 200,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
        assert_eq!(out.jobs()[0].input, DataSize::from_gb(20));
    }

    #[test]
    fn job_mode_reassigns_dense_ids() {
        let src = trace_with(600, 500);
        let out = scale_trace(
            src,
            ScaleConfig {
                target_machines: 300,
                mode: ScaleMode::JobCount,
                seed: 1,
            },
        );
        let ids: Vec<u64> = out.jobs().iter().map(|j| j.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..out.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn bytes_moved_shrinks_by_ratio() {
        let src = trace_with(600, 50);
        let out = scale_trace(
            src.clone(),
            ScaleConfig {
                target_machines: 60,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
        let ratio = out.bytes_moved().as_f64() / src.bytes_moved().as_f64();
        assert!((ratio - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "target cluster must be non-empty")]
    fn zero_target_rejected() {
        scale_trace(
            trace_with(10, 1),
            ScaleConfig {
                target_machines: 0,
                mode: ScaleMode::DataSize,
                seed: 0,
            },
        );
    }
}
