//! HDFS pre-population plans.
//!
//! Before replaying, SWIM writes synthetic input data into HDFS, "scaled
//! to the number of nodes in the cluster" (§7). A [`DataGenPlan`]
//! enumerates the files to create — count, sizes, and total volume — so a
//! replay driver can materialize them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swim_trace::{DataSize, PathId, Trace};

/// One file to pre-create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFile {
    /// Path id the replay jobs will reference.
    pub path: PathId,
    /// File size.
    pub size: DataSize,
}

/// A complete pre-population plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataGenPlan {
    /// Files to create before replay starts.
    pub files: Vec<PlannedFile>,
    /// HDFS block size the plan assumes (affects file/block counts on a
    /// real cluster; informational for the simulator).
    pub block_size: DataSize,
}

impl DataGenPlan {
    /// Build a plan covering every distinct input path in the trace. Jobs
    /// without path information contribute one synthetic file each (their
    /// input has to exist *somewhere*); the original SWIM tool likewise
    /// fabricates uniform input sets when path data is absent.
    pub fn from_trace(trace: &Trace, block_size: DataSize) -> DataGenPlan {
        let mut seen: std::collections::HashMap<PathId, DataSize> = Default::default();
        let mut synthetic: Vec<PlannedFile> = Vec::new();
        // Synthetic ids start above the largest real id to avoid collision.
        let mut next_synthetic = trace
            .jobs()
            .iter()
            .flat_map(|j| j.input_paths.iter().chain(&j.output_paths))
            .map(|p| p.0 + 1)
            .max()
            .unwrap_or(0);
        let _rng = StdRng::seed_from_u64(0); // reserved for future size jitter
        for job in trace.jobs() {
            if job.input_paths.is_empty() {
                if !job.input.is_zero() {
                    synthetic.push(PlannedFile {
                        path: PathId(next_synthetic),
                        size: job.input,
                    });
                    next_synthetic += 1;
                }
            } else {
                for &p in &job.input_paths {
                    seen.entry(p).or_insert(job.input);
                }
            }
        }
        let mut files: Vec<PlannedFile> = seen
            .into_iter()
            .map(|(path, size)| PlannedFile { path, size })
            .collect();
        files.extend(synthetic);
        files.sort_by_key(|f| f.path);
        DataGenPlan { files, block_size }
    }

    /// Number of files to create.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total bytes to write.
    pub fn total_bytes(&self) -> DataSize {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Total HDFS blocks the plan occupies (each file rounds up).
    pub fn total_blocks(&self) -> u64 {
        let bs = self.block_size.bytes().max(1);
        self.files
            .iter()
            .map(|f| f.size.bytes().div_ceil(bs).max(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{Dur, JobBuilder, Timestamp};

    fn job(id: u64, input_mb: u64, paths: Vec<u64>) -> swim_trace::Job {
        JobBuilder::new(id)
            .submit(Timestamp::from_secs(id))
            .duration(Dur::from_secs(1))
            .input(DataSize::from_mb(input_mb))
            .map_task_time(Dur::from_secs(1))
            .tasks(1, 0)
            .input_paths(paths.into_iter().map(PathId).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn distinct_paths_planned_once() {
        let t = Trace::new(
            WorkloadKind::Custom("d".into()),
            1,
            vec![job(0, 10, vec![1]), job(1, 20, vec![1, 2])],
        )
        .unwrap();
        let plan = DataGenPlan::from_trace(&t, DataSize::from_mb(128));
        assert_eq!(plan.file_count(), 2);
        // First touch fixes the size: path 1 seen first with 10 MB.
        let f1 = plan.files.iter().find(|f| f.path == PathId(1)).unwrap();
        assert_eq!(f1.size, DataSize::from_mb(10));
    }

    #[test]
    fn pathless_jobs_get_synthetic_files() {
        let t = Trace::new(
            WorkloadKind::Custom("d".into()),
            1,
            vec![job(0, 10, vec![]), job(1, 20, vec![])],
        )
        .unwrap();
        let plan = DataGenPlan::from_trace(&t, DataSize::from_mb(128));
        assert_eq!(plan.file_count(), 2);
        assert_eq!(plan.total_bytes(), DataSize::from_mb(30));
    }

    #[test]
    fn synthetic_ids_do_not_collide_with_real_ones() {
        let t = Trace::new(
            WorkloadKind::Custom("d".into()),
            1,
            vec![job(0, 10, vec![5]), job(1, 20, vec![])],
        )
        .unwrap();
        let plan = DataGenPlan::from_trace(&t, DataSize::from_mb(128));
        let ids: Vec<u64> = plan.files.iter().map(|f| f.path.0).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&5));
        assert!(ids.iter().all(|&i| i >= 5));
    }

    #[test]
    fn block_counting_rounds_up() {
        let t = Trace::new(
            WorkloadKind::Custom("d".into()),
            1,
            vec![job(0, 200, vec![1])],
        )
        .unwrap();
        let plan = DataGenPlan::from_trace(&t, DataSize::from_mb(128));
        assert_eq!(plan.total_blocks(), 2); // 200 MB over 128 MB blocks
    }

    #[test]
    fn zero_input_pathless_jobs_skipped() {
        let t = Trace::new(WorkloadKind::Custom("d".into()), 1, vec![job(0, 0, vec![])]).unwrap();
        let plan = DataGenPlan::from_trace(&t, DataSize::from_mb(128));
        assert_eq!(plan.file_count(), 0);
    }
}
