//! [`JobDraft`]: a sampled job as plain data, before anything is
//! allocated for it.
//!
//! The generator's per-job state machine emits drafts; a draft becomes a
//! [`Job`] through [`JobDraft::into_job`], the one place that renders the
//! name and builds the path vectors. A draft owns no heap memory, so a
//! block of drafts can be sampled on one thread and turned into jobs on
//! another without any per-job allocation being freed by a thread that
//! did not make it (glibc frees against the allocating thread's arena, so
//! whole `Job`s crossing threads cost more CPU than the hand-off saves).

use crate::naming::{name_len, push_name};
use swim_trace::{DataSize, Dur, Job, JobId, PathId, Timestamp};

/// One sampled job, `Copy`, heap-free. Field meanings are [`Job`]'s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDraft {
    /// Sequential id within the generator's stream.
    pub id: u64,
    /// Submit time relative to trace epoch.
    pub submit: Timestamp,
    /// Wall-clock duration.
    pub duration: Dur,
    /// Map-stage input bytes.
    pub input: DataSize,
    /// Shuffle bytes.
    pub shuffle: DataSize,
    /// Output bytes.
    pub output: DataSize,
    /// Map task-time.
    pub map_task_time: Dur,
    /// Reduce task-time.
    pub reduce_task_time: Dur,
    /// Map task count.
    pub map_tasks: u32,
    /// Reduce task count.
    pub reduce_tasks: u32,
    /// First word of the name; empty for workloads without job names.
    pub name_word: &'static str,
    /// Sequence suffix of the name (`"{word}_{seq}"`).
    pub name_seq: u64,
    /// Input path, when the workload's trace exposes input paths.
    pub input_path: Option<PathId>,
    /// Output path, when the workload's trace exposes output paths.
    pub output_path: Option<PathId>,
}

/// A namespace folded into a draft as it becomes a job: names become
/// `"{label}:{word}_{seq}"` and every path id `p` becomes
/// `p * path_stride + path_offset` (collision-free across `path_stride`
/// namespaces with distinct offsets below it).
#[derive(Debug, Clone, Copy)]
pub struct DraftPrefix<'a> {
    /// Prepended to non-empty names, followed by `:`.
    pub label: &'a str,
    /// Multiplier on path ids (the number of namespaces).
    pub path_stride: u64,
    /// Added to the scaled path id (this namespace's index).
    pub path_offset: u64,
}

impl JobDraft {
    /// Build the job: render the name in one exactly-sized allocation and
    /// wrap the paths, with `prefix` (if any) folded into both. With
    /// `None` this is the generator's own output: `"{word}_{seq}"` names
    /// and unmapped path ids.
    pub fn into_job(self, prefix: Option<&DraftPrefix<'_>>) -> Job {
        let mut name = String::new();
        if !self.name_word.is_empty() {
            let label_len = prefix.map_or(0, |p| p.label.len() + 1);
            name.reserve_exact(label_len + name_len(self.name_word, self.name_seq));
            if let Some(p) = prefix {
                name.push_str(p.label);
                name.push(':');
            }
            push_name(&mut name, self.name_word, self.name_seq);
        }
        let path = |p: PathId| match prefix {
            Some(ns) => PathId(
                p.0.wrapping_mul(ns.path_stride)
                    .wrapping_add(ns.path_offset),
            ),
            None => p,
        };
        Job {
            id: JobId(self.id),
            name,
            submit: self.submit,
            duration: self.duration,
            input: self.input,
            shuffle: self.shuffle,
            output: self.output,
            map_task_time: self.map_task_time,
            reduce_task_time: self.reduce_task_time,
            map_tasks: self.map_tasks,
            reduce_tasks: self.reduce_tasks,
            input_paths: self.input_path.map_or_else(Vec::new, |p| vec![path(p)]),
            output_paths: self.output_path.map_or_else(Vec::new, |p| vec![path(p)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneratorConfig, StreamingGenerator, WorkloadProfile};
    use swim_trace::trace::WorkloadKind;
    use swim_trace::JobBuilder;

    const KINDS: [WorkloadKind; 7] = [
        WorkloadKind::CcA,
        WorkloadKind::CcB,
        WorkloadKind::CcC,
        WorkloadKind::CcD,
        WorkloadKind::CcE,
        WorkloadKind::Fb2009,
        WorkloadKind::Fb2010,
    ];

    fn drafts(kind: &WorkloadKind) -> Vec<JobDraft> {
        let profile = WorkloadProfile::for_kind(kind).expect("paper workload");
        // About 300 jobs whatever the workload's native rate.
        let scale = 300.0 * profile.length_days / profile.total_jobs as f64;
        let mut generator =
            StreamingGenerator::new(GeneratorConfig::new(kind.clone()).scale(scale).seed(11))
                .expect("valid config")
                .max_jobs(300);
        let mut all = Vec::new();
        while let Some(block) = generator.next_drafts() {
            all.extend(block);
        }
        assert!(all.len() > 100, "{kind:?}: only {} drafts", all.len());
        all
    }

    #[test]
    fn unprefixed_jobs_keep_generator_names_and_the_availability_matrix() {
        for kind in &KINDS {
            let profile = WorkloadProfile::for_kind(kind).expect("paper workload");
            for (i, draft) in drafts(kind).into_iter().enumerate() {
                assert_eq!(draft.id, i as u64, "{kind:?}: ids are sequential");
                assert_eq!(draft.name_word.is_empty(), !profile.has_names, "{kind:?}");
                assert_eq!(draft.input_path.is_some(), profile.paths.input, "{kind:?}");
                assert_eq!(
                    draft.output_path.is_some(),
                    profile.paths.output,
                    "{kind:?}"
                );
                let name = if profile.has_names {
                    format!("{}_{}", draft.name_word, draft.name_seq)
                } else {
                    String::new()
                };
                // The builder chain the generator used before drafts.
                let expected = JobBuilder::new(draft.id)
                    .name(name)
                    .submit(draft.submit)
                    .duration(draft.duration)
                    .input(draft.input)
                    .shuffle(draft.shuffle)
                    .output(draft.output)
                    .map_task_time(draft.map_task_time)
                    .reduce_task_time(draft.reduce_task_time)
                    .tasks(draft.map_tasks, draft.reduce_tasks)
                    .input_paths(Vec::from_iter(draft.input_path))
                    .output_paths(Vec::from_iter(draft.output_path))
                    .build_unchecked();
                let job = draft.into_job(None);
                assert_eq!(job, expected, "{kind:?}");
                job.validate().expect("built jobs are valid");
            }
        }
    }

    #[test]
    fn prefix_folds_into_names_and_paths_like_a_second_pass_would() {
        let prefix = DraftPrefix {
            label: "tenant-b",
            path_stride: 3,
            path_offset: 1,
        };
        for kind in &KINDS {
            for draft in drafts(kind) {
                let plain = draft.into_job(None);
                let job = draft.into_job(Some(&prefix));
                if plain.name.is_empty() {
                    assert!(job.name.is_empty(), "{kind:?}: unnamed jobs stay unnamed");
                } else {
                    assert_eq!(job.name, format!("tenant-b:{}", plain.name));
                }
                let remap = |p: &PathId| PathId(p.0 * 3 + 1);
                assert_eq!(
                    job.input_paths,
                    plain.input_paths.iter().map(remap).collect::<Vec<_>>()
                );
                assert_eq!(
                    job.output_paths,
                    plain.output_paths.iter().map(remap).collect::<Vec<_>>()
                );
                let unprefixed = Job {
                    name: plain.name.clone(),
                    input_paths: plain.input_paths.clone(),
                    output_paths: plain.output_paths.clone(),
                    ..job
                };
                assert_eq!(unprefixed, plain, "{kind:?}: a prefix touches nothing else");
            }
        }
    }
}
