//! Computation-pattern analysis by job name (§6.1, Fig. 10): group jobs
//! by the first word of their names, classify the originating framework,
//! and weight groups by job count, total I/O, and total task-time.

use std::collections::HashMap;
use swim_trace::{Framework, Job};

/// How one first-word group weighs in a workload, under the three Fig. 10
/// weightings.
#[derive(Debug, Clone, PartialEq)]
pub struct WordGroup {
    /// The first word ("insert", "piglatin", "ad", …).
    pub word: String,
    /// Framework inferred from the word.
    pub framework: Framework,
    /// Number of jobs in the group.
    pub jobs: u64,
    /// Σ total I/O bytes of the group.
    pub bytes: f64,
    /// Σ task-seconds of the group.
    pub task_seconds: f64,
}

/// Full name analysis for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct NameAnalysis {
    /// Groups sorted by job count, descending.
    pub groups: Vec<WordGroup>,
    /// Jobs with no (or unparseable) name.
    pub unnamed_jobs: u64,
    /// Total jobs in the trace.
    pub total_jobs: u64,
    /// Total I/O bytes in the trace.
    pub total_bytes: f64,
    /// Total task-seconds in the trace.
    pub total_task_seconds: f64,
}

/// Classify a first word into its framework, following the §6.1
/// conventions: Hive queries start with SQL-ish verbs, Pig jobs with
/// `piglatin`, Oozie launchers with `oozie`.
pub fn classify_framework(word: &str) -> Framework {
    match word {
        "insert" | "select" | "from" | "create" | "drop" | "alter" => Framework::Hive,
        "piglatin" | "pig" => Framework::Pig,
        "oozie" => Framework::Oozie,
        _ => Framework::Native,
    }
}

impl NameAnalysis {
    /// `true` iff the trace carried usable names.
    pub fn has_names(&self) -> bool {
        !self.groups.is_empty()
    }

    /// Fraction of jobs covered by the `k` most frequent words — the §6.1
    /// "top handful of words account for a dominant majority of jobs".
    pub fn top_k_job_share(&self, k: usize) -> f64 {
        if self.total_jobs == 0 {
            return 0.0;
        }
        let covered: u64 = self.groups.iter().take(k).map(|g| g.jobs).sum();
        covered as f64 / self.total_jobs as f64
    }

    /// Per-framework share of jobs, bytes, and task-seconds — the Fig. 10
    /// color breakdown and the §6.1 framework-load question ("up to 80 %
    /// and at least 20 %").
    pub fn framework_shares(&self) -> Vec<FrameworkShare> {
        let mut acc: HashMap<Framework, FrameworkShare> = HashMap::new();
        for g in &self.groups {
            let e = acc.entry(g.framework).or_insert(FrameworkShare {
                framework: g.framework,
                jobs: 0.0,
                bytes: 0.0,
                task_seconds: 0.0,
            });
            e.jobs += g.jobs as f64;
            e.bytes += g.bytes;
            e.task_seconds += g.task_seconds;
        }
        let mut out: Vec<FrameworkShare> = acc
            .into_values()
            .map(|mut s| {
                if self.total_jobs > 0 {
                    s.jobs /= self.total_jobs as f64;
                }
                if self.total_bytes > 0.0 {
                    s.bytes /= self.total_bytes;
                }
                if self.total_task_seconds > 0.0 {
                    s.task_seconds /= self.total_task_seconds;
                }
                s
            })
            .collect();
        // Ties break by label: `acc`'s iteration order is random per call.
        out.sort_by(|a, b| {
            b.jobs
                .partial_cmp(&a.jobs)
                .expect("finite")
                .then_with(|| a.framework.label().cmp(b.framework.label()))
        });
        out
    }

    /// Groups re-sorted by a chosen weighting (the three Fig. 10 panels).
    pub fn sorted_by(&self, weight: Weighting) -> Vec<WordGroup> {
        let mut gs = self.groups.clone();
        match weight {
            Weighting::Jobs => gs.sort_by_key(|g| std::cmp::Reverse(g.jobs)),
            Weighting::Bytes => gs.sort_by(|a, b| b.bytes.partial_cmp(&a.bytes).expect("finite")),
            Weighting::TaskTime => {
                gs.sort_by(|a, b| b.task_seconds.partial_cmp(&a.task_seconds).expect("finite"))
            }
        }
        gs
    }
}

/// A [`NameAnalysis`] built a job at a time: push every job in trace
/// order, then [`NameFold::finish`]. Holds one group per distinct first word.
#[derive(Debug, Clone, Default)]
pub struct NameFold {
    groups: HashMap<String, WordGroup>,
    unnamed_jobs: u64,
    total_jobs: u64,
    total_bytes: f64,
    total_task_seconds: f64,
}

impl NameFold {
    /// Account the next job under its name's first word.
    pub fn push(&mut self, job: &Job) {
        let bytes = job.total_io().as_f64();
        let task_seconds = job.total_task_time().as_f64();
        self.total_jobs += 1;
        self.total_bytes += bytes;
        self.total_task_seconds += task_seconds;
        match job.name_first_word() {
            Some(word) => {
                let entry = self
                    .groups
                    .entry(word.clone())
                    .or_insert_with(|| WordGroup {
                        framework: classify_framework(&word),
                        word,
                        jobs: 0,
                        bytes: 0.0,
                        task_seconds: 0.0,
                    });
                entry.jobs += 1;
                entry.bytes += bytes;
                entry.task_seconds += task_seconds;
            }
            None => self.unnamed_jobs += 1,
        }
    }

    /// The analysis of every job pushed.
    pub fn finish(self) -> NameAnalysis {
        let mut groups: Vec<WordGroup> = self.groups.into_values().collect();
        groups.sort_by(|a, b| b.jobs.cmp(&a.jobs).then(a.word.cmp(&b.word)));
        NameAnalysis {
            groups,
            unnamed_jobs: self.unnamed_jobs,
            total_jobs: self.total_jobs,
            total_bytes: self.total_bytes,
            total_task_seconds: self.total_task_seconds,
        }
    }
}

/// Per-framework normalized shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkShare {
    /// The framework.
    pub framework: Framework,
    /// Share of jobs in `[0,1]`.
    pub jobs: f64,
    /// Share of I/O bytes in `[0,1]`.
    pub bytes: f64,
    /// Share of task-seconds in `[0,1]`.
    pub task_seconds: f64,
}

/// The three Fig. 10 weightings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Weight groups by number of jobs (Fig. 10 top).
    Jobs,
    /// Weight groups by total I/O (Fig. 10 middle).
    Bytes,
    /// Weight groups by task-time (Fig. 10 bottom).
    TaskTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::{DataSize, Dur, JobBuilder, Timestamp};

    fn named_job(id: u64, name: &str, io_mb: u64, task_secs: u64) -> Job {
        JobBuilder::new(id)
            .name(name)
            .submit(Timestamp::from_secs(id))
            .duration(Dur::from_secs(1))
            .input(DataSize::from_mb(io_mb))
            .map_task_time(Dur::from_secs(task_secs))
            .tasks(1, 0)
            .build()
            .unwrap()
    }

    /// A [`NameFold`] over `jobs`.
    fn analyze(jobs: Vec<Job>) -> NameAnalysis {
        let mut fold = NameFold::default();
        jobs.iter().for_each(|job| fold.push(job));
        fold.finish()
    }

    #[test]
    fn groups_by_first_word() {
        let a = analyze(vec![
            named_job(0, "insert_001", 1, 1),
            named_job(1, "insert_002", 1, 1),
            named_job(2, "piglatin_job", 1, 1),
        ]);
        assert_eq!(a.groups.len(), 2);
        assert_eq!(a.groups[0].word, "insert");
        assert_eq!(a.groups[0].jobs, 2);
        assert_eq!(a.groups[0].framework, Framework::Hive);
        assert_eq!(a.groups[1].framework, Framework::Pig);
    }

    #[test]
    fn unnamed_jobs_counted_separately() {
        let a = analyze(vec![named_job(0, "", 1, 1), named_job(1, "ad_x", 1, 1)]);
        assert_eq!(a.unnamed_jobs, 1);
        assert_eq!(a.total_jobs, 2);
    }

    #[test]
    fn top_k_share() {
        let a = analyze(vec![
            named_job(0, "ad 1", 1, 1),
            named_job(1, "ad 2", 1, 1),
            named_job(2, "ad 3", 1, 1),
            named_job(3, "etl", 1, 1),
        ]);
        assert!((a.top_k_job_share(1) - 0.75).abs() < 1e-12);
        assert!((a.top_k_job_share(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn framework_shares_normalize() {
        let a = analyze(vec![
            named_job(0, "insert a", 100, 10),
            named_job(1, "select b", 100, 10),
            named_job(2, "custom c", 200, 80),
        ]);
        let shares = a.framework_shares();
        let hive = shares
            .iter()
            .find(|s| s.framework == Framework::Hive)
            .unwrap();
        let native = shares
            .iter()
            .find(|s| s.framework == Framework::Native)
            .unwrap();
        assert!((hive.jobs - 2.0 / 3.0).abs() < 1e-12);
        assert!((hive.bytes - 0.5).abs() < 1e-12);
        assert!((native.task_seconds - 0.8).abs() < 1e-12);

        // Equal job counts come back in one order on every call.
        let tie = analyze(vec![
            named_job(0, "insert a", 1, 1),
            named_job(1, "select b", 1, 1),
            named_job(2, "piglatin c", 1, 1),
            named_job(3, "pig d", 1, 1),
        ]);
        for _ in 0..32 {
            let order: Vec<Framework> =
                tie.framework_shares().iter().map(|s| s.framework).collect();
            assert_eq!(order, [Framework::Hive, Framework::Pig]);
        }
    }

    #[test]
    fn weighting_reorders_groups() {
        let a = analyze(vec![
            named_job(0, "ad 1", 1, 1),
            named_job(1, "ad 2", 1, 1),
            named_job(2, "from q", 1_000_000, 5_000),
        ]);
        assert_eq!(a.sorted_by(Weighting::Jobs)[0].word, "ad");
        assert_eq!(a.sorted_by(Weighting::Bytes)[0].word, "from");
        assert_eq!(a.sorted_by(Weighting::TaskTime)[0].word, "from");
    }

    #[test]
    fn classify_framework_covers_conventions() {
        assert_eq!(classify_framework("insert"), Framework::Hive);
        assert_eq!(classify_framework("from"), Framework::Hive);
        assert_eq!(classify_framework("piglatin"), Framework::Pig);
        assert_eq!(classify_framework("oozie"), Framework::Oozie);
        assert_eq!(classify_framework("ad"), Framework::Native);
    }

    #[test]
    fn nameless_trace_has_no_groups() {
        let a = analyze(vec![named_job(0, "", 1, 1)]);
        assert!(!a.has_names());
        assert_eq!(a.top_k_job_share(5), 0.0);
    }
}
