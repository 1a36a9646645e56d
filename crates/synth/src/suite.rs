//! Workload suites (§7, "Workload suites"): the paper concludes that no
//! single workload is representative, so a benchmark should ship a *suite*
//! of workload classes covering the observed behaviour range. A
//! [`WorkloadSuite`] bundles named replay plans together with the
//! pre-population each requires.

use crate::datagen::DataGenPlan;
use crate::replay::ReplayPlan;
use swim_trace::{DataSize, Trace};

/// One suite member: a replay plan plus its data-generation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEntry {
    /// Name of the member workload.
    pub name: String,
    /// Replay schedule.
    pub replay: ReplayPlan,
    /// Data to pre-populate before replay.
    pub datagen: DataGenPlan,
}

/// A benchmark suite of several workloads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSuite {
    /// The members, in insertion order.
    pub entries: Vec<SuiteEntry>,
}

impl WorkloadSuite {
    /// Empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trace as a suite member (building both plans).
    pub fn add_trace(&mut self, name: impl Into<String>, trace: &Trace, block_size: DataSize) {
        self.entries.push(SuiteEntry {
            name: name.into(),
            replay: ReplayPlan::from_trace(trace),
            datagen: DataGenPlan::from_trace(trace, block_size),
        });
    }

    /// Number of member workloads.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Look up a member by name.
    pub fn get(&self, name: &str) -> Option<&SuiteEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{Dur, JobBuilder, Timestamp};

    fn tiny_trace(kind: WorkloadKind, n: u64) -> Trace {
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 30))
                    .duration(Dur::from_secs(10))
                    .input(DataSize::from_mb(8))
                    .map_task_time(Dur::from_secs(5))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        Trace::new(kind, 10, jobs).unwrap()
    }

    #[test]
    fn suite_accumulates_members() {
        let mut suite = WorkloadSuite::new();
        suite.add_trace(
            "cc-b",
            &tiny_trace(WorkloadKind::CcB, 5),
            DataSize::from_mb(128),
        );
        suite.add_trace(
            "cc-e",
            &tiny_trace(WorkloadKind::CcE, 3),
            DataSize::from_mb(128),
        );
        assert_eq!(suite.len(), 2);
        assert!(suite.get("cc-b").is_some());
        assert!(suite.get("nope").is_none());
    }

    #[test]
    fn totals_sum_over_members() {
        let mut suite = WorkloadSuite::new();
        suite.add_trace(
            "a",
            &tiny_trace(WorkloadKind::CcA, 4),
            DataSize::from_mb(128),
        );
        suite.add_trace(
            "b",
            &tiny_trace(WorkloadKind::CcB, 6),
            DataSize::from_mb(128),
        );
        let total =
            |bytes: fn(&SuiteEntry) -> DataSize| suite.entries.iter().map(bytes).sum::<DataSize>();
        assert_eq!(total(|e| e.replay.total_bytes()), DataSize::from_mb(80));
        assert_eq!(total(|e| e.datagen.total_bytes()), DataSize::from_mb(80));
    }
}
