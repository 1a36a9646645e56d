//! [`TraceSummary`]: the Table 1 row type — machines, trace length, job
//! count, and bytes moved for one workload.

use crate::size::DataSize;
use crate::time::Dur;
use crate::trace::Trace;

/// Per-workload summary, one row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Workload label ("CC-a", "FB-2009", …).
    pub workload: String,
    /// Nominal machine count.
    pub machines: u32,
    /// Trace length (first submit to last submit).
    pub length: Dur,
    /// Number of jobs.
    pub jobs: usize,
    /// Σ (input + shuffle + output) bytes over all jobs.
    pub bytes_moved: DataSize,
}

impl TraceSummary {
    /// Compute the summary of a trace.
    pub fn of(trace: &Trace) -> TraceSummary {
        TraceSummary {
            workload: trace.kind.label().to_owned(),
            machines: trace.machines,
            length: trace.span(),
            jobs: trace.len(),
            bytes_moved: trace.bytes_moved(),
        }
    }

    /// Aggregate several summaries into a "Total" row (last row of Table 1).
    pub fn total(rows: &[TraceSummary]) -> TraceSummary {
        TraceSummary {
            workload: "Total".to_owned(),
            machines: rows.iter().map(|r| r.machines).sum(),
            length: rows.iter().map(|r| r.length).sum(),
            jobs: rows.iter().map(|r| r.jobs).sum(),
            bytes_moved: rows.iter().map(|r| r.bytes_moved).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;
    use crate::time::Timestamp;
    use crate::trace::WorkloadKind;

    #[test]
    fn summary_counts_and_sums() {
        let jobs = (0..3)
            .map(|i| {
                JobBuilder::new(i)
                    .submit(Timestamp::from_secs(i * 100))
                    .input(DataSize::from_gb(1))
                    .shuffle(DataSize::from_gb(1))
                    .output(DataSize::from_gb(1))
                    .tasks(1, 1)
                    .build()
                    .unwrap()
            })
            .collect();
        let t = Trace::new(WorkloadKind::CcA, 50, jobs).unwrap();
        let s = t.summary();
        assert_eq!(s.workload, "CC-a");
        assert_eq!(s.jobs, 3);
        assert_eq!(s.length, Dur::from_secs(200));
        assert_eq!(s.bytes_moved, DataSize::from_gb(9));
    }

    #[test]
    fn total_row_aggregates() {
        let a = TraceSummary {
            workload: "A".into(),
            machines: 100,
            length: Dur::from_days(1),
            jobs: 10,
            bytes_moved: DataSize::from_tb(1),
        };
        let b = TraceSummary {
            workload: "B".into(),
            machines: 200,
            length: Dur::from_days(2),
            jobs: 20,
            bytes_moved: DataSize::from_tb(2),
        };
        let t = TraceSummary::total(&[a, b]);
        assert_eq!(t.workload, "Total");
        assert_eq!(t.machines, 300);
        assert_eq!(t.jobs, 30);
        assert_eq!(t.length, Dur::from_days(3));
        assert_eq!(t.bytes_moved, DataSize::from_tb(3));
    }

    #[test]
    fn empty_trace_summary_is_zero() {
        let t = Trace::new(WorkloadKind::CcB, 1, vec![]).unwrap();
        let s = t.summary();
        assert_eq!(s.jobs, 0);
        assert_eq!(s.bytes_moved, DataSize::ZERO);
    }
}
