//! Table 1 — summary of traces: machines, length, jobs, bytes moved.

use crate::corpus::{in_memory, scale_params};
use crate::render::{bytes, Table};
use crate::Corpus;
use crate::Section;
use swim_trace::TraceSummary;

/// Published Table 1 rows: `(workload, machines, jobs, bytes_moved)`.
/// Machines for CC-d is the 400–500 midpoint the profiles use.
pub const PAPER: [(&str, u32, u64, f64); 7] = [
    ("CC-a", 100, 5_759, 80e12),
    ("CC-b", 300, 22_974, 600e12),
    ("CC-c", 700, 21_030, 18e15),
    ("CC-d", 450, 13_283, 8e15),
    ("CC-e", 100, 10_790, 590e12),
    ("FB-2009", 600, 1_129_193, 9.4e15),
    ("FB-2010", 3_000, 1_169_184, 1.5e18),
];

/// Build the Table 1 document, next to the published values rescaled to
/// the corpus scale factor for a like-for-like check.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Table 1: Summary of traces (synthetic reproduction vs paper)");
    let mut table = Table::new(vec![
        "Workload",
        "Machines",
        "Length",
        "Jobs",
        "Bytes moved",
        "paper jobs (scaled)",
        "paper bytes (scaled)",
        "jobs ratio",
    ]);
    let mut rows: Vec<TraceSummary> = Vec::new();
    for ctx in &corpus.contexts {
        let s = ctx.summary();
        let kind = &in_memory(ctx.trace()).kind;
        let (job_scale, days) = scale_params(kind, corpus.scale);
        let paper = PAPER
            .iter()
            .find(|(w, ..)| *w == s.workload)
            .expect("paper row exists");
        // Scale published totals to the generated job-count scale and the
        // generated window length relative to the original trace length.
        let profile = swim_workloadgen::WorkloadProfile::for_kind(kind).expect("paper workload");
        let window_frac = (days / profile.length_days).min(1.0);
        let expected_jobs = paper.2 as f64 * job_scale * window_frac;
        let expected_bytes = paper.3 * job_scale * window_frac;
        let ratio = s.jobs as f64 / expected_jobs.max(1.0);
        table.row(vec![
            s.workload.clone(),
            s.machines.to_string(),
            s.length.to_string(),
            s.jobs.to_string(),
            s.bytes_moved.to_string(),
            format!("{expected_jobs:.0}"),
            bytes(expected_bytes),
            format!("{ratio:.2}"),
        ]);
        rows.push(s.clone());
    }
    let total = TraceSummary::total(&rows);
    table.row(vec![
        total.workload,
        total.machines.to_string(),
        total.length.to_string(),
        total.jobs.to_string(),
        total.bytes_moved.to_string(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    section.table(table);
    section.prose(
        "\nShape check: job counts should track the scaled paper totals \
         (ratio ≈ 1); generated bytes run above the centroid-implied value \
         because log-normal jitter raises means above medians.\n",
    );
    section
}

/// Regenerate Table 1 in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn job_counts_track_scaled_paper_totals() {
        let corpus = test_corpus();
        for trace in corpus.traces() {
            let (job_scale, days) = crate::corpus::scale_params(&trace.kind, corpus.scale);
            let paper = PAPER
                .iter()
                .find(|(w, ..)| *w == trace.kind.label())
                .unwrap();
            let profile = swim_workloadgen::WorkloadProfile::for_kind(&trace.kind).unwrap();
            let expected = paper.2 as f64 * job_scale * (days / profile.length_days).min(1.0);
            let ratio = trace.len() as f64 / expected;
            assert!(
                (0.6..1.6).contains(&ratio),
                "{}: {} jobs vs expected {expected:.0}",
                trace.kind,
                trace.len()
            );
        }
    }

    #[test]
    fn report_contains_all_workloads_and_total() {
        let r = run(test_corpus());
        for (w, ..) in PAPER {
            assert!(r.contains(w), "missing {w}");
        }
        assert!(r.contains("Total"));
    }
}
