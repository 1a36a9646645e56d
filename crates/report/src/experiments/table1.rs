//! Table 1 — summary of traces: machines, length, jobs, bytes moved.

use crate::corpus::scale_params;
use crate::render::bytes;
use crate::{Corpus, CorpusScale};
use swim_obs::doc::Section;
use swim_obs::render::Table;
use swim_trace::trace::WorkloadKind;
use swim_trace::Dur;
use swim_workloadgen::WorkloadProfile;

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

/// Workload `label`'s published job count and bytes moved, scaled to a
/// corpus: by its job-count scale and by its generated window's share of
/// the original trace length.
fn scaled_paper_totals(label: &str, scale: CorpusScale) -> (f64, f64) {
    let paper = PAPER.iter().find(|(w, ..)| *w == label);
    let (_, _, jobs, bytes) = paper.expect("paper row exists");
    let kind = WorkloadKind::PAPER_SEVEN
        .into_iter()
        .find(|k| k.label() == label);
    let kind = kind.expect("paper workload");
    let (job_scale, days) = scale_params(&kind, scale);
    let profile = WorkloadProfile::for_kind(&kind).expect("paper workload");
    let window_frac = (days / profile.length_days).min(1.0);
    (
        *jobs as f64 * job_scale * window_frac,
        bytes * job_scale * window_frac,
    )
}

/// Build the Table 1 document, next to the published values rescaled to
/// the corpus scale factor for a like-for-like check.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Table 1: Summary of traces (synthetic reproduction vs paper)");
    const COLUMNS: [&str; 5] = ["workload", "machines", "length", "jobs", "bytes moved"];
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
    // The Total row sums every numeric column.
    let mut totals = [0.0; 5];
    for (ctx, r) in corpus.cells("table1") {
        let (expected_jobs, expected_bytes) = scaled_paper_totals(ctx.label(), corpus.scale);
        let ratio = r.number("jobs") / expected_jobs.max(1.0);
        let mut row: Vec<String> = COLUMNS.iter().map(|&c| r.render(c)).collect();
        row.extend([
            format!("{expected_jobs:.0}"),
            bytes(expected_bytes),
            format!("{ratio:.2}"),
        ]);
        table.row(row);
        for (total, c) in totals.iter_mut().zip(COLUMNS).skip(1) {
            *total += r.number(c);
        }
    }
    let [_, machines, length, jobs, bytes_moved] = totals;
    table.row(vec![
        "Total".to_owned(),
        machines.to_string(),
        Dur::from_secs(length as u64).to_string(),
        jobs.to_string(),
        bytes(bytes_moved),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn job_counts_track_scaled_paper_totals() {
        let corpus = test_corpus();
        for (ctx, r) in corpus.cells("table1") {
            let (expected, _) = scaled_paper_totals(ctx.label(), corpus.scale);
            let jobs = r.number("jobs");
            let ratio = jobs / expected;
            assert!(
                (0.6..1.6).contains(&ratio),
                "{}: {jobs} jobs vs expected {expected:.0}",
                ctx.label(),
            );
        }
    }

    #[test]
    fn report_contains_all_workloads_and_total() {
        let r = doc(test_corpus()).render_text();
        for (w, ..) in PAPER {
            assert!(r.contains(w), "missing {w}");
        }
        assert!(r.contains("Total"));
    }
}
