//! Figure 9 — pairwise correlations between the hourly submission series:
//! jobs/hour, bytes/hour, task-seconds/hour.
//!
//! Published values: average correlation jobs↔bytes ≈ 0.21, jobs↔task-time
//! ≈ 0.14, bytes↔task-time ≈ 0.62 — data size and compute are by far the
//! most correlated pair, so MapReduce workloads are data-centric and jobs
//! per second is the wrong load metric.

use crate::Corpus;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// Published Fig. 9 averages: `(jobs↔bytes, jobs↔task, bytes↔task)`.
pub const PAPER_MEANS: (f64, f64, f64) = (0.21, 0.14, 0.62);

/// The cell's three correlations, in [`PAPER_MEANS`] order.
const PAIRS: [&str; 3] = ["jobs-bytes", "jobs-task-secs", "bytes-task-secs"];

/// Each workload's correlations, in [`PAIRS`] order.
fn pairs_per_workload(corpus: &Corpus) -> Vec<(String, [f64; 3])> {
    let cells = corpus.cells("fig9");
    let measured = cells.into_iter().filter(|(_, r)| !r.is_skipped());
    measured
        .map(|(ctx, r)| (ctx.label().to_owned(), PAIRS.map(|p| r.number(p))))
        .collect()
}

/// Build the Figure 9 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 9: Correlations between hourly submission series");
    let mut header = vec!["Workload"];
    header.extend(PAIRS);
    let mut table = Table::new(header);
    let rows = pairs_per_workload(corpus);
    let mut sums = [0.0; 3];
    for (label, c) in &rows {
        let mut row = vec![label.clone()];
        for (sum, r) in sums.iter_mut().zip(c) {
            *sum += r;
            row.push(format!("{r:.2}"));
        }
        table.row(row);
    }
    let n = rows.len() as f64;
    let mut mean = vec!["Mean".to_owned()];
    mean.extend(sums.map(|sum| format!("{:.2}", sum / n)));
    table.row(mean);
    table.row(vec![
        "paper mean".to_owned(),
        format!("{:.2}", PAPER_MEANS.0),
        format!("{:.2}", PAPER_MEANS.1),
        format!("{:.2}", PAPER_MEANS.2),
    ]);
    section.table(table);
    section.prose(
        "\nShape check: bytes↔task-seconds is the strongest pair by a wide \
         margin — workloads are data-centric; schedulers must look beyond \
         active job counts.\n",
    );
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn bytes_tasktime_is_strongest_pair_on_average() {
        let mut sums = [0.0; 3];
        for (_, c) in pairs_per_workload(test_corpus()) {
            for (sum, r) in sums.iter_mut().zip(c) {
                *sum += r;
            }
        }
        let [jobs_bytes, jobs_task, bytes_task] = sums;
        assert!(
            bytes_task > jobs_bytes && bytes_task > jobs_task,
            "bytes↔task {bytes_task:.2} must dominate jobs↔bytes {jobs_bytes:.2} and jobs↔task {jobs_task:.2}",
        );
    }

    #[test]
    fn bytes_tasktime_correlation_is_strong() {
        let rows = pairs_per_workload(test_corpus());
        assert_eq!(rows.len(), 7);
        let mean = rows.iter().map(|(_, c)| c[2]).sum::<f64>() / rows.len() as f64;
        assert!((0.3..=1.0).contains(&mean), "mean bytes↔task {mean:.2}");
    }

    #[test]
    fn correlations_are_valid() {
        for (label, c) in pairs_per_workload(test_corpus()) {
            for v in c {
                assert!((-1.0..=1.0).contains(&v), "{label}: r = {v}");
            }
        }
    }
}
