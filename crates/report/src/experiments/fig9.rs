//! Figure 9 — pairwise correlations between the hourly submission series:
//! jobs/hour, bytes/hour, task-seconds/hour.
//!
//! Published values: average correlation jobs↔bytes ≈ 0.21, jobs↔task-time
//! ≈ 0.14, bytes↔task-time ≈ 0.62 — data size and compute are by far the
//! most correlated pair, so MapReduce workloads are data-centric and jobs
//! per second is the wrong load metric.

use crate::corpus::in_memory;
use crate::render::Table;
use crate::Corpus;
use crate::Section;

/// Published Fig. 9 averages: `(jobs↔bytes, jobs↔task, bytes↔task)`.
pub const PAPER_MEANS: (f64, f64, f64) = (0.21, 0.14, 0.62);

/// Build the Figure 9 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 9: Correlations between hourly submission series");
    let mut table = Table::new(vec![
        "Workload",
        "jobs-bytes",
        "jobs-task-secs",
        "bytes-task-secs",
    ]);
    let mut sums = (0.0, 0.0, 0.0);
    let mut n = 0.0;
    for ctx in &corpus.contexts {
        let c = in_memory(ctx.hourly()).correlations();
        sums.0 += c.jobs_bytes;
        sums.1 += c.jobs_task_seconds;
        sums.2 += c.bytes_task_seconds;
        n += 1.0;
        table.row(vec![
            ctx.label().to_owned(),
            format!("{:.2}", c.jobs_bytes),
            format!("{:.2}", c.jobs_task_seconds),
            format!("{:.2}", c.bytes_task_seconds),
        ]);
    }
    table.row(vec![
        "Mean".to_owned(),
        format!("{:.2}", sums.0 / n),
        format!("{:.2}", sums.1 / n),
        format!("{:.2}", sums.2 / n),
    ]);
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

/// Regenerate the Figure 9 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn bytes_tasktime_is_strongest_pair_on_average() {
        let corpus = test_corpus();
        let mut sums = (0.0, 0.0, 0.0);
        for ctx in &corpus.contexts {
            let c = in_memory(ctx.hourly()).correlations();
            sums.0 += c.jobs_bytes;
            sums.1 += c.jobs_task_seconds;
            sums.2 += c.bytes_task_seconds;
        }
        assert!(
            sums.2 > sums.0 && sums.2 > sums.1,
            "bytes↔task {:.2} must dominate jobs↔bytes {:.2} and jobs↔task {:.2}",
            sums.2,
            sums.0,
            sums.1
        );
    }

    #[test]
    fn bytes_tasktime_correlation_is_strong() {
        let corpus = test_corpus();
        let mut mean = 0.0;
        for ctx in &corpus.contexts {
            mean += in_memory(ctx.hourly()).correlations().bytes_task_seconds;
        }
        mean /= corpus.contexts.len() as f64;
        assert!((0.3..=1.0).contains(&mean), "mean bytes↔task {mean:.2}");
    }

    #[test]
    fn correlations_are_valid() {
        let corpus = test_corpus();
        for ctx in &corpus.contexts {
            let c = in_memory(ctx.hourly()).correlations();
            for v in [c.jobs_bytes, c.jobs_task_seconds, c.bytes_task_seconds] {
                assert!((-1.0..=1.0).contains(&v), "{}: r = {v}", ctx.label());
            }
        }
    }
}
