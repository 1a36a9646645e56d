//! Figure 3 — access patterns vs **input** file size: cumulative fraction
//! of jobs (top panel) and of stored bytes (bottom panel) by file size,
//! plus the §4.2 80-X rule.
//!
//! Published shape: the jobs-CDFs vary widely but converge in the upper
//! right — ≈90 % of jobs access files under a few GB, and those files
//! hold at most ≈16 % of stored bytes; 80 % of accesses go to 1–8 % of
//! bytes (the "80-1 to 80-8 rule").

use crate::corpus::access;
use crate::Corpus;
use swim_core::access::PathStage;
use swim_report::render::{pct, Table};
use swim_report::Section;
use swim_trace::DataSize;

/// File-size thresholds reported in the table.
pub const THRESHOLDS_GB: [u64; 4] = [1, 4, 16, 64];

/// Build the per-workload threshold report for a stage (shared with Fig. 4).
pub fn threshold_report(corpus: &Corpus, stage: PathStage) -> (Table, Vec<f64>) {
    let mut table = Table::new(vec![
        "Workload",
        "jobs<1GB",
        "bytes<1GB",
        "jobs<4GB",
        "bytes<4GB",
        "jobs<16GB",
        "bytes<16GB",
        "jobs<64GB",
        "bytes<64GB",
        "80-X rule",
    ]);
    let mut x_values = Vec::new();
    for ctx in corpus.with_paths(stage) {
        let stats = access(ctx, stage);
        let mut cells = vec![ctx.label().to_owned()];
        for gb in THRESHOLDS_GB {
            let thr = DataSize::from_gb(gb);
            cells.push(pct(stats.access_fraction_below(thr)));
            cells.push(pct(stats.bytes_fraction_below(thr)));
        }
        let x = stats.eighty_x_rule(0.8).unwrap_or(f64::NAN);
        x_values.push(x);
        cells.push(format!("80-{x:.1}"));
        table.row(cells);
    }
    (table, x_values)
}

/// Build the Figure 3 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 3: Access patterns vs input file size");
    let (table, xs) = threshold_report(corpus, PathStage::Input);
    section.captioned_table(
        "Cumulative fraction of jobs / stored bytes below a file size:",
        table,
    );
    let max_x = xs.iter().cloned().fold(0.0f64, f64::max);
    section.prose(format!(
        "\n80-X rule across workloads: X up to {max_x:.1} \
         (paper: 80 % of accesses touch 1–8 % of stored bytes).\n\
         Shape check: the jobs column rises far faster than the bytes \
         column — most jobs touch small files that hold a small share of \
         storage, which is what makes threshold caching viable.\n"
    ));
    section
}

/// Regenerate the Figure 3 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn jobs_fraction_exceeds_bytes_fraction_at_every_threshold() {
        let corpus = test_corpus();
        for ctx in corpus.with_paths(PathStage::Input) {
            let stats = access(ctx, PathStage::Input);
            for gb in THRESHOLDS_GB {
                let thr = DataSize::from_gb(gb);
                let jobs = stats.access_fraction_below(thr);
                let bytes = stats.bytes_fraction_below(thr);
                assert!(
                    jobs + 1e-9 >= bytes,
                    "{} @ {gb} GB: jobs {jobs:.3} < bytes {bytes:.3}",
                    ctx.label()
                );
            }
        }
    }

    #[test]
    fn eighty_x_rule_is_small() {
        let corpus = test_corpus();
        for ctx in corpus.with_paths(PathStage::Input) {
            let x = access(ctx, PathStage::Input).eighty_x_rule(0.8).unwrap();
            assert!(
                x < 65.0,
                "{}: 80 % of accesses need {x:.1}% of bytes — no skew benefit",
                ctx.label()
            );
        }
    }

    #[test]
    fn report_prints_thresholds() {
        let r = run(test_corpus());
        assert!(r.contains("jobs<1GB"));
        assert!(r.contains("80-X rule"));
    }
}
