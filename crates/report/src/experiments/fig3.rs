//! Figure 3 — access patterns vs **input** file size: cumulative fraction
//! of jobs (top panel) and of stored bytes (bottom panel) by file size,
//! plus the §4.2 80-X rule.
//!
//! Published shape: the jobs-CDFs vary widely but converge in the upper
//! right — ≈90 % of jobs access files under a few GB, and those files
//! hold at most ≈16 % of stored bytes; 80 % of accesses go to 1–8 % of
//! bytes (the "80-1 to 80-8 rule").

use crate::battery::SIZE_THRESHOLDS_GB;
use crate::render::pct;
use crate::Corpus;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// Build the per-workload threshold report of battery cell `id` (`fig3`
/// for input files, `fig4` for output files), with each workload's 80-X
/// rule.
pub fn threshold_report(corpus: &Corpus, id: &str) -> (Table, Vec<f64>) {
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
    for (ctx, r) in corpus.cells(id) {
        if r.is_skipped() {
            continue;
        }
        let mut row = vec![ctx.label().to_owned()];
        for gb in SIZE_THRESHOLDS_GB {
            row.push(pct(r.number(&format!("jobs < {gb} GB"))));
            row.push(pct(r.number(&format!("bytes < {gb} GB"))));
        }
        let x = r.number("80-X rule");
        x_values.push(x);
        row.push(format!("80-{x:.1}"));
        table.row(row);
    }
    (table, x_values)
}

/// Build the Figure 3 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 3: Access patterns vs input file size");
    let (table, xs) = threshold_report(corpus, "fig3");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn jobs_fraction_exceeds_bytes_fraction_at_every_threshold() {
        for (ctx, r) in test_corpus().cells("fig3") {
            if r.is_skipped() {
                continue;
            }
            for gb in SIZE_THRESHOLDS_GB {
                let jobs = r.number(&format!("jobs < {gb} GB"));
                let bytes = r.number(&format!("bytes < {gb} GB"));
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
        for (ctx, r) in test_corpus().cells("fig3") {
            if r.is_skipped() {
                continue;
            }
            let x = r.number("80-X rule");
            assert!(
                x < 65.0,
                "{}: 80 % of accesses need {x:.1}% of bytes — no skew benefit",
                ctx.label()
            );
        }
    }

    #[test]
    fn report_prints_thresholds() {
        let r = doc(test_corpus()).render_text();
        assert!(r.contains("jobs<1GB"));
        assert!(r.contains("80-X rule"));
    }
}
