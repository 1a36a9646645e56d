//! Figure 6 — fraction of jobs that read pre-existing data: re-reading an
//! earlier input vs consuming an earlier job's output.
//!
//! Published shape: up to ≈78 % of jobs involve re-accesses on CC-c/d/e,
//! lower on the others; FB-2010's output-path column is missing.

use crate::render::pct;
use crate::Corpus;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// The cell's three fractions, one table column each.
const COLUMNS: [&str; 3] = [
    "re-reads pre-existing input",
    "consumes pre-existing output",
    "total re-accessing",
];

/// Build the Figure 6 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 6: Fraction of jobs reading pre-existing data");
    let mut header = vec!["Workload"];
    header.extend(COLUMNS);
    let mut table = Table::new(header);
    let mut totals = Vec::new();
    for (ctx, r) in corpus.cells("fig6") {
        if r.is_skipped() {
            continue;
        }
        totals.push(r.number("total re-accessing"));
        let mut row = vec![ctx.label().to_owned()];
        row.extend(COLUMNS.map(|c| pct(r.number(c))));
        table.row(row);
    }
    section.table(table);
    let max = totals.iter().cloned().fold(0.0f64, f64::max);
    section.prose(format!(
        "\nMaximum re-accessing fraction: {} (paper: up to 78 % for \
         CC-c/CC-d/CC-e, lower elsewhere). Note FB-2010 lacks output paths, \
         so its output-consumption column reads 0 — exactly the paper's \
         missing-bar caveat.\n\
         Shape check: the Cloudera workloads with the calibrated high \
         re-access rates top the table; cache benefits differ per workload.\n",
        pct(max)
    ));
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;
    use swim_trace::trace::WorkloadKind;

    #[test]
    fn cc_c_reaccesses_more_than_cc_b() {
        // Calibration: CC-c p_reread 0.48+0.30 vs CC-b 0.25+0.15.
        let corpus = test_corpus();
        let total = |kind| corpus.cell("fig6", &kind).number("total re-accessing");
        let (cc_c, cc_b) = (total(WorkloadKind::CcC), total(WorkloadKind::CcB));
        assert!(cc_c > cc_b, "CC-c {cc_c} vs CC-b {cc_b}");
    }

    #[test]
    fn fb2010_has_no_output_consumption() {
        let fb2010 = test_corpus().cell("fig6", &WorkloadKind::Fb2010);
        assert_eq!(fb2010.number("consumes pre-existing output"), 0.0);
        assert!(fb2010.number("re-reads pre-existing input") > 0.0);
    }

    #[test]
    fn fractions_are_probabilities() {
        for (ctx, r) in test_corpus().cells("fig6") {
            if r.is_skipped() {
                continue;
            }
            for c in COLUMNS {
                let f = r.number(c);
                assert!((0.0..=1.0).contains(&f), "{}: {c} = {f}", ctx.label());
            }
        }
    }
}
