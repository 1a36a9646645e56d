//! Figure 2 — log-log file access frequency vs rank.
//!
//! The paper finds Zipf-like rank–frequency lines of approximately the
//! same shape on every workload, with slope magnitude ≈ 5/6, for both
//! input and output files.

use crate::corpus::access;
use crate::Corpus;
use swim_core::access::PathStage;
use swim_report::render::Table;
use swim_report::Section;

/// The published cross-workload slope magnitude.
pub const PAPER_SLOPE: f64 = 5.0 / 6.0;

/// Head of the rank distribution used for the fit (the published log-log
/// lines are visually dominated by the first couple of decades of ranks).
pub const FIT_RANKS: usize = 300;

/// Build the Figure 2 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section =
        Section::new("Figure 2: Zipf-like file access frequency vs rank (log-log slope)");
    let mut table = Table::new(vec![
        "Workload",
        "Stage",
        "Files",
        "Accesses",
        "Fitted slope",
        "R^2",
        "paper slope",
    ]);
    let mut slopes = Vec::new();
    for stage in [PathStage::Input, PathStage::Output] {
        for ctx in corpus.with_paths(stage) {
            let stats = access(ctx, stage);
            let Some(fit) = stats.zipf_fit(Some(FIT_RANKS)) else {
                continue;
            };
            slopes.push(-fit.slope);
            table.row(vec![
                ctx.label().to_owned(),
                format!("{stage:?}"),
                stats.distinct_files().to_string(),
                stats.total_accesses().to_string(),
                format!("{:.3}", fit.slope),
                format!("{:.3}", fit.r_squared),
                format!("-{PAPER_SLOPE:.3}"),
            ]);
        }
    }
    section.table(table);
    let mean = slopes.iter().sum::<f64>() / slopes.len().max(1) as f64;
    section.prose(format!(
        "\nMean slope magnitude across workloads/stages: {mean:.3} \
         (paper: ≈ {PAPER_SLOPE:.3} for all workloads).\n\
         Shape check: straight lines on log-log axes (R² near 1) of \
         similar slope across workloads — \"Zipf-like distributions of the \
         same shape\".\n"
    ));
    section
}

/// Regenerate the Figure 2 fits in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn fitted_slopes_are_near_paper_value() {
        let corpus = test_corpus();
        for ctx in corpus.with_paths(PathStage::Input) {
            let stats = access(ctx, PathStage::Input);
            let fit = stats.zipf_fit(Some(FIT_RANKS)).expect("fit exists");
            let mag = -fit.slope;
            assert!(
                (0.3..1.6).contains(&mag),
                "{}: slope magnitude {mag:.3} outside plausible Zipf band",
                ctx.label()
            );
        }
    }

    #[test]
    fn fits_are_good_lines() {
        let corpus = test_corpus();
        for ctx in corpus.with_paths(PathStage::Input) {
            let stats = access(ctx, PathStage::Input);
            let fit = stats.zipf_fit(Some(FIT_RANKS)).unwrap();
            assert!(
                fit.r_squared > 0.7,
                "{}: R² {:.3}",
                ctx.label(),
                fit.r_squared
            );
        }
    }

    #[test]
    fn report_covers_both_stages() {
        let r = run(test_corpus());
        assert!(r.contains("Input"));
        assert!(r.contains("Output"));
    }
}
