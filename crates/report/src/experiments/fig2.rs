//! Figure 2 — log-log file access frequency vs rank.
//!
//! The paper finds Zipf-like rank–frequency lines of approximately the
//! same shape on every workload, with slope magnitude ≈ 5/6, for both
//! input and output files.

use crate::battery::ZIPF_STAGES;
use crate::Corpus;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// The published cross-workload slope magnitude.
pub const PAPER_SLOPE: f64 = 5.0 / 6.0;

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
    let cells = corpus.cells("fig2");
    let mut slopes = Vec::new();
    for (stage, prefix) in ZIPF_STAGES {
        let slope = format!("{prefix}zipf slope");
        for (ctx, r) in cells.iter().filter(|(_, r)| r.get(&slope).is_some()) {
            slopes.push(-r.number(&slope));
            table.row(vec![
                ctx.label().to_owned(),
                format!("{stage:?}"),
                r.render(&format!("{prefix}distinct files")),
                r.render(&format!("{prefix}accesses")),
                format!("{:.3}", r.number(&slope)),
                format!("{:.3}", r.number(&format!("{prefix}fit R²"))),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;
    use crate::ExperimentResult;

    /// The input-stage Zipf fits: `(label, [slope, R²])` per path-bearing
    /// trace.
    fn input_fits() -> Vec<(&'static str, [f64; 2])> {
        let cells = test_corpus().cells("fig2");
        let fitted = cells.iter().filter(|(_, r)| r.get("zipf slope").is_some());
        let fit = |r: &ExperimentResult| [r.number("zipf slope"), r.number("fit R²")];
        let fits: Vec<_> = fitted.map(|(ctx, r)| (ctx.label(), fit(r))).collect();
        assert_eq!(fits.len(), 5, "CC-b..CC-e and FB-2010 carry input paths");
        fits
    }

    #[test]
    fn fitted_slopes_are_near_paper_value() {
        for (label, [slope, _]) in input_fits() {
            let mag = -slope;
            assert!(
                (0.3..1.6).contains(&mag),
                "{label}: slope magnitude {mag:.3} outside plausible Zipf band"
            );
        }
    }

    #[test]
    fn fits_are_good_lines() {
        for (label, [_, r_squared]) in input_fits() {
            assert!(r_squared > 0.7, "{label}: R² {r_squared:.3}");
        }
    }

    #[test]
    fn report_covers_both_stages() {
        let r = doc(test_corpus()).render_text();
        assert!(r.contains("Input"));
        assert!(r.contains("Output"));
    }
}
