//! Figure 1 — per-job input/shuffle/output size CDFs for every workload.
//!
//! The paper's headline observations from this figure: median per-job
//! input/shuffle/output sizes differ across workloads by 6/8/4 orders of
//! magnitude respectively, and most jobs move MB–GB per stage (so
//! TB-scale microbenchmarks cover only a narrow slice).

use crate::Corpus;
use swim_core::stats::Ecdf;
use swim_report::render::{bytes, Table};
use swim_report::Section;

/// Quantiles printed per stage.
const QS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

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
    let mut spans = Vec::new();
    // A job's feature vector starts with its input, shuffle and output sizes.
    for (idx, stage) in ["input", "shuffle", "output"].into_iter().enumerate() {
        let mut table = Table::new(vec!["Workload", "p10", "p25", "p50", "p75", "p90"]);
        let mut medians = Vec::new();
        for trace in corpus.traces() {
            let ecdf = Ecdf::new(
                trace
                    .jobs()
                    .iter()
                    .map(|j| j.feature_vector()[idx])
                    .collect(),
            );
            let mut cells = vec![trace.kind.label().to_owned()];
            cells.extend(QS.iter().map(|&q| bytes(ecdf.quantile(q))));
            medians.push(ecdf.quantile(0.5));
            table.row(cells);
        }
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

/// Regenerate the Figure 1 series in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;

    #[test]
    fn median_spans_are_wide() {
        let corpus = test_corpus();
        let input_medians: Vec<f64> = corpus
            .traces()
            .map(|t| Ecdf::new(t.jobs().iter().map(|j| j.input.as_f64()).collect()).median())
            .collect();
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
        let r = run(test_corpus());
        assert!(r.contains("input size quantiles"));
        assert!(r.contains("shuffle size quantiles"));
        assert!(r.contains("output size quantiles"));
    }
}
