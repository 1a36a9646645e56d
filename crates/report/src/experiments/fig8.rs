//! Figure 8 — workload burstiness: cumulative distribution of hourly
//! task-time, normalized by the per-workload median, next to two
//! reference sinusoids.
//!
//! Published shape: every workload's extremes sit orders of magnitude from
//! its median (peak-to-median 9:1 … 260:1), far burstier than diurnal
//! sinusoids; FB's ratio dropped 31:1 → 9:1 between 2009 and 2010.

use crate::corpus::in_memory;
use crate::render::{ratio, Table};
use crate::Corpus;
use crate::Section;
use swim_core::burstiness::{sine_reference, Burstiness};
use swim_core::timeseries::HourlySeries;

/// Percentiles printed per curve.
pub const PCTS: [f64; 7] = [5.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];

/// Render one burstiness table for a named per-workload signal extractor.
fn signal_table(corpus: &Corpus, extract: impl Fn(&HourlySeries) -> Vec<f64>) -> Table {
    let mut table = Table::new(vec![
        "Signal",
        "p5",
        "p25",
        "p50",
        "p75",
        "p90",
        "p99",
        "peak",
        "peak:median",
    ]);
    let mut rows: Vec<(String, Burstiness)> = Vec::new();
    for ctx in &corpus.contexts {
        if let Some(b) = Burstiness::of(&extract(in_memory(ctx.hourly())), &PCTS) {
            rows.push((ctx.label().to_owned(), b));
        }
    }
    let hours = 24 * 14;
    for (name, offset) in [("sine + 2", 2.0), ("sine + 20", 20.0)] {
        if let Some(b) = Burstiness::of(&sine_reference(offset, hours), &PCTS) {
            rows.push((name.to_owned(), b));
        }
    }
    for (name, b) in &rows {
        let mut cells = vec![name.clone()];
        for p in PCTS {
            cells.push(format!("{:.2}", b.ratio_at(p).unwrap_or(f64::NAN)));
        }
        // Keep peak:median as the last column (PCTS already includes 100).
        cells.pop();
        cells.push(format!("{:.1}", b.peak_to_median));
        cells.push(ratio(b.peak_to_median));
        table.row(cells);
    }
    table
}

/// Build the Figure 8 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 8: Burstiness — hourly load normalized by median");
    section.captioned_table(
        "Task-time per hour (the paper's signal):",
        signal_table(corpus, |s| s.task_seconds.clone()),
    );
    section.prose("\n");
    section.captioned_table(
        "Job submissions per hour (arrival-process burstiness, where the \
         per-workload Fig. 8 calibration shows through directly):",
        signal_table(corpus, |s| s.jobs.clone()),
    );
    section.prose(
        "\nShape check (paper): workload peak-to-median ratios range 9:1 to \
         260:1, orders of magnitude above the sinusoid references (≈1.5:1 \
         and ≈1.05:1); FB-2010 is markedly less bursty than FB-2009 after \
         multiplexing more organizations (visible in the submissions \
         panel).\n\
         Scale caveat: the task-time panel overshoots the paper's band at \
         reduced corpus scale — with few jobs per hour a single huge job \
         spikes one hour against a small median. The published ratios are \
         production-scale; the ordering across workloads and vs the sine \
         references is the preserved shape.\n",
    );
    section
}

/// Regenerate the Figure 8 report in the historical terminal format.
pub fn run(corpus: &Corpus) -> String {
    doc(corpus).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;
    use swim_trace::trace::WorkloadKind;

    /// Peak-to-median of the *submission* signal — the dimension the
    /// arrival calibration controls directly (the task-time signal is
    /// dominated by job-size tails at reduced corpus scale).
    fn p2m(corpus: &crate::Corpus, kind: &WorkloadKind) -> f64 {
        let series = in_memory(corpus.get(kind).hourly());
        Burstiness::of(&series.jobs, &[])
            .map(|b| b.peak_to_median)
            .unwrap_or(0.0)
    }

    #[test]
    fn workloads_are_burstier_than_sines() {
        let corpus = test_corpus();
        let sine = Burstiness::of(&sine_reference(2.0, 24 * 14), &[])
            .unwrap()
            .peak_to_median;
        let mut above = 0;
        for ctx in &corpus.contexts {
            let series = in_memory(ctx.hourly());
            if let Some(b) = Burstiness::of(&series.task_seconds, &[]) {
                if b.peak_to_median > 2.0 * sine {
                    above += 1;
                }
            }
        }
        assert!(
            above >= 5,
            "only {above}/7 workloads beat the sine reference"
        );
    }

    #[test]
    fn fb2010_less_bursty_than_fb2009() {
        let corpus = test_corpus();
        let fb09 = p2m(corpus, &WorkloadKind::Fb2009);
        let fb10 = p2m(corpus, &WorkloadKind::Fb2010);
        assert!(
            fb10 < fb09,
            "FB-2010 {fb10:.1}:1 should be below FB-2009 {fb09:.1}:1"
        );
    }

    #[test]
    fn peak_ratios_in_published_band() {
        // The paper's band is 9:1 … 260:1; allow slack for the short quick
        // corpus, but insist on double digits somewhere and > 3 everywhere.
        let corpus = test_corpus();
        let mut max = 0.0f64;
        for ctx in &corpus.contexts {
            let series = in_memory(ctx.hourly());
            if let Some(b) = Burstiness::of(&series.task_seconds, &[]) {
                max = max.max(b.peak_to_median);
                assert!(
                    b.peak_to_median > 2.0,
                    "{}: {:.1}:1 too flat",
                    ctx.label(),
                    b.peak_to_median
                );
            }
        }
        assert!(max > 10.0, "max peak-to-median {max:.1}:1");
    }
}
