//! Figure 8 — workload burstiness: cumulative distribution of hourly
//! task-time, normalized by the per-workload median, next to two
//! reference sinusoids.
//!
//! Published shape: every workload's extremes sit orders of magnitude from
//! its median (peak-to-median 9:1 … 260:1), far burstier than diurnal
//! sinusoids; FB's ratio dropped 31:1 → 9:1 between 2009 and 2010.

use crate::battery::{ExperimentResult, BURSTINESS_PERCENTILES, BURSTINESS_SIGNALS};
use crate::render::ratio;
use crate::{Corpus, TraceContext};
use swim_core::burstiness::{sine_reference, Burstiness};
use swim_obs::doc::Section;
use swim_obs::render::Table;

/// One burstiness table: a row per workload measuring `signal`, then the
/// two sinusoid references.
fn signal_table(cells: &[(&TraceContext, ExperimentResult)], signal: &str) -> Table {
    let mut header = vec!["Signal".to_owned()];
    header.extend(BURSTINESS_PERCENTILES.map(|p| format!("p{p}")));
    header.extend(["peak".to_owned(), "peak:median".to_owned()]);
    let mut table = Table::new(header);
    let peak = format!("{signal} peak:median");
    let mut rows: Vec<(String, Vec<f64>, f64)> = Vec::new();
    for (ctx, r) in cells.iter().filter(|(_, r)| r.get(&peak).is_some()) {
        let ratios = BURSTINESS_PERCENTILES.map(|p| r.number(&format!("{signal} p{p}")));
        rows.push((ctx.label().to_owned(), ratios.to_vec(), r.number(&peak)));
    }
    let hours = 24 * 14;
    for (name, offset) in [("sine + 2", 2.0), ("sine + 20", 20.0)] {
        if let Some(b) = Burstiness::of(&sine_reference(offset, hours), &BURSTINESS_PERCENTILES) {
            let ratios = b.points.iter().map(|p| p.ratio).collect();
            rows.push((name.to_owned(), ratios, b.peak_to_median));
        }
    }
    for (name, ratios, peak_to_median) in rows {
        let mut row = vec![name];
        row.extend(ratios.iter().map(|r| format!("{r:.2}")));
        row.push(format!("{peak_to_median:.1}"));
        row.push(ratio(peak_to_median));
        table.row(row);
    }
    table
}

/// Build the Figure 8 document.
pub fn doc(corpus: &Corpus) -> Section {
    let mut section = Section::new("Figure 8: Burstiness — hourly load normalized by median");
    let cells = corpus.cells("fig8");
    section.captioned_table(
        "Task-time per hour (the paper's signal):",
        signal_table(&cells, BURSTINESS_SIGNALS[0]),
    );
    section.prose("\n");
    section.captioned_table(
        "Job submissions per hour (arrival-process burstiness, where the \
         per-workload Fig. 8 calibration shows through directly):",
        signal_table(&cells, BURSTINESS_SIGNALS[1]),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::test_corpus;
    use crate::Value;
    use swim_trace::trace::WorkloadKind;

    /// Peak-to-median of the *submission* signal — the dimension the
    /// arrival calibration controls directly (the task-time signal is
    /// dominated by job-size tails at reduced corpus scale).
    fn p2m(kind: &WorkloadKind) -> f64 {
        let fig8 = test_corpus().cell("fig8", kind);
        fig8.get("submissions peak:median")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    /// Task-time peak-to-median per workload that has one.
    fn task_time_p2m() -> Vec<(String, f64)> {
        let cells = test_corpus().cells("fig8");
        let peak = "task-time peak:median";
        let measured = cells.iter().filter(|(_, r)| r.get(peak).is_some());
        measured
            .map(|(ctx, r)| (ctx.label().to_owned(), r.number(peak)))
            .collect()
    }

    #[test]
    fn workloads_are_burstier_than_sines() {
        let sine = Burstiness::of(&sine_reference(2.0, 24 * 14), &[])
            .unwrap()
            .peak_to_median;
        let above = task_time_p2m()
            .iter()
            .filter(|(_, p2m)| *p2m > 2.0 * sine)
            .count();
        assert!(
            above >= 5,
            "only {above}/7 workloads beat the sine reference"
        );
    }

    #[test]
    fn fb2010_less_bursty_than_fb2009() {
        let fb09 = p2m(&WorkloadKind::Fb2009);
        let fb10 = p2m(&WorkloadKind::Fb2010);
        assert!(
            fb10 < fb09,
            "FB-2010 {fb10:.1}:1 should be below FB-2009 {fb09:.1}:1"
        );
    }

    #[test]
    fn peak_ratios_in_published_band() {
        // The paper's band is 9:1 … 260:1; allow slack for the short quick
        // corpus, but insist on double digits somewhere and > 3 everywhere.
        let mut max = 0.0f64;
        for (label, p2m) in task_time_p2m() {
            max = max.max(p2m);
            assert!(p2m > 2.0, "{label}: {p2m:.1}:1 too flat");
        }
        assert!(max > 10.0, "max peak-to-median {max:.1}:1");
    }
}
