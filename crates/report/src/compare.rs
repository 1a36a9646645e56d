//! The cross-trace comparison pipeline: fan the [`crate::battery`] across
//! N traces in parallel and assemble one [`Report`].
//!
//! The paper's actual deliverable is the *comparison* — the same analysis
//! battery over seven industrial workloads side by side. This module
//! generalizes that to any set of traces: every trace × experiment cell
//! is an independent measurement, so the grid is one
//! [`swim_obs::par_map`] over cell indices (the same fan-out as
//! `swim-sim`'s scenario sweeps and `swim-query`'s chunk folds) and
//! results land in grid order. Thread count and scheduling therefore
//! never affect the output: a parallel run is bit-identical to a serial
//! one, and the rendered document is deterministic across runs.

use crate::battery::{ExperimentResult, TraceContext, Value, BATTERY};
use swim_obs::doc::{Block, Report, Section};
use swim_obs::render::Table;

/// A configured comparison over a set of traces.
pub struct Comparison {
    contexts: Vec<TraceContext>,
}

impl Comparison {
    /// Compare the given traces (report rows keep this order).
    pub fn new(contexts: Vec<TraceContext>) -> Comparison {
        Comparison { contexts }
    }

    /// Run the full battery over every trace on all cores and assemble
    /// the comparison report. A trace that opened but cannot be read (a
    /// damaged store or shard) is an error naming it.
    pub fn run(&self) -> Result<Report, String> {
        self.run_with_threads(swim_obs::cores())
    }

    /// Run with an explicit worker count; `1` is the serial path — the
    /// caller measuring every cell in grid order. The result is
    /// bit-identical for every thread count (of several failing cells,
    /// the first in grid order is reported).
    pub fn run_with_threads(&self, threads: usize) -> Result<Report, String> {
        // Every trace × experiment cell, in grid order
        // (experiment-major: cell `e * n_traces + t`), claimed last first:
        // the long cells (table2, swim) end the battery, and the swim
        // cell's own pass over the jobs then runs beside the pass the
        // path, name and job-type cells share, not queued behind it.
        let n_traces = self.contexts.len();
        let n = BATTERY.len() * n_traces;
        let mut cells = swim_obs::par_map(n, threads, |j| {
            let i = n - 1 - j;
            (BATTERY[i / n_traces].run)(&self.contexts[i % n_traces])
        });
        cells.reverse();
        let cells: Vec<ExperimentResult> = cells.into_iter().collect::<Result<_, _>>()?;
        Ok(self.assemble(&cells))
    }

    /// Assemble the report from measured cells (pure; grid order in,
    /// presentation order out).
    fn assemble(&self, cells: &[ExperimentResult]) -> Report {
        let mut report = Report::new(format!(
            "Cross-trace comparison — {} trace{}",
            self.contexts.len(),
            if self.contexts.len() == 1 { "" } else { "s" }
        ));
        // No separate overview section: the battery's leading `table1`
        // entry *is* the per-trace summary table (computed by a query
        // plan over the columns for store inputs), so rendering both would print
        // the same rows twice.
        for (e, exp) in BATTERY.iter().enumerate() {
            let row = &cells[e * self.contexts.len()..(e + 1) * self.contexts.len()];
            report.push(self.experiment_section(exp.title, row));
        }
        report
    }

    /// One experiment's comparison section: a trace×metric table, series
    /// sparklines grouped per series name, and a note for skipped traces.
    fn experiment_section(&self, title: &str, row: &[ExperimentResult]) -> Section {
        let mut section = Section::new(title);

        // Column union in first-appearance order across traces.
        let mut columns: Vec<&str> = Vec::new();
        for result in row {
            for metric in result.metrics() {
                if !columns.contains(&metric.name.as_str()) {
                    columns.push(&metric.name);
                }
            }
        }

        if !columns.is_empty() {
            let mut header = vec!["Trace".to_owned()];
            header.extend(columns.iter().map(|c| (*c).to_owned()));
            let mut table = Table::new(header);
            for (ctx, result) in self.contexts.iter().zip(row) {
                if result.is_skipped() {
                    continue;
                }
                let mut cells = vec![ctx.label().to_owned()];
                let shown = |col| {
                    result
                        .get(col)
                        .map_or_else(|| "-".to_owned(), Value::render)
                };
                cells.extend(columns.iter().map(|col| shown(col)));
                table.row(cells);
            }
            section.table(table);
        }

        // Sparklines: group rows per series name so traces align visually.
        let mut series_names: Vec<&'static str> = Vec::new();
        for result in row {
            for s in result.series() {
                if !series_names.contains(&s.name) {
                    series_names.push(s.name);
                }
            }
        }
        for name in series_names {
            section.prose(format!("{name} per trace:\n"));
            for (ctx, result) in self.contexts.iter().zip(row) {
                if let Some(s) = result.series().iter().find(|s| s.name == name) {
                    section.push(Block::spark(ctx.label().to_owned(), s.values.clone(), ""));
                }
            }
        }

        let skipped: Vec<String> = self
            .contexts
            .iter()
            .zip(row)
            .filter_map(|(ctx, result)| match result {
                ExperimentResult::Skipped(reason) => Some(format!("{} ({reason})", ctx.label())),
                _ => None,
            })
            .collect();
        if !skipped.is_empty() {
            section.prose(format!("Not applicable: {}.\n", skipped.join("; ")));
        }
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

    fn contexts() -> Vec<TraceContext> {
        [(WorkloadKind::CcB, 21u64), (WorkloadKind::CcE, 23)]
            .into_iter()
            .map(|(kind, seed)| {
                let label = kind.label().to_lowercase();
                let trace = WorkloadGenerator::new(
                    GeneratorConfig::new(kind).scale(0.3).days(2.0).seed(seed),
                )
                .generate();
                TraceContext::from_trace(label, trace)
            })
            .collect()
    }

    #[test]
    fn report_has_one_section_per_experiment() {
        let report = Comparison::new(contexts()).run_with_threads(2).unwrap();
        assert_eq!(report.sections.len(), BATTERY.len());
        assert_eq!(report.sections[0].title, "Table 1: Trace summaries");
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let comparison = Comparison::new(contexts());
        let serial = comparison.run_with_threads(1).unwrap();
        let parallel = comparison.run_with_threads(8).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            swim_obs::markdown::render_report(&serial),
            swim_obs::markdown::render_report(&parallel)
        );
    }

    #[test]
    fn runs_are_deterministic_across_invocations() {
        let a = Comparison::new(contexts()).run_with_threads(4).unwrap();
        let b = Comparison::new(contexts()).run_with_threads(3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_trace_appears_in_every_applicable_table() {
        let report = Comparison::new(contexts()).run().unwrap();
        let md = swim_obs::markdown::render_report(&report);
        assert!(md.contains("| cc-b |"));
        assert!(md.contains("| cc-e |"));
        assert!(md.contains("jobs/hr per trace:"));
    }

    #[test]
    fn empty_comparison_produces_headers_only() {
        let report = Comparison::new(Vec::new()).run().unwrap();
        assert_eq!(report.sections.len(), BATTERY.len());
        let md = swim_obs::markdown::render_report(&report);
        assert!(md.contains("# Cross-trace comparison — 0 traces"));
    }
}
