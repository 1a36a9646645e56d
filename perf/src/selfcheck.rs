//! `swim-perf selfcheck`: does the benchmark agree with itself?
//!
//! Two sets of runs of the same binary, interleaved A B A B … so that
//! machine drift lands on both, each run with another seed. A metric
//! whose two set medians differ by more than half its bound cannot
//! resolve a regression of the size the bound promises, and fails the
//! check. The fix is more or longer rounds, fewer threads, or demoting
//! the metric to per-layer, never a wider bound.

use crate::metrics::{RunOutput, RUN_METRICS};
use crate::stats::{quartiles, range_over_median, spread};
use crate::workload::Workload;

/// The value of run metric `name` in `output`, bounded or not.
fn value_of(output: &RunOutput, name: &str) -> Result<f64, String> {
    output
        .metrics
        .iter()
        .chain(&output.unbounded)
        .find(|m| m.name == name)
        .map(|m| m.value)
        .ok_or_else(|| format!("the run did not report {name}"))
}

/// Run the check; `Ok(true)` when every end-to-end metric of every
/// workload passes. The demoted metrics are tabled beside them, so the
/// evidence for each demotion is in the same print-out.
pub fn selfcheck(
    workloads: &[Workload],
    runs: usize,
    mut run: impl FnMut(Workload, u64) -> Result<RunOutput, String>,
) -> Result<bool, String> {
    if runs < 5 {
        return Err("selfcheck needs at least 5 runs per set".into());
    }
    let mut pass = true;
    for &workload in workloads {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); RUN_METRICS.len()]; 2];
        for i in 0..runs {
            for set in values.iter_mut() {
                let output = run(workload, 1 + i as u64)?;
                if !output.correct {
                    eprintln!("selfcheck: {} run {i} was not correct", workload.name());
                    pass = false;
                }
                for (slot, metric) in set.iter_mut().zip(&RUN_METRICS) {
                    slot.push(value_of(&output, metric.name)?);
                }
            }
        }
        println!(
            "\n{} — two interleaved sets of {runs} runs",
            workload.name()
        );
        println!(
            "  {:<22} {:>6} {:>3}  {:>12} {:>12} {:>12}  {:>7} {:>9}  {:>8} {:>6}",
            "metric",
            "better",
            "set",
            "q1",
            "median",
            "q3",
            "iqr/med",
            "range/med",
            "A-vs-B",
            "bound"
        );
        for (m, metric) in RUN_METRICS.iter().enumerate() {
            let mut medians = [0.0f64; 2];
            for (s, name) in ["A", "B"].iter().enumerate() {
                let sample = &values[s][m];
                let (q1, mid, q3) = quartiles(sample).ok_or("too few runs")?;
                medians[s] = mid;
                let disagreement = if s == 1 {
                    format!("{:>7.2}%", relative_gap(medians) * 100.0)
                } else {
                    String::new()
                };
                println!(
                    "  {:<22} {:>6} {:>3}  {:>12.4} {:>12.4} {:>12.4}  {:>6.2}% {:>8.2}%  {:>8} {:>6}",
                    if s == 0 { metric.name } else { "" },
                    if s == 0 { metric.better } else { "" },
                    name,
                    q1,
                    mid,
                    q3,
                    spread(sample).unwrap_or(0.0) * 100.0,
                    range_over_median(sample).unwrap_or(0.0) * 100.0,
                    disagreement,
                    metric
                        .bound
                        .map_or_else(|| "none".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                );
            }
            let Some(bound) = metric.bound else { continue };
            if relative_gap(medians) > bound / 2.0 {
                println!(
                    "  ^ FAIL: set medians differ by more than half the bound ({:.1}%)",
                    bound * 50.0
                );
                pass = false;
            }
        }
    }
    Ok(pass)
}

/// `|a - b|` as a share of the smaller median.
fn relative_gap(medians: [f64; 2]) -> f64 {
    let [a, b] = medians;
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    /// A run in which every metric reads 100, except metric `odd`,
    /// which reads `100 * scale`.
    fn output(odd: usize, scale: f64) -> RunOutput {
        RunOutput {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: RUN_METRICS
                .iter()
                .enumerate()
                .map(|(m, metric)| Metric {
                    name: metric.name.to_owned(),
                    unit: metric.unit,
                    value: if m == odd { 100.0 * scale } else { 100.0 },
                })
                .collect(),
            unbounded: Vec::new(),
        }
    }

    /// Set B is every second run; it reads `gap` high on metric `odd`.
    fn check_with_gap(odd: usize, gap: f64) -> Result<bool, String> {
        let mut call = 0;
        selfcheck(&[Workload::ServeCached], 5, |_, _| {
            call += 1;
            Ok(output(odd, if call % 2 == 0 { 1.0 + gap } else { 1.0 }))
        })
    }

    #[test]
    fn each_metric_fails_beyond_half_its_own_bound() {
        for (m, metric) in RUN_METRICS.iter().enumerate() {
            let Some(bound) = metric.bound else {
                // A demoted metric is tabled, never failed.
                assert_eq!(check_with_gap(m, 0.9), Ok(true), "{}", metric.name);
                continue;
            };
            assert_eq!(
                check_with_gap(m, bound * 0.4),
                Ok(true),
                "{}: a gap of 0.4 bounds passes",
                metric.name
            );
            assert_eq!(
                check_with_gap(m, bound * 0.6),
                Ok(false),
                "{}: a gap of 0.6 bounds fails",
                metric.name
            );
        }
        assert!(selfcheck(&[Workload::ServeCached], 4, |_, _| Ok(output(0, 1.0))).is_err());
        assert!((relative_gap([100.0, 103.0]) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn an_incorrect_run_fails_the_check() {
        let wrong = selfcheck(&[Workload::ServeCached], 5, |_, seed| {
            let mut out = output(0, 1.0);
            out.correct = seed != 3;
            Ok(out)
        });
        assert_eq!(wrong, Ok(false));
    }
}
