//! Golden pin for the cross-trace comparison report over the two bundled
//! sample traces (`testdata/sample-a.csv`, `testdata/sample-b.swim`).
//!
//! Three properties are enforced together:
//!
//! 1. the Markdown output matches `testdata/golden-report.md` byte for
//!    byte (the CI docs job runs the `swim-report` binary against the
//!    same pin),
//! 2. serial and parallel execution produce identical documents,
//! 3. repeated runs are deterministic.
//!
//! Regenerate after an intentional change with
//!
//! ```sh
//! SWIM_REGEN_GOLDEN=1 cargo test -p swim-report --test golden_report
//! ```

use std::path::PathBuf;
use swim_obs::markdown;
use swim_report::{Comparison, TraceContext};

fn testdata() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata")
}

fn load_samples() -> Vec<TraceContext> {
    vec![
        TraceContext::load(testdata().join("sample-a.csv"), 100).expect("sample-a"),
        TraceContext::load(testdata().join("sample-b.swim"), 100).expect("sample-b"),
    ]
}

#[test]
fn sample_report_matches_golden_and_is_parallel_deterministic() {
    let comparison = Comparison::new(load_samples());
    let serial = comparison.run_with_threads(1).expect("samples read");
    let parallel = comparison.run_with_threads(8).expect("samples read");
    assert_eq!(serial, parallel, "serial vs parallel document drift");

    let md = markdown::render_report(&serial);
    assert_eq!(
        md,
        markdown::render_report(&parallel),
        "rendered Markdown differs between serial and parallel runs"
    );

    let golden_path = testdata().join("golden-report.md");
    if std::env::var_os("SWIM_REGEN_GOLDEN").is_some() {
        std::fs::write(&golden_path, &md).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden report {}: {e}", golden_path.display()));
    if md != golden {
        let diff = md
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(n, (a, b))| format!("line {}: got {a:?}, golden {b:?}", n + 1))
            .unwrap_or_else(|| {
                format!(
                    "lengths differ: got {} bytes, golden {}",
                    md.len(),
                    golden.len()
                )
            });
        panic!("cross-trace report drifted from golden pin: {diff}");
    }
}

#[test]
fn sample_report_covers_both_traces_and_all_experiments() {
    let report = Comparison::new(load_samples()).run().expect("samples read");
    let md = markdown::render_report(&report);
    assert!(md.contains("| sample-a |"), "CSV trace row missing");
    assert!(md.contains("| sample-b |"), "store trace row missing");
    for heading in [
        "## Table 1: Trace summaries",
        "## Figure 7: Weekly behaviour",
        "## SWIM: synthesize one day",
    ] {
        assert!(md.contains(heading), "missing {heading}");
    }
    // The store-backed trace answers Table 1 via a column plan: its summary
    // must carry the store's own metadata (CC-b, 300 machines), not the
    // CSV defaults.
    assert!(md.contains("| sample-b | CC-b | 300 |"), "{md}");
}
