//! Golden pins for the scenario CLI surfaces.
//!
//! Two pins, exercised by the CI test job through the `swim-scenario`
//! binary and here through the library (both paths produce the same
//! bytes by construction):
//!
//! 1. `tests/golden/describe-bursty-telecom.txt` — the `describe`
//!    output for one preset (every preset's description is additionally
//!    checked for determinism);
//! 2. `tests/golden/compare-study.md` — the cross-scenario study over
//!    five presets at seed 42, 800 jobs per scenario.
//!
//! Regenerate after an intentional change with
//!
//! ```sh
//! SWIM_REGEN_GOLDEN=1 cargo test -p swim-scenario --test golden
//! ```

use std::path::PathBuf;
use swim_scenario::{presets, StudyOptions};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The preset list the CI `compare` golden runs over (≥ 4 presets, per
/// the acceptance bar; covers multi-tenant and both overlays).
pub const STUDY_PRESETS: &str =
    "steady-retail,bursty-telecom,heavytail-adtech,multitenant-saas,retrystorm-fintech";

fn assert_matches_golden(name: &str, produced: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("SWIM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if produced != golden {
        let diff = produced
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(n, (a, b))| format!("line {}: got {a:?}, golden {b:?}", n + 1))
            .unwrap_or_else(|| {
                format!(
                    "lengths differ: got {} bytes, golden {}",
                    produced.len(),
                    golden.len()
                )
            });
        panic!("{name} drifted from golden pin: {diff}");
    }
}

#[test]
fn describe_matches_golden() {
    let scenario = presets::find("bursty-telecom").expect("preset exists");
    assert_matches_golden("describe-bursty-telecom.txt", &scenario.describe());
}

#[test]
fn compare_study_matches_golden() {
    let scenarios: Vec<_> = STUDY_PRESETS
        .split(',')
        .map(|name| presets::find(name).expect("study preset exists"))
        .collect();
    assert!(
        scenarios.len() >= 4,
        "the study must span at least 4 presets"
    );
    let options = StudyOptions {
        seed: 42,
        jobs_per_scenario: 800,
        ..Default::default()
    };
    let report = swim_scenario::compare(&scenarios, &options).expect("study runs");
    let md = swim_obs::markdown::render_report(&report);
    // Thread-count independence: the golden must not depend on the
    // battery's parallelism.
    let serial = swim_scenario::compare(
        &scenarios,
        &StudyOptions {
            threads: Some(1),
            ..options
        },
    )
    .expect("serial study runs");
    assert_eq!(
        md,
        swim_obs::markdown::render_report(&serial),
        "study output depends on thread count"
    );
    assert_matches_golden("compare-study.md", &md);
}
