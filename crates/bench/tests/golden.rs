//! Golden-output pins: the exact bytes each experiment's `run` printed
//! before the document-model refactor, regenerated from the
//! deterministic quick corpus (seed 17 — the same corpus the unit smoke
//! tests share), and the metrics document `swim-analyze --demo --export`
//! writes.
//!
//! Regenerate after an *intentional* output change with
//!
//! ```sh
//! SWIM_REGEN_GOLDEN=1 cargo test -p swim-bench --test golden
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use std::process::Command;
use swim_bench::{experiments, Corpus, CorpusScale};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn analyze_demo_export_is_bit_identical_to_golden() {
    let out = std::env::temp_dir().join(format!("swim-analyze-demo-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_swim-analyze"))
        .args(["--demo", "--export"])
        .arg(&out)
        .output()
        .expect("run swim-analyze")
        .status;
    assert!(status.success(), "swim-analyze --demo --export failed");
    let exported = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    let path = golden_dir().join("analyze-demo.json");
    if std::env::var_os("SWIM_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &exported).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert!(
        exported == golden,
        "swim-analyze --demo --export drifted from {}",
        path.display()
    );
}

#[test]
fn experiment_output_is_bit_identical_to_golden() {
    let corpus = Corpus::build(CorpusScale::Quick, 17);
    let regen = std::env::var_os("SWIM_REGEN_GOLDEN").is_some();
    let dir = golden_dir();
    if regen {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut mismatches = Vec::new();
    for id in experiments::ALL {
        let report = experiments::run(id, &corpus).expect(id);
        let path = dir.join(format!("{id}.txt"));
        if regen {
            std::fs::write(&path, &report).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        if report != golden {
            // Report the first differing line so drift is diagnosable
            // without dumping multi-KB reports into the failure message.
            let diff = report
                .lines()
                .zip(golden.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(n, (a, b))| format!("line {}: got {a:?}, golden {b:?}", n + 1))
                .unwrap_or_else(|| {
                    format!(
                        "lengths differ: got {} bytes, golden {}",
                        report.len(),
                        golden.len()
                    )
                });
            mismatches.push(format!("{id}: {diff}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "experiment output drifted from golden pins:\n{}",
        mismatches.join("\n")
    );
}
