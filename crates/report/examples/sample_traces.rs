//! Regenerate the two bundled sample traces under `testdata/` that the
//! `swim-report` golden test and the CI docs job run against.
//!
//! ```text
//! cargo run --release --example sample_traces
//! ```
//!
//! Run it from the repository root: it writes `./testdata/` relative to
//! the working directory.
//!
//! The traces are small, deterministic slices of two calibrated
//! workloads, stored once in each on-disk format the report pipeline
//! accepts: CSV (no embedded metadata — the loader takes the label from
//! the file stem) and the `swim-store` columnar format (which carries its
//! own workload kind and machine count, and exercises `summary()` plus
//! the numeric cells' query plans on the pipeline's store path).

use swim_store::{write_store_path, StoreOptions};
use swim_trace::io::write_csv;
use swim_trace::trace::WorkloadKind;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

fn main() {
    let dir = std::path::Path::new("testdata");
    std::fs::create_dir_all(dir).expect("create testdata/");

    // Sample A — a CC-e-like slice (paths and names present), as CSV.
    let cc_e = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::CcE)
            .scale(0.2)
            .days(2.0)
            .seed(11),
    )
    .generate();
    let csv_path = dir.join("sample-a.csv");
    let file = std::fs::File::create(&csv_path).expect("create sample-a.csv");
    write_csv(&cc_e, file).expect("write sample-a.csv");
    println!("wrote {} ({} jobs)", csv_path.display(), cc_e.len());

    // Sample B — a CC-b-like slice, as a columnar store.
    let cc_b = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::CcB)
            .scale(0.1)
            .days(1.5)
            .seed(13),
    )
    .generate();
    let store_path = dir.join("sample-b.swim");
    let stats = write_store_path(&cc_b, &store_path, &StoreOptions::default())
        .expect("write sample-b.swim");
    println!(
        "wrote {} ({} jobs, {} chunks, {} bytes)",
        store_path.display(),
        stats.jobs,
        stats.chunks,
        stats.bytes_written
    );
}
