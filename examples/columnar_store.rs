//! Columnar store walk-through: persist a generated workload as a
//! `swim-store` file, then answer the paper's Table 1 / Fig. 7 style
//! questions from disk — O(1) from the footer, streaming for a time
//! window (skipping chunks), and in parallel over all cores.
//!
//! ```text
//! cargo run --release --example columnar_store
//! ```

use swim::prelude::*;
use swim_core::timeseries::HourlySeries;
use swim_store::write_store_path;
use swim_trace::time::WEEK;

fn main() {
    // A week of the FB-2010-like workload at 2 % job scale.
    let trace = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::Fb2010)
            .scale(0.02)
            .days(7.0)
            .seed(11),
    )
    .generate();
    println!("generated      : {} jobs", trace.len());

    // Persist as a columnar store and drop the in-memory trace.
    let path = std::env::temp_dir().join("fb2010-demo.swim");
    let stats = write_store_path(&trace, &path, &StoreOptions::default()).expect("write store");
    println!(
        "stored         : {} chunks, {} bytes ({:.1} B/job)",
        stats.chunks,
        stats.bytes_written,
        stats.bytes_written as f64 / stats.jobs.max(1) as f64
    );
    let expected_summary = trace.summary();
    drop(trace);

    // Reopen: the footer answers Table 1 questions without a scan.
    let store = Store::open(&path).expect("open store");
    let summary = store.summary();
    assert_eq!(summary, expected_summary);
    println!(
        "summary (O(1)) : {} jobs, {} moved over {}",
        summary.jobs, summary.bytes_moved, summary.length
    );

    // Stream one day out of the week; the index skips the other chunks.
    let day = store
        .scan_range(Timestamp::from_secs(0), Timestamp::from_secs(WEEK / 7))
        .expect("range scan");
    println!(
        "day scan       : reads {} of {} chunks ({} skipped via index)",
        day.selected_chunks(),
        store.chunk_count(),
        day.skipped_chunks
    );
    let series = HourlySeries::from_jobs(day.jobs().map(|j| j.expect("chunk decodes")));
    println!("day jobs/hour  : {:?}", &series.jobs);

    // Parallel fold: bytes moved by map-only jobs, across all cores —
    // each worker decodes the chunks it claims through its own reader.
    let map_only_bytes = swim_obs::par_claim(store.chunk_count(), swim_obs::cores(), |claims| {
        let mut reader = store.reader().expect("open store");
        claims.fold(DataSize::ZERO, |acc, idx| {
            let jobs = reader.jobs(idx).expect("chunk decodes");
            let map_only = jobs.iter().filter(|job| job.is_map_only());
            map_only.fold(acc, |acc, job| acc + job.total_io())
        })
    })
    .into_iter()
    .fold(DataSize::ZERO, |a, b| a + b);
    println!("map-only I/O   : {map_only_bytes} (computed with par_claim + reader)");

    std::fs::remove_file(&path).ok();
}
