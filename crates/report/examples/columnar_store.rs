//! Columnar store walk-through: persist a generated workload as a
//! `swim-store` file, then answer the paper's Table 1 / Fig. 7 style
//! questions from disk — O(1) from the footer, as a query over a time
//! window (zone maps skip the chunks outside it), and in parallel over
//! all cores.
//!
//! ```text
//! cargo run --release --example columnar_store
//! ```

use swim_query::parse::{parse_aggregates, parse_group_by, parse_predicate};
use swim_query::Query;
use swim_store::{write_store_path, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::DataSize;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

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

    // Persist as a columnar store (small chunks, so a day is a few of
    // them) and drop the in-memory trace.
    let path = std::env::temp_dir().join("fb2010-demo.swim");
    let options = StoreOptions {
        jobs_per_chunk: 256,
    };
    let stats = write_store_path(&trace, &path, &options).expect("write store");
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

    // Jobs and bytes per hour of the first day: the zone maps skip the
    // chunks that hold none of its jobs.
    let mut day = Query::new().filter(parse_predicate("submit < 1d").expect("predicate"));
    for key in parse_group_by("submit / 3600").expect("group by") {
        day = day.group(key);
    }
    for agg in parse_aggregates("count, sum(total_io)").expect("aggregates") {
        day = day.select(agg);
    }
    let out = swim_query::execute(&store, &day).expect("query");
    println!(
        "day query      : reads {} of {} chunks ({} skipped via zone maps)",
        out.stats.chunks_scanned, out.stats.chunks_total, out.stats.chunks_skipped
    );
    for (i, label) in ["day jobs/hour  ", "day bytes/hour "].iter().enumerate() {
        let hourly: Vec<String> = out.rows.iter().map(|r| r.values[i].to_string()).collect();
        println!("{label}: [{}]", hourly.join(", "));
    }

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
