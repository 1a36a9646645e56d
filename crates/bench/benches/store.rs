//! CSV vs `swim-store` on a million-job synthetic trace: ingest cost,
//! whole-trace scan statistics, parallel chunked scans, and a time-range
//! scan that exercises chunk skipping. The final benchmark prints the
//! measured CSV-parse / store-scan speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use swim_store::{store_to_vec, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{io, DataSize, Timestamp, Trace, TraceSummary};

const JOBS: u64 = 1_000_000;
/// One month of submissions at ~23 jobs/minute, FB-2009 scale (Table 1).
const SPAN_SECS: u64 = 30 * 86_400;

/// Deterministic million-job trace in FB-like proportions.
fn million_job_trace() -> Trace {
    let jobs = swim_bench::fixture::lcg_jobs(0x5EED_CAFE, 0..JOBS, 0..SPAN_SECS);
    Trace::new_unchecked(WorkloadKind::Custom("bench-1m".into()), 600, jobs)
}

/// The Table 1 statistic both paths compute, so the comparison is
/// apples-to-apples: full-column scan, no shortcuts.
fn fold_summary(store: &Store) -> TraceSummary {
    store.par_summary().expect("in-memory store")
}

fn bench_ingest(c: &mut Criterion) {
    let trace = million_job_trace();
    let csv = io::to_csv_string(&trace).expect("csv encodes");
    let bytes = store_to_vec(&trace, &StoreOptions::default());
    eprintln!(
        "1M-job trace: csv {:.1} MB, store {:.1} MB ({:.2}x smaller)",
        csv.len() as f64 / 1e6,
        bytes.len() as f64 / 1e6,
        csv.len() as f64 / bytes.len() as f64
    );

    let mut group = c.benchmark_group("ingest_1m_jobs");
    group.sample_size(10);
    group.bench_function("csv_parse_full", |b| {
        b.iter(|| {
            io::from_csv_string(trace.kind.clone(), trace.machines, black_box(&csv))
                .expect("parses")
                .len()
        })
    });
    // Share the encoded image: `from_bytes` on an Arc clone is a refcount
    // bump, so the timed body measures open + decode, not a memcpy.
    let shared: std::sync::Arc<[u8]> = bytes.clone().into();
    group.bench_function("store_read_full", |b| {
        b.iter(|| {
            Store::from_bytes(black_box(shared.clone()))
                .expect("opens")
                .read_trace()
                .expect("decodes")
                .len()
        })
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let trace = million_job_trace();
    let csv = io::to_csv_string(&trace).expect("csv encodes");
    let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).expect("opens");

    let mut group = c.benchmark_group("scan_1m_jobs");
    group.sample_size(10);
    group.bench_function("csv_parse_then_summary", |b| {
        b.iter(|| {
            io::from_csv_string(trace.kind.clone(), trace.machines, black_box(&csv))
                .expect("parses")
                .summary()
        })
    });
    group.bench_function("store_footer_summary", |b| {
        b.iter(|| black_box(&store).summary())
    });
    group.bench_function("store_seq_chunk_scan", |b| {
        b.iter(|| {
            let mut jobs = 0u64;
            let mut bytes = DataSize::ZERO;
            for chunk in black_box(&store).scan().expect("scan") {
                for job in chunk.expect("chunk decodes") {
                    jobs += 1;
                    bytes += job.total_io();
                }
            }
            (jobs, bytes)
        })
    });
    group.bench_function("store_par_scan_summary", |b| {
        b.iter(|| fold_summary(black_box(&store)))
    });
    group.bench_function("store_range_scan_1_day_of_30", |b| {
        b.iter(|| {
            let scan = black_box(&store)
                .scan_range(Timestamp::from_secs(0), Timestamp::from_secs(86_400))
                .expect("scan");
            assert!(scan.skipped_chunks > 0, "range scan must skip chunks");
            scan.jobs().fold(0u64, |n, j| {
                j.expect("decodes");
                n + 1
            })
        })
    });
    group.finish();

    // Headline number: one timed pass each, CSV parse+summary vs parallel
    // store scan computing the same statistic, on the swim-obs clock.
    let (a, csv_time) = swim_obs::timed("bench.csv_parse_summary", || {
        io::from_csv_string(trace.kind.clone(), trace.machines, &csv)
            .expect("parses")
            .summary()
    });
    let (b, store_time) = swim_obs::timed("bench.store_par_scan", || fold_summary(&store));
    assert_eq!(a, b, "both paths must compute the same Table 1 row");
    eprintln!(
        "headline: csv parse+summary {csv_time:?} vs store par_summary {store_time:?} \
         => {:.1}x speedup",
        csv_time.as_secs_f64() / store_time.as_secs_f64()
    );
}

criterion_group!(benches, bench_ingest, bench_scan);
criterion_main!(benches);
