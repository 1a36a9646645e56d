//! swim-serve under load: a 400k-job catalog behind the threaded server,
//! driven by the swim-bench load generator. Two headlines are asserted
//! here so the CI bench smoke enforces them:
//!
//! 1. The server sustains 1,000 concurrent clients of mixed queries with
//!    zero errors and zero overloaded rejections (the queue is sized to
//!    admit the fleet — this measures the server, not the limiter).
//! 2. A warm result-cache pass over 50 distinct queries is at least 2x
//!    faster than the cold pass that populated it.
//!
//! And a third, in counts rather than timings: three passes over those
//! 50 queries render 50 results, the second pass is answered by 50
//! canonical-key hits and the third by 50 line-key hits, with every
//! third-pass body equal to the first-pass body it repeats.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use swim_bench::serveload::{self, LoadConfig};
use swim_catalog::{Catalog, CatalogOptions};
use swim_serve::protocol;
use swim_serve::{serve, ServeOptions};
use swim_store::StoreOptions;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

const SHARDS: u64 = 8;
const JOBS_PER_SHARD: u64 = 50_000;
const DAY: u64 = 86_400;

fn shard_trace(shard: u64) -> Trace {
    let mut state = 0x5EED_CAFE_u64 ^ (shard << 32);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let jobs = (0..JOBS_PER_SHARD)
        .map(|i| {
            let r = next();
            JobBuilder::new(shard * JOBS_PER_SHARD + i)
                .submit(Timestamp::from_secs(shard * DAY + i * DAY / JOBS_PER_SHARD))
                .duration(Dur::from_secs(10 + r % 3600))
                .input(DataSize::from_bytes((r % 1_000_000) * (1 + r % 1024)))
                .map_task_time(Dur::from_secs(20 + r % 7200))
                .tasks(1 + (r % 64) as u32, 0)
                .build()
                .expect("consistent")
        })
        .collect();
    Trace::new_unchecked(WorkloadKind::Custom("bench-serve".into()), 300, jobs)
}

fn build_catalog(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    let mut catalog = Catalog::init(dir).expect("init");
    let options = CatalogOptions {
        jobs_per_shard: JOBS_PER_SHARD as u32,
        store: StoreOptions::default(),
    };
    for shard in 0..SHARDS {
        catalog
            .ingest_trace(&shard_trace(shard), &options)
            .expect("ingest");
    }
}

/// One request over a fresh connection.
fn request(addr: std::net::SocketAddr, line: &str) -> protocol::Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    protocol::write_request(&mut stream, line).expect("write");
    let mut reader = BufReader::new(stream);
    protocol::read_response(&mut reader).expect("read")
}

/// 50 distinct query lines (distinct canonical cache keys).
fn distinct_queries() -> Vec<String> {
    (0..50)
        .map(|i| {
            format!(
                "query --select \"count,sum(total_io)\" --where \"duration >= {}\" --group-by \"submit/{}\" --limit 3",
                10 + i,
                3600 + i * 7,
            )
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("swim-serve-bench-{}", std::process::id()));
    build_catalog(&dir);

    let handle = serve(
        &dir,
        ServeOptions {
            workers: 8,
            queue_depth: 1_100,
            cache_capacity: 256,
            ..ServeOptions::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    // Headline 1: 1,000 concurrent clients, two mixed requests each —
    // zero errors, zero overloaded rejections.
    let config = LoadConfig::new(addr, 1_000, 2);
    let report = serveload::run_load(&config);
    eprintln!(
        "1k-client load: {} requests, {} ok, {} errors, {} overloaded, p50 {:?} us, p99 {:?} us",
        report.requests,
        report.ok,
        report.errors,
        report.overloaded,
        report.latency_us(0.50),
        report.latency_us(0.99),
    );
    assert_eq!(report.ok, report.requests, "every request must succeed");
    assert_eq!(
        report.errors, 0,
        "1k concurrent clients must see zero errors"
    );
    assert_eq!(
        report.overloaded, 0,
        "the queue was sized to admit the fleet"
    );

    // Headline 2: warm result-cache pass ≥2x faster than the cold pass.
    // 50 distinct queries executed serially over one client; the first
    // pass computes and populates, the second is served from cache (by
    // canonical key, which files each line), the third by line key.
    let queries = distinct_queries();
    swim_obs::set_enabled(swim_obs::METRICS);
    let counts = || {
        let snap = swim_obs::snapshot();
        [
            "serve.renders",
            "serve.cache_misses",
            "serve.cache_hits",
            "serve.cache_line_hits",
        ]
        .map(|name| snap.counter(name).unwrap_or(0))
    };
    let pass = |cached: bool| -> Vec<Vec<u8>> {
        queries
            .iter()
            .map(|line| {
                let resp = request(addr, line);
                assert!(resp.ok, "{}", resp.body_text());
                assert_eq!(resp.cached, cached, "{line}");
                resp.body
            })
            .collect()
    };
    let before = counts();
    let (first_bodies, cold) = swim_obs::timed("bench.serve_cold_pass", || pass(false));
    let after_cold = counts();
    let (_, warm) = swim_obs::timed("bench.serve_warm_pass", || pass(true));
    let after_warm = counts();
    let third_bodies = pass(true);
    let after_third = counts();
    swim_obs::set_enabled(0);
    eprintln!(
        "result cache: cold pass {cold:?} vs warm pass {warm:?} => {:.1}x faster",
        cold.as_secs_f64() / warm.as_secs_f64()
    );
    assert!(
        warm * 2 <= cold,
        "warm cache must be at least a 2x win: warm {warm:?} vs cold {cold:?}"
    );
    // [renders, misses, hits, line hits], pass by pass.
    let moved = |from: [u64; 4], to: [u64; 4]| [0, 1, 2, 3].map(|i| to[i] - from[i]);
    assert_eq!(moved(before, after_cold), [50, 50, 0, 0], "cold pass");
    assert_eq!(moved(after_cold, after_warm), [0, 0, 50, 0], "warm pass");
    assert_eq!(moved(after_warm, after_third), [0, 0, 50, 50], "third pass");
    assert_eq!(
        third_bodies, first_bodies,
        "a line hit sends the bytes the miss rendered"
    );

    let mut group = c.benchmark_group("serve_400k_jobs");
    group.sample_size(10);
    group.bench_function("query_warm_cache", |b| {
        b.iter(|| black_box(request(addr, "query --select count")))
    });
    group.finish();

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
