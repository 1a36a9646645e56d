//! Pins the bytes of the benchmark fixture's write path: the recipe
//! `swim-perf` builds every fixture from (`multitenant-saas` over 90
//! days, a job budget of three times the fixture, chunks of 4096 jobs,
//! the stream cut after N jobs, N/32 jobs per shard, seed 1), streamed
//! through `Catalog::ingest_stream`. The digest and total of the shard
//! bytes are pinned, and the same jobs collected into a `Trace` first
//! and written by `Catalog::ingest_trace` must give the same shards, so
//! nothing on the streaming path may change a byte.
//!
//! N is 2^16 under `debug_assertions` and 2^20, the benchmark's own
//! fixture, in release.

use std::path::{Path, PathBuf};
use swim_catalog::{Catalog, CatalogOptions};
use swim_scenario::{presets, ScenarioStream};
use swim_trace::{Job, Trace};

const CHUNK: usize = 4096;
const SHARDS: u64 = 32;

/// (jobs, total shard bytes, FNV-1a of the shard bytes in manifest order).
const PIN: (u64, u64, u64) = if cfg!(debug_assertions) {
    (1 << 16, 939_719, 0xd764_2260_c1f0_2d53)
} else {
    (1 << 20, 14_371_181, 0x3b0d_0073_ee8f_d782)
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swim-write-path-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale temp dir");
    }
    dir
}

fn fixture_stream(jobs: u64) -> ScenarioStream {
    let mut scenario = presets::find("multitenant-saas").expect("preset exists");
    scenario.days = 90.0;
    ScenarioStream::new(&scenario, 1, 3 * jobs)
        .expect("valid scenario")
        .chunk_size(CHUNK)
}

/// The shard files' contents, in manifest order.
fn shard_bytes(dir: &Path) -> Vec<Vec<u8>> {
    let catalog = Catalog::open(dir).expect("open catalog");
    let shards = catalog.shards().iter();
    shards
        .map(|s| std::fs::read(dir.join(&s.file)).expect("read shard"))
        .collect()
}

fn fnv1a(shards: &[Vec<u8>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in shards.iter().flatten() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn fixture_shards_are_pinned_and_independent_of_the_ingest_path() {
    let (jobs, pinned_bytes, pinned_digest) = PIN;
    let options = CatalogOptions {
        jobs_per_shard: (jobs / SHARDS) as u32,
        ..CatalogOptions::default()
    };

    let streamed = temp_dir("stream");
    let mut stream = fixture_stream(jobs);
    let (kind, machines) = (stream.kind().clone(), stream.machines());
    let mut catalog = Catalog::init(&streamed).expect("init catalog");
    let blocks = (&mut stream).take(jobs as usize / CHUNK);
    let ingest = catalog
        .ingest_stream(kind.clone(), machines, blocks, &options)
        .expect("ingest stream");
    assert_eq!((ingest.jobs, ingest.shards as u64), (jobs, SHARDS));
    drop(stream);

    let collected = temp_dir("trace");
    let all: Vec<Job> = fixture_stream(jobs).flatten().take(jobs as usize).collect();
    let trace = Trace::new(kind, machines, all).expect("valid trace");
    let mut catalog = Catalog::init(&collected).expect("init catalog");
    catalog
        .ingest_trace(&trace, &options)
        .expect("ingest trace");
    drop(trace);

    let shards = shard_bytes(&streamed);
    assert!(
        shards == shard_bytes(&collected),
        "ingest_stream and ingest_trace wrote different shards"
    );
    let total: u64 = shards.iter().map(|s| s.len() as u64).sum();
    assert_eq!((total, fnv1a(&shards)), (pinned_bytes, pinned_digest));
    for dir in [streamed, collected] {
        std::fs::remove_dir_all(dir).expect("remove temp dir");
    }
}
