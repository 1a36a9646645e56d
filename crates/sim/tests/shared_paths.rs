//! Cache replays over shared input paths, pinned cell by cell.
//!
//! The plan comes from a seeded trace in which most jobs read one of 17
//! shared files (`PathId(i % 17)`, at sizes that differ from job to job)
//! and the rest read no file at all. Every cache policy runs under FIFO
//! and fair scheduling; each cell's cache statistics, makespan, event
//! count and an FNV-1a digest of its per-job outcomes are pinned, so any
//! change to which file a job reads, at what size, or when, shows here.

use rand::{Rng, SeedableRng};
use swim_sim::{CachePolicy, ReplayPlan, SimConfig, SimResult, Simulator};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, PathId, Timestamp, Trace};

/// 300 jobs over ~10 hours: a quarter read no file, a few are map-less
/// (so they can launch ahead of queued map jobs), and some name a
/// second input path after the first.
fn seeded_trace() -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4_2012);
    let mut submit = 0u64;
    let jobs = (0..300u64)
        .map(|i| {
            submit += rng.random_range(0..120u64);
            let map_tasks = if i % 11 == 5 {
                0
            } else {
                rng.random_range(1..30u32)
            };
            let reduce_tasks = if map_tasks == 0 {
                rng.random_range(1..4u32)
            } else {
                rng.random_range(0..5u32)
            };
            let inputs = match i % 4 {
                0 => vec![],
                1 => vec![PathId(i % 17), PathId(100 + i % 5)],
                _ => vec![PathId(i % 17)],
            };
            let mut job = JobBuilder::new(i)
                .submit(Timestamp::from_secs(submit))
                .duration(Dur::from_secs(60))
                .input(DataSize::from_mb(rng.random_range(1..512u64)))
                .output(DataSize::from_mb(rng.random_range(1..64u64)))
                .tasks(map_tasks, reduce_tasks)
                .input_paths(inputs);
            if map_tasks > 0 {
                job = job.map_task_time(Dur::from_secs(
                    map_tasks as u64 * rng.random_range(1..=90u64) + i % 7,
                ));
            }
            if reduce_tasks > 0 {
                job = job
                    .shuffle(DataSize::from_mb(rng.random_range(1..32u64)))
                    .reduce_task_time(Dur::from_secs(rng.random_range(1..=400u64)));
            }
            job.build().expect("valid job")
        })
        .collect();
    Trace::new(WorkloadKind::CcC, 4, jobs).expect("valid trace")
}

/// FNV-1a over every outcome's job index and timestamps, in plan order.
fn digest(result: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in &result.outcomes {
        let words = [
            o.job as u64,
            o.submit.secs(),
            o.first_start.secs(),
            o.finish.secs(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One pinned cell: policy label, fair scheduler?, `[hits, misses,
/// evictions, makespan (s), heap events]`, outcome digest.
type Pin = (&'static str, bool, [u64; 5], u64);

const PINS: [Pin; 8] = [
    (
        "lru",
        false,
        [12, 288, 280, 24637, 4800],
        0xde884d9ca996d705,
    ),
    ("lru", true, [4, 296, 289, 24783, 4853], 0xb934bb41ab2b814b),
    (
        "lfu",
        false,
        [35, 265, 259, 24637, 4800],
        0xde884d9ca996d705,
    ),
    ("lfu", true, [11, 289, 281, 24783, 4853], 0xb934bb41ab2b814b),
    (
        "threshold",
        false,
        [50, 250, 38, 24637, 4800],
        0xde884d9ca996d705,
    ),
    (
        "threshold",
        true,
        [50, 250, 38, 24783, 4853],
        0xb934bb41ab2b814b,
    ),
    (
        "unlimited",
        false,
        [208, 92, 0, 24637, 4800],
        0xde884d9ca996d705,
    ),
    (
        "unlimited",
        true,
        [208, 92, 0, 24783, 4853],
        0xb934bb41ab2b814b,
    ),
];

#[test]
fn every_policy_and_scheduler_replays_the_pinned_cells() {
    let plan = ReplayPlan::from_trace(&seeded_trace());
    let policies = [
        ("lru", CachePolicy::Lru, DataSize::from_gb(2)),
        ("lfu", CachePolicy::Lfu, DataSize::from_gb(2)),
        (
            "threshold",
            CachePolicy::SizeThreshold {
                threshold: DataSize::from_mb(200),
            },
            DataSize::from_gb(1),
        ),
        ("unlimited", CachePolicy::Unlimited, DataSize::ZERO),
    ];
    let mut cells = Vec::new();
    for (label, policy, capacity) in policies {
        for fair in [false, true] {
            let mut config = SimConfig::new(4).with_cache(policy, capacity);
            if fair {
                config = config.fair();
            }
            let r = Simulator::new(config).run(&plan);
            let c = r.cache.expect("cache configured");
            let figures = [c.hits, c.misses, c.evictions, r.makespan.secs(), r.events];
            cells.push((label, fair, figures, digest(&r)));
        }
    }
    assert_eq!(cells, PINS.to_vec());
}

/// A job that names no input path reads a file of its own, which no
/// path can name: not even the number a per-job placeholder id would
/// have given it.
#[test]
fn a_job_without_an_input_path_never_hits_another_jobs_file() {
    let job = |id: u64, paths: Vec<PathId>| {
        JobBuilder::new(id)
            .submit(Timestamp::from_secs(10 * id))
            .input(DataSize::from_mb(64))
            .input_paths(paths)
            .build()
            .expect("valid job")
    };
    let jobs = vec![job(0, vec![PathId(1_000_000_001)]), job(1, vec![])];
    let trace = Trace::new(WorkloadKind::CcE, 2, jobs).expect("valid trace");
    let config = SimConfig::new(2).with_cache(CachePolicy::Unlimited, DataSize::ZERO);
    let r = Simulator::new(config).run(&ReplayPlan::from_trace(&trace));
    let stats = r.cache.expect("cache configured");
    assert_eq!((stats.hits, stats.misses), (0, 2));
}
