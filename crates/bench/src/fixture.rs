//! The synthetic trace the `store`, `query` and `catalog` benches
//! share: FB-like proportions from a fixed LCG, built directly
//! (generating through `swim-workloadgen` at a million jobs would
//! dominate bench startup). Every count those benches assert — chunks,
//! columns decoded, shards pruned — is a function of these jobs.

use std::ops::Range;
use swim_trace::{DataSize, Dur, Job, JobBuilder, Timestamp};

/// One job per id of `ids`, submits spread evenly over `submits`
/// (seconds), every other field drawn from an LCG stream seeded with
/// `seed`.
pub fn lcg_jobs(seed: u64, ids: Range<u64>, submits: Range<u64>) -> Vec<Job> {
    let (count, span_secs) = (ids.end - ids.start, submits.end - submits.start);
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..count)
        .map(|i| {
            let r = next();
            let mut b = JobBuilder::new(ids.start + i)
                .submit(Timestamp::from_secs(submits.start + i * span_secs / count))
                .duration(Dur::from_secs(10 + r % 3600))
                .input(DataSize::from_bytes((r % 1_000_000) * (1 + r % 4096)))
                .output(DataSize::from_bytes(r % 100_000_000))
                .map_task_time(Dur::from_secs(20 + r % 7200))
                .tasks(1 + (r % 300) as u32, (r % 4) as u32);
            if r % 4 > 0 {
                b = b
                    .shuffle(DataSize::from_bytes(r % 10_000_000))
                    .reduce_task_time(Dur::from_secs(5 + r % 900));
            }
            b.build().expect("consistent")
        })
        .collect()
}
