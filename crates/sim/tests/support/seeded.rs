//! Seeded plans and the pre-wave golden latencies, shared by
//! `tests/determinism.rs` and the per-task engine's parity tests in
//! `src/reference.rs` (which includes this file with `#[path]`).

use rand::{Rng, SeedableRng};
use swim_sim::{ReplayJob, ReplayPlan};
use swim_trace::{DataSize, Dur};

/// A seeded plan of `n` jobs whose task-time budgets divide evenly by
/// their task counts (`divisible = true`), or with adversarial
/// non-divisible budgets exercising the remainder distribution.
pub fn seeded_plan(seed: u64, n: usize, divisible: bool) -> ReplayPlan {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let jobs: Vec<ReplayJob> = (0..n)
        .map(|_| {
            let map_tasks = rng.random_range(1..40u32);
            let per_map = rng.random_range(1..=60u64);
            let reduce_tasks = rng.random_range(0..6u32);
            let per_reduce = rng.random_range(1..=90u64);
            let (map_time, reduce_time) = if divisible {
                (map_tasks as u64 * per_map, reduce_tasks as u64 * per_reduce)
            } else {
                // Arbitrary budgets: remainders almost everywhere.
                (per_map * 37 + 1, per_reduce * 11 + 5)
            };
            ReplayJob {
                gap: Dur::from_secs(rng.random_range(0..120)),
                input_file: None,
                input: DataSize::from_mb(rng.random_range(1..512)),
                shuffle: if reduce_tasks > 0 {
                    DataSize::from_mb(rng.random_range(1..64))
                } else {
                    DataSize::ZERO
                },
                output: DataSize::from_mb(rng.random_range(1..128)),
                map_task_time: Dur::from_secs(map_time),
                reduce_task_time: if reduce_tasks > 0 {
                    Dur::from_secs(reduce_time)
                } else {
                    Dur::ZERO
                },
                map_tasks,
                reduce_tasks,
            }
        })
        .collect();
    ReplayPlan {
        name: "golden".into(),
        machines: 4,
        jobs,
    }
}

/// Per-job latencies (seconds, plan order) of `seeded_plan(2012, 200,
/// true)` on `SimConfig::new(4)` under the pre-wave per-task engine.
pub const GOLDEN_FIFO_LATENCIES: [u64; 200] = [
    90, 81, 48, 170, 103, 82, 37, 98, 152, 200, 188, 173, 60, 60, 112, 101, 139, 199, 145, 122,
    210, 174, 349, 189, 130, 412, 431, 397, 369, 301, 247, 344, 334, 242, 266, 270, 334, 315, 364,
    267, 333, 387, 319, 510, 504, 433, 447, 471, 474, 499, 453, 356, 427, 376, 420, 503, 375, 414,
    385, 680, 592, 638, 523, 548, 536, 440, 371, 385, 316, 432, 299, 326, 372, 378, 310, 274, 186,
    220, 314, 418, 518, 639, 502, 583, 540, 386, 494, 507, 551, 427, 584, 616, 570, 663, 710, 602,
    512, 576, 579, 537, 617, 608, 640, 642, 842, 669, 868, 879, 894, 1144, 1271, 1242, 1331, 1407,
    1431, 1567, 1585, 1748, 1551, 1648, 1771, 1747, 2025, 2038, 2171, 2226, 2201, 2252, 2208, 2261,
    2129, 2352, 2299, 2402, 2292, 2362, 2222, 2282, 2290, 2292, 2291, 2520, 2499, 2481, 2383, 2459,
    2443, 2407, 2428, 2357, 2359, 2330, 2269, 2441, 2300, 2255, 2222, 2153, 2221, 2288, 2300, 2252,
    2300, 2314, 2328, 2499, 2577, 2737, 2786, 2679, 2693, 2704, 2678, 2661, 2703, 2756, 2648, 2697,
    2800, 2795, 2728, 2735, 2680, 2665, 2821, 2918, 2858, 2859, 2788, 2803, 2884, 3014, 2996, 3095,
    3016, 3152, 3106, 3114, 3368, 3438,
];
