//! Determinism tests for the wave-scheduled engine.
//!
//! `GOLDEN_FIFO_LATENCIES` was produced by the original per-task engine
//! (pre-wave refactor, commit 57c26ca) on a plan whose task-time budgets
//! divide evenly by their task counts — the regime where that engine's
//! per-task ceil-rounding was already exact. The wave engine must
//! reproduce those latencies bit-for-bit: the refactor provably
//! preserves semantics for unbatched jobs. The per-task engine's own
//! parity with the wave engine is tested beside it, in `src/reference.rs`.

#[path = "support/seeded.rs"]
mod seeded;

use seeded::{seeded_plan, GOLDEN_FIFO_LATENCIES};
use swim_sim::{SimConfig, Simulator};
use swim_trace::{DataSize, PathId};

#[test]
fn golden_fifo_latencies_preserved_across_wave_refactor() {
    let plan = seeded_plan(2012, 200, true);
    let r = Simulator::new(SimConfig::new(4)).run(&plan);
    let lats: Vec<u64> = r.outcomes.iter().map(|o| o.latency().secs()).collect();
    assert_eq!(lats, GOLDEN_FIFO_LATENCIES);
}

#[test]
fn identical_runs_produce_identical_results() {
    use swim_sim::CachePolicy;
    for seed in [3u64, 99, 2024] {
        let mut plan = seeded_plan(seed, 150, false);
        for (i, job) in plan.jobs.iter_mut().enumerate() {
            job.input_file = Some(PathId((i % 17) as u64));
        }
        for cfg in [
            SimConfig::new(4),
            SimConfig::new(4).fair(),
            SimConfig::new(2).with_cache(CachePolicy::Lru, DataSize::from_gb(1)),
        ] {
            let a = Simulator::new(cfg).run(&plan);
            let b = Simulator::new(cfg).run(&plan);
            assert_eq!(a, b, "seed {seed} cfg {cfg:?}");
        }
    }
}

#[test]
fn slot_seconds_are_exact_on_seeded_plans() {
    for seed in [5u64, 11] {
        let plan = seeded_plan(seed, 100, false);
        let total: u64 = plan
            .jobs
            .iter()
            .map(|j| j.map_task_time.secs() + j.reduce_task_time.secs())
            .sum();
        let r = Simulator::new(SimConfig::new(4)).run(&plan);
        assert_eq!(r.slot_seconds, total as f64, "seed {seed}");
    }
}
