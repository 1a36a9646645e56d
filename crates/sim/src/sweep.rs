//! Parallel what-if scenario sweeps: run one replay plan across a grid
//! of scheduler × cache × cluster-size scenarios, fanned out over OS
//! threads.
//!
//! The paper's §7 replay methodology exists to answer *what-if*
//! questions ("would a fair scheduler help?", "how much cache is
//! enough?", "could half the nodes carry this load?"). A single
//! simulation is embarrassingly independent of the next, so a grid of
//! them parallelizes perfectly: the grid is one [`swim_obs::par_map`]
//! over scenario indices, so results land in grid order and the output
//! is deterministic and independent of thread scheduling.

use crate::cache::CachePolicy;
use crate::engine::{SimConfig, SimResult, Simulator};
use crate::replay::ReplayPlan;
use crate::scheduler::SchedulerKind;
use swim_trace::DataSize;

/// A cross-product grid of simulation scenarios.
///
/// Scenario order (and therefore sweep output order) is the
/// lexicographic product `nodes × schedulers × caches`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// Cluster sizes to try.
    pub nodes: Vec<u32>,
    /// Scheduling policies to try.
    pub schedulers: Vec<SchedulerKind>,
    /// Cache tiers to try (`None` = no cache).
    pub caches: Vec<Option<(CachePolicy, DataSize)>>,
}

impl ScenarioGrid {
    /// Grid over the given cluster sizes, FIFO-only and cache-less until
    /// widened with [`schedulers`](Self::schedulers) /
    /// [`caches`](Self::caches).
    pub fn new(nodes: Vec<u32>) -> Self {
        ScenarioGrid {
            nodes,
            schedulers: vec![SchedulerKind::Fifo],
            caches: vec![None],
        }
    }

    /// Set the scheduler axis.
    pub fn schedulers(mut self, schedulers: Vec<SchedulerKind>) -> Self {
        self.schedulers = schedulers;
        self
    }

    /// Set the cache axis.
    pub fn caches(mut self, caches: Vec<Option<(CachePolicy, DataSize)>>) -> Self {
        self.caches = caches;
        self
    }

    /// Number of scenarios in the grid.
    pub fn len(&self) -> usize {
        self.nodes.len() * self.schedulers.len() * self.caches.len()
    }

    /// `true` iff the grid has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the grid as simulator configurations, in scenario
    /// order.
    pub fn configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &nodes in &self.nodes {
            for &scheduler in &self.schedulers {
                for &cache in &self.caches {
                    out.push(SimConfig {
                        nodes,
                        scheduler,
                        cache,
                    });
                }
            }
        }
        out
    }
}

/// One sweep cell: the scenario and its replay result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The scenario configuration.
    pub config: SimConfig,
    /// The replay result under that scenario.
    pub result: SimResult,
}

impl Simulator {
    /// Replay `plan` under every scenario of `grid` in parallel.
    ///
    /// One [`swim_obs::par_map`] over the grid on every core: thread
    /// count and scheduling never affect which scenario computes what;
    /// results are returned in grid order and are bit-identical to
    /// running each scenario serially.
    pub fn sweep(grid: &ScenarioGrid, plan: &ReplayPlan) -> Vec<SweepCell> {
        let configs = grid.configs();
        swim_obs::par_map(configs.len(), swim_obs::cores(), |i| SweepCell {
            config: configs[i],
            result: Simulator::new(configs[i]).run(plan),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayJob;
    use swim_trace::{Dur, PathId};

    fn small_plan() -> ReplayPlan {
        let jobs = (0..40)
            .map(|i| ReplayJob {
                gap: Dur::from_secs(7 * (i % 5)),
                input_file: Some(PathId(i % 3)),
                input: DataSize::from_mb(32 + 13 * (i % 11)),
                shuffle: DataSize::from_mb(4),
                output: DataSize::from_mb(8),
                map_task_time: Dur::from_secs(50 + 17 * i),
                reduce_task_time: Dur::from_secs(10 + i),
                map_tasks: 1 + (i % 9) as u32,
                reduce_tasks: (i % 3) as u32,
            })
            .collect();
        ReplayPlan {
            name: "sweep-test".into(),
            machines: 4,
            jobs,
        }
    }

    fn twelve_cell_grid() -> ScenarioGrid {
        ScenarioGrid::new(vec![2, 4])
            .schedulers(vec![SchedulerKind::Fifo, SchedulerKind::Fair])
            .caches(vec![
                None,
                Some((CachePolicy::Lru, DataSize::from_gb(1))),
                Some((CachePolicy::Unlimited, DataSize::ZERO)),
            ])
    }

    #[test]
    fn grid_len_is_cross_product() {
        let grid = twelve_cell_grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid.configs().len(), 12);
        assert!(!grid.is_empty());
        assert!(ScenarioGrid::new(vec![]).is_empty());
    }

    #[test]
    fn sweep_matches_serial_execution_bit_for_bit() {
        let grid = twelve_cell_grid();
        let plan = small_plan();
        let swept = Simulator::sweep(&grid, &plan);
        assert_eq!(swept.len(), 12);
        for (cell, config) in swept.iter().zip(grid.configs()) {
            assert_eq!(cell.config, config, "grid order preserved");
            let serial = Simulator::new(config).run(&plan);
            assert_eq!(cell.result, serial, "{config:?}");
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let grid = twelve_cell_grid();
        let plan = small_plan();
        assert_eq!(
            Simulator::sweep(&grid, &plan),
            Simulator::sweep(&grid, &plan)
        );
    }

    #[test]
    fn empty_grid_sweeps_to_nothing() {
        let grid = ScenarioGrid::new(vec![]);
        assert!(Simulator::sweep(&grid, &small_plan()).is_empty());
    }

    #[test]
    fn cache_axis_reaches_the_simulation() {
        let grid = ScenarioGrid::new(vec![4])
            .caches(vec![None, Some((CachePolicy::Unlimited, DataSize::ZERO))]);
        let cells = Simulator::sweep(&grid, &small_plan());
        assert!(cells[0].result.cache.is_none());
        let stats = cells[1].result.cache.expect("cache configured");
        assert!(stats.hits > 0, "shared paths must hit the unlimited cache");
    }
}
