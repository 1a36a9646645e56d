//! `swim-sim`: drive the wave-scheduled replay simulator from the
//! command line — synthesize a workload, replay it across a what-if
//! scenario grid (scheduler × cache × cluster size) in parallel, and
//! print one row per scenario.
//!
//! ```text
//! swim-sim [--workload KIND] [--days F] [--scale F] [--seed N] [--repeat N]
//!          [--nodes 20,50] [--schedulers fifo,fair]
//!          [--caches none,lru:10gb,unlimited] [--per-task]
//! ```
//!
//! Scenario results are deterministic and independent of thread count:
//! workers claim grid cells from a shared counter but results land in
//! grid order. `--per-task` additionally runs the retired per-task
//! reference engine on the first scenario and reports the heap-event
//! reduction the wave engine achieves.

use std::process::ExitCode;
use swim_report::experiments::swimexp::cache_label;
use swim_report::render::{pct, Table};
use swim_sim::reference::run_per_task;
use swim_sim::{CachePolicy, ScenarioGrid, SchedulerKind, Simulator};
use swim_synth::ReplayPlan;
use swim_trace::size::{GB, KB, MB, TB};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, PathId};
use swim_workloadgen::{GeneratorConfig, GeneratorError, WorkloadGenerator};

struct Args {
    /// Workload, days, scale and seed of the synthesized trace.
    generator: GeneratorConfig,
    repeat: usize,
    nodes: Vec<u32>,
    schedulers: Vec<SchedulerKind>,
    caches: Vec<Option<(CachePolicy, DataSize)>>,
    per_task: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            generator: GeneratorConfig {
                days: Some(2.0),
                scale: 0.3,
                seed: 42,
                ..GeneratorConfig::new(WorkloadKind::CcE)
            },
            repeat: 1,
            nodes: vec![20, 50],
            schedulers: vec![SchedulerKind::Fifo, SchedulerKind::Fair],
            caches: vec![
                None,
                Some((CachePolicy::Lru, DataSize::from_gb(10))),
                Some((CachePolicy::Unlimited, DataSize::ZERO)),
            ],
            per_task: false,
        }
    }
}

fn parse_workload(s: &str) -> Result<WorkloadKind, String> {
    let norm = s.to_ascii_lowercase().replace('_', "-");
    for kind in WorkloadKind::PAPER_SEVEN {
        if kind.label().to_ascii_lowercase() == norm
            || kind.label().to_ascii_lowercase().replace('-', "") == norm.replace('-', "")
        {
            return Ok(kind);
        }
    }
    Err(format!(
        "unknown workload {s} (expected one of {})",
        WorkloadKind::PAPER_SEVEN
            .map(|k| k.label().to_ascii_lowercase())
            .join(", ")
    ))
}

fn parse_size(s: &str) -> Result<DataSize, String> {
    let lower = s.to_ascii_lowercase();
    let (num, unit) = lower.split_at(
        lower
            .find(|c: char| c.is_ascii_alphabetic())
            .unwrap_or(lower.len()),
    );
    let value: u64 = num.parse().map_err(|_| format!("bad size {s}"))?;
    let unit_bytes = match unit {
        "kb" => KB,
        "mb" => MB,
        "gb" => GB,
        "tb" => TB,
        "" | "b" => 1,
        other => return Err(format!("bad size unit {other} in {s}")),
    };
    value
        .checked_mul(unit_bytes)
        .map(DataSize::from_bytes)
        .ok_or_else(|| format!("size {s} overflows a 64-bit byte count"))
}

fn parse_cache(s: &str) -> Result<Option<(CachePolicy, DataSize)>, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["none"] => Ok(None),
        ["unlimited"] => Ok(Some((CachePolicy::Unlimited, DataSize::ZERO))),
        ["lru", cap] => Ok(Some((CachePolicy::Lru, parse_size(cap)?))),
        ["lfu", cap] => Ok(Some((CachePolicy::Lfu, parse_size(cap)?))),
        ["threshold", thr, cap] => Ok(Some((
            CachePolicy::SizeThreshold {
                threshold: parse_size(thr)?,
            },
            parse_size(cap)?,
        ))),
        _ => Err(format!(
            "bad cache spec {s} (expected none | unlimited | lru:CAP | lfu:CAP | threshold:THR:CAP)"
        )),
    }
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "fifo" => Ok(SchedulerKind::Fifo),
        "fair" => Ok(SchedulerKind::Fair),
        other => Err(format!("unknown scheduler {other} (expected fifo|fair)")),
    }
}

fn parse_list<T>(s: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| parse(p.trim()))
        .collect()
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = argv.into_iter();
    let next_value = |flag: &str, iter: &mut std::vec::IntoIter<String>| {
        iter.next().ok_or(format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => {
                args.generator.kind = parse_workload(&next_value("--workload", &mut iter)?)?
            }
            "--days" => {
                args.generator.days = Some(
                    next_value("--days", &mut iter)?
                        .parse()
                        .map_err(|_| "--days expects a number".to_string())?,
                )
            }
            "--scale" => {
                args.generator.scale = next_value("--scale", &mut iter)?
                    .parse()
                    .map_err(|_| "--scale expects a number".to_string())?
            }
            "--seed" => {
                args.generator.seed = next_value("--seed", &mut iter)?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--repeat" => {
                args.repeat = next_value("--repeat", &mut iter)?
                    .parse()
                    .map_err(|_| "--repeat expects an integer".to_string())?;
                if args.repeat == 0 {
                    return Err("--repeat must be ≥ 1".into());
                }
            }
            "--nodes" => {
                args.nodes = parse_list(&next_value("--nodes", &mut iter)?, |p| {
                    p.parse().map_err(|_| format!("bad node count {p}"))
                })?
            }
            "--schedulers" => {
                args.schedulers =
                    parse_list(&next_value("--schedulers", &mut iter)?, parse_scheduler)?
            }
            "--caches" => {
                args.caches = parse_list(&next_value("--caches", &mut iter)?, parse_cache)?
            }
            "--per-task" => args.per_task = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.nodes.is_empty() || args.schedulers.is_empty() || args.caches.is_empty() {
        return Err("every grid axis needs at least one entry".into());
    }
    args.generator.validate().map_err(|e| match e {
        GeneratorError::InvalidConfig {
            field,
            value,
            constraint,
        } => format!("--{field} {constraint} (got {value})"),
        other => other.to_string(),
    })?;
    Ok(args)
}

fn print_help() {
    eprintln!(
        "swim-sim — wave-scheduled replay simulator: parallel what-if sweeps\n\n\
         usage: swim-sim [--workload KIND] [--days F] [--scale F] [--seed N]\n\
         \u{20}               [--repeat N] [--nodes 20,50] [--schedulers fifo,fair]\n\
         \u{20}               [--caches none,lru:10gb,unlimited] [--per-task]\n\n\
         workloads: cc-a cc-b cc-c cc-d cc-e fb-2009 fb-2010\n\
         caches:    none | unlimited | lru:CAP | lfu:CAP | threshold:THR:CAP\n\
         \u{20}          (sizes like 512mb, 10gb)\n\
         --repeat   tile the synthesized plan N times (bigger job streams)\n\
         --per-task also run the per-task reference engine on the first\n\
         \u{20}          scenario and report the wave engine's event reduction"
    );
}

fn main() -> ExitCode {
    // SWIM_OBS=span,metric collects sim counters/spans; the snapshot can
    // be exported with SWIM_OBS_JSONL=FILE.
    swim_obs::init_from_env();
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            print_help();
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let g = &args.generator;
    eprintln!(
        "synthesizing {} ({} days, scale {}, seed {}) ...",
        g.kind,
        g.days.unwrap_or_default(),
        g.scale,
        g.seed
    );
    let trace = WorkloadGenerator::new(g.clone()).generate();
    let mut plan = ReplayPlan::from_trace(&trace);
    if args.repeat > 1 {
        plan = plan.repeat(args.repeat);
    }
    // Shared input paths from the generator's file model, so the cache
    // axis sees the workload's real re-access pattern. Jobs without path
    // information fall back to a *unique* private file per plan slot
    // (the engine's null model) — a shared placeholder would fabricate
    // hits. Under --repeat, real paths recur across repetitions (the
    // same inputs re-read), private fallbacks stay cold.
    let base: Vec<Option<PathId>> = trace
        .jobs()
        .iter()
        .map(|j| j.input_paths.first().copied())
        .collect();
    let paths: Vec<PathId> = (0..plan.len())
        .map(|i| base[i % base.len()].unwrap_or(PathId(1_000_000_000 + i as u64)))
        .collect();
    eprintln!(
        "plan: {} jobs, {} tasks, {} task-time, schedule {}",
        plan.len(),
        plan.total_tasks(),
        plan.total_task_time(),
        plan.schedule_length()
    );

    let grid = ScenarioGrid::new(args.nodes.clone())
        .schedulers(args.schedulers.clone())
        .caches(args.caches.clone());
    eprintln!(
        "sweeping {} scenarios ({} nodes × {} schedulers × {} caches) in parallel ...",
        grid.len(),
        args.nodes.len(),
        args.schedulers.len(),
        args.caches.len()
    );
    let (cells, elapsed) = swim_obs::timed("bench.sim_sweep", || {
        Simulator::sweep(&grid, &plan, Some(&paths))
    });

    let mut table = Table::new(vec![
        "Nodes",
        "Scheduler",
        "Cache",
        "Makespan",
        "Median lat",
        "p99 lat",
        "Mean queue",
        "Hit rate",
        "Events",
    ]);
    for cell in &cells {
        let r = &cell.result;
        table.row(vec![
            cell.config.cluster.nodes.to_string(),
            format!("{:?}", cell.config.scheduler).to_lowercase(),
            cache_label(&cell.config.cache),
            r.makespan.to_string(),
            format!("{:.0} s", r.median_latency()),
            format!("{:.0} s", r.latency_percentile(0.99)),
            format!("{:.1} s", r.mean_queue_delay()),
            r.cache
                .map(|c| pct(c.hit_rate()))
                .unwrap_or_else(|| "-".into()),
            r.events.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "swept {} scenarios over {} jobs in {:.2?} ({:.1} scenarios/s)",
        cells.len(),
        plan.len(),
        elapsed,
        cells.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    );

    if args.per_task {
        let config = grid.configs()[0];
        eprintln!("\nrunning per-task reference engine on the first scenario ...");
        let (wave, wave_elapsed) = swim_obs::timed("bench.sim_wave_engine", || {
            Simulator::new(config).run(&plan, Some(&paths))
        });
        let (per_task, ref_elapsed) = swim_obs::timed("bench.sim_per_task_engine", || {
            run_per_task(&config, &plan, Some(&paths))
        });
        println!(
            "wave engine:     {} heap events, {:.2?}\n\
             per-task engine: {} heap events, {:.2?}\n\
             reduction:       {:.1}x fewer events, {:.1}x wall-clock speedup",
            wave.events,
            wave_elapsed,
            per_task.events,
            ref_elapsed,
            per_task.events as f64 / wave.events.max(1) as f64,
            ref_elapsed.as_secs_f64() / wave_elapsed.as_secs_f64().max(1e-9)
        );
        if wave.outcomes != per_task.outcomes {
            eprintln!("WARNING: engines disagree on per-job outcomes");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = swim_obs::jsonl::append_env(&swim_obs::snapshot()) {
        eprintln!("warning: SWIM_OBS_JSONL: {e}");
    }
    ExitCode::SUCCESS
}
