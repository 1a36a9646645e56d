//! `swim-sim`: drive the wave-scheduled replay simulator from the
//! command line — synthesize a workload, replay it across a what-if
//! scenario grid (scheduler × cache × cluster size) in parallel, and
//! print one row per scenario.
//!
//! ```text
//! swim-sim [--workload KIND] [--days F] [--scale F] [--seed N]
//!          [--nodes 20,50] [--schedulers fifo,fair]
//!          [--caches none,lru:10gb,unlimited]
//! ```
//!
//! Scenario results are deterministic and independent of thread count:
//! workers claim grid cells from a shared counter but results land in
//! grid order.

use std::process::ExitCode;
use swim_obs::cli::{self as run, Cli, Command, Error, Flag};
use swim_obs::render::Table;
use swim_report::experiments::swimexp::cache_label;
use swim_report::render::pct;
use swim_sim::{CachePolicy, ReplayPlan, ScenarioGrid, SchedulerKind, Simulator};
use swim_trace::size::{GB, KB, MB, TB};
use swim_trace::trace::WorkloadKind;
use swim_trace::DataSize;
use swim_workloadgen::{GeneratorConfig, GeneratorError, WorkloadGenerator};

const CLI: Cli = Cli {
    name: "swim-sim",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[&[
            Flag::value("--workload", "KIND", "workload to synthesize (default cc-e)"),
            Flag::value("--days", "F", "days to synthesize (default 2)"),
            Flag::value("--scale", "F", "generator scale (default 0.3)"),
            Flag::value("--seed", "N", "generator seed (default 42)"),
            Flag::value("--nodes", "20,50", "cluster sizes to sweep"),
            Flag::value("--schedulers", "fifo,fair", "schedulers to sweep"),
            Flag::value("--caches", "none,lru:10gb,unlimited", "caches to sweep"),
        ]],
    }],
    notes: "wave-scheduled replay simulator: parallel what-if sweeps\n\
            workloads: cc-a cc-b cc-c cc-d cc-e fb-2009 fb-2010\n\
            caches: none | unlimited | lru:CAP | lfu:CAP | threshold:THR:CAP (sizes like 512mb, 10gb)\n",
};

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

fn main() -> ExitCode {
    run::main(&CLI, body)
}

fn body(args: run::Args) -> Result<(), Error> {
    let mut g = GeneratorConfig {
        days: Some(2.0),
        scale: 0.3,
        seed: 42,
        ..GeneratorConfig::new(WorkloadKind::CcE)
    };
    if let Some(kind) = args.value("--workload") {
        g.kind = parse_workload(kind).map_err(Error::Usage)?;
    }
    g.days = args.parse("--days", "a number")?.or(g.days);
    g.scale = args.parse("--scale", "a number")?.unwrap_or(g.scale);
    g.seed = args.parse("--seed", "an integer")?.unwrap_or(g.seed);
    let list = |flag, default| args.value(flag).unwrap_or(default);
    let nodes: Vec<u32> = parse_list(list("--nodes", "20,50"), |p| {
        p.parse().map_err(|_| format!("bad node count {p}"))
    })
    .map_err(Error::Usage)?;
    let schedulers =
        parse_list(list("--schedulers", "fifo,fair"), parse_scheduler).map_err(Error::Usage)?;
    let caches = parse_list(list("--caches", "none,lru:10gb,unlimited"), parse_cache)
        .map_err(Error::Usage)?;
    if nodes.is_empty() || schedulers.is_empty() || caches.is_empty() {
        return Err(Error::Usage(
            "every grid axis needs at least one entry".into(),
        ));
    }
    g.validate().map_err(|e| match e {
        GeneratorError::InvalidConfig {
            field,
            value,
            constraint,
        } => Error::Usage(format!("--{field} {constraint} (got {value})")),
        other => Error::Usage(other.to_string()),
    })?;

    eprintln!(
        "synthesizing {} ({} days, scale {}, seed {}) ...",
        g.kind,
        g.days.unwrap_or_default(),
        g.scale,
        g.seed
    );
    let trace = WorkloadGenerator::new(g.clone()).generate();
    // Each replay job reads its input file from the generator's file
    // model, so the cache axis sees the workload's real re-access pattern.
    let plan = ReplayPlan::from_trace(&trace);
    eprintln!(
        "plan: {} jobs, {} tasks, {} task-time, schedule {}",
        plan.len(),
        plan.total_tasks(),
        plan.total_task_time(),
        plan.schedule_length()
    );

    let grid = ScenarioGrid::new(nodes.clone())
        .schedulers(schedulers.clone())
        .caches(caches.clone());
    eprintln!(
        "sweeping {} scenarios ({} nodes × {} schedulers × {} caches) in parallel ...",
        grid.len(),
        nodes.len(),
        schedulers.len(),
        caches.len()
    );
    let (cells, elapsed) = swim_obs::timed("bench.sim_sweep", || Simulator::sweep(&grid, &plan));

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
            cell.config.nodes.to_string(),
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
    run::print(&format!(
        "{}\nswept {} scenarios over {} jobs in {:.2?} ({:.1} scenarios/s)\n",
        table.render(),
        cells.len(),
        plan.len(),
        elapsed,
        cells.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    ))?;

    Ok(())
}
