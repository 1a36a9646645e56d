//! One run of one workload: set-up, the measured window, the check,
//! and the metrics that come out of it.

use swim_obs::clock;

use crate::layers;
use crate::metrics::{demoted, end_to_end as end_to_end_metrics, RunOutput, Values};
use crate::procfs;
use crate::spans::Tracer;
use crate::stats::{median, round_p50_us};
use crate::workload::{Config, IngestSut, Round, ServeSut, Sut, Workload, MIN_ROUNDS, SETUPS};

/// Run `cfg.workload` once and return its metrics: the end-to-end ones,
/// or with `cfg.traced` the per-layer ones.
pub fn run(cfg: &Config) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    match (cfg.workload, cfg.traced) {
        (Workload::IngestStream, false) => end_to_end::<IngestSut>(cfg),
        (_, false) => end_to_end::<ServeSut>(cfg),
        (Workload::IngestStream, true) => layers::traced::<IngestSut>(cfg),
        (_, true) => layers::traced::<ServeSut>(cfg),
    }
}

/// Run rounds on `suts` in turn (one system, or an untraced and a
/// traced one interleaved) until the window is used up and every system
/// has its minimum of rounds. Only whole rounds count, so the window
/// ends with the round that crosses `cfg.seconds`. Returns the rounds of
/// each system.
pub fn run_rounds<S: Sut>(
    cfg: &Config,
    suts: &mut [S],
    tracer: &mut Tracer,
) -> Result<Vec<Vec<Round>>, String> {
    let budget_us = cfg.seconds * 1_000_000;
    let min_rounds = if cfg.smoke { 2 } else { MIN_ROUNDS };
    let mut rounds: Vec<Vec<Round>> = suts.iter().map(|_| Vec::new()).collect();
    let started = clock::now_us();
    loop {
        for (sut, rounds) in suts.iter_mut().zip(&mut rounds) {
            let no = rounds.len() as u32 + 1;
            let open = tracer.enter("bench.round", no, 0);
            let round = sut.round(no, tracer);
            tracer.exit(open);
            rounds.push(round?);
        }
        // Every system has run the same number of rounds here.
        let each = rounds[0].len();
        let window_used = clock::now_us() - started >= budget_us;
        if each >= min_rounds && (cfg.smoke || window_used) {
            return Ok(rounds);
        }
    }
}

/// Median over rounds of each round's ops per second.
pub fn median_throughput(rounds: &[Round]) -> f64 {
    let per_round: Vec<f64> = rounds.iter().map(Round::throughput).collect();
    median(&per_round).unwrap_or(0.0)
}

/// Median over rounds of each round's p50 op latency, in milliseconds.
pub fn median_p50_ms(rounds: &[Round]) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter_map(|r| round_p50_us(&r.latencies_us))
        .map(|us| us as f64 / 1000.0)
        .collect();
    median(&per_round).unwrap_or(0.0)
}

/// The run metrics a window of rounds yields — every one but `setup_s`.
pub fn run_values(rounds: &[Round], peak_rss_mb: f64, stored_bytes_per_job: f64) -> Values {
    let mut values = Values::default();
    values.set("throughput_per_s", median_throughput(rounds));
    values.set("latency_p50_ms", median_p50_ms(rounds));
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let cpu_us: u64 = rounds.iter().map(|r| r.cpu_us).sum();
    values.set("cpu_us_per_op", cpu_us as f64 / ops.max(1) as f64);
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("stored_bytes_per_job", stored_bytes_per_job);
    values
}

fn end_to_end<S: Sut>(cfg: &Config) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(false);
    // Set-up is repeated and its median reported: a single set-up of a
    // few seconds is as noisy as any other single-shot phase. Every
    // repetition rebuilds its fixture from nothing; the last one stays
    // up for the measured window.
    let setups = if cfg.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut sut = None;
    for _ in 0..setups {
        if let Some(previous) = sut.take() {
            S::finish(previous)?;
        }
        let started = clock::now_us();
        sut = Some(S::setup(cfg, false, None, &mut tracer)?);
        setup_s.push((clock::now_us() - started) as f64 / 1e6);
    }
    let mut sut = sut.expect("at least one set-up");

    let rounds = run_rounds(cfg, std::slice::from_mut(&mut sut), &mut tracer)?.remove(0);
    let peak_rss_mb = procfs::peak_rss_mb(sut.child().pid()).ok_or("cannot read child VmHWM")?;
    let wrong = sut.check(cfg.corrupt_expected, &mut tracer)?;
    let stored = sut.fixture().bytes_per_job();
    sut.finish()?;

    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + wrong;
    let mut values = run_values(&rounds, peak_rss_mb, stored);
    values.set("setup_s", median(&setup_s).unwrap_or(0.0));
    eprintln!(
        "swim-perf: {} seed {}: set-ups {} s; {} rounds in {:.1} s; ops/s by round: {}",
        cfg.workload.name(),
        cfg.seed,
        setup_s
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
            .join(" "),
        rounds.len(),
        rounds.iter().map(|r| r.wall_us).sum::<u64>() as f64 / 1e6,
        rounds
            .iter()
            .map(|r| format!("{:.4e}", r.throughput()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    Ok(RunOutput {
        correct: failed == 0,
        attempted: ops,
        failed,
        metrics: values.in_order(end_to_end_metrics().map(|m| (m.name, m.unit)))?,
        unbounded: values.in_order(demoted().map(|m| (m.name, m.unit)))?,
    })
}
