//! The traced run: per-layer metrics.
//!
//! Two children share one fixture — one with `SWIM_OBS=all` and the
//! access log on, one with both off — and take turns, round by round,
//! so the ratio of their throughputs is the tracing overhead with
//! machine drift cancelled. Counters come from the traced child
//! (`swim_obs::snapshot()`, the `metrics` wire command, the access
//! log); timings of single layers come from direct calls this process
//! makes into each layer on the same fixture. Every call is recorded as
//! a span and the spans are written to `trace-<workload>.jsonl`.

use std::path::Path;

use serde_json::Value;
use swim_catalog::{Catalog, CatalogOptions};
use swim_obs::clock;
use swim_query::{cli, plan, Session};
use swim_scenario::ScenarioStream;
use swim_store::{write_store, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{Job, Trace};
use swim_workloadgen::{GeneratorConfig, StreamingGenerator, WorkloadProfile};

use crate::child::{field, field_u64, fixture_scenario, Gaps, FIXTURE_BUDGET, INGEST_CHUNK};
use crate::metrics::{class_metric, per_layer, RunOutput, Values};
use crate::mix::{parse_line, Class, Mix, SLOTS};
use crate::procfs;
use crate::run::{median_throughput, run_rounds, run_values};
use crate::spans::{self_share, self_time_by_name, Tracer};
use crate::stats::{median, median_u64, spread, tail_us};
use crate::workload::{Config, Fixture, Round, Scratch, Sut, WireStats, Workload, FIXTURE_JOBS};

/// Jobs the generator probes drain and the ingest probe publishes: four
/// shards of the write path's size, the head of the fixture's own
/// stream. Rates, not totals, are reported.
const PROBE_JOBS: u64 = 4 * PROBE_SHARD;
const PROBE_SHARD: u64 = 32_768;

/// Run `f` `reps` times; the median of its timings in microseconds,
/// and its last result.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut timings = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let open = tracer.enter(name, 0, rep as u64 + 1);
        let started = clock::now_us();
        let out = f();
        timings.push(clock::now_us() - started);
        tracer.exit(open);
        last = Some(out?);
    }
    let last = last.ok_or("a probe needs at least one repetition")?;
    Ok((median_u64(&timings).unwrap_or(0.0), last))
}

/// Time `reps` back-to-back calls of `f` as one span and return the
/// mean microseconds per call: for calls too short for a microsecond
/// clock to time one at a time.
fn timed_batch<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: u32,
    mut f: impl FnMut() -> T,
) -> f64 {
    let open = tracer.enter(name, 0, u64::from(reps));
    let started = clock::now_us();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let elapsed = clock::now_us() - started;
    tracer.exit(open);
    elapsed as f64 / f64::from(reps)
}

fn per_second(count: u64, micros: f64) -> f64 {
    if micros > 0.0 {
        count as f64 / (micros / 1e6)
    } else {
        0.0
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The generators, alone: `ScenarioStream::next_chunk` and
/// `StreamingGenerator::next_chunk` drained into nothing, at the arrival
/// rate of the fixture's own stream. Returns the first four shards'
/// worth of scenario chunks — the head of the fixture — for the later
/// probes.
fn probe_generators(
    seed: u64,
    values: &mut Values,
    tracer: &mut Tracer,
) -> Result<Vec<Vec<Job>>, String> {
    let scenario = fixture_scenario()?;
    let budget = FIXTURE_JOBS * FIXTURE_BUDGET;
    let probe_chunks = PROBE_JOBS as usize / INGEST_CHUNK;
    let (us, chunks) = timed(tracer, "scenario.next_chunk", 3, || {
        let mut stream = ScenarioStream::new(&scenario, seed, budget)
            .map_err(|e| e.to_string())?
            .chunk_size(INGEST_CHUNK);
        let mut chunks = Vec::with_capacity(probe_chunks);
        while chunks.len() < probe_chunks {
            match stream.next_chunk() {
                Some(chunk) => chunks.push(chunk),
                None => break,
            }
        }
        Ok(chunks)
    })?;
    let jobs: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    values.set("scenario.stream_jobs_per_s", per_second(jobs, us));

    // One tenant's generator, driven at the whole stream's rate.
    let kind = WorkloadKind::CcE;
    let profile = WorkloadProfile::for_kind(&kind).ok_or("no CC-e profile")?;
    let scale = budget as f64 * profile.length_days / (profile.total_jobs as f64 * scenario.days);
    let (us, jobs) = timed(tracer, "workloadgen.next_chunk", 3, || {
        let config = GeneratorConfig::new(kind.clone())
            .scale(scale)
            .days(scenario.days)
            .seed(seed);
        let mut generator = StreamingGenerator::new(config)
            .map_err(|e| e.to_string())?
            .chunk_size(INGEST_CHUNK)
            .max_jobs(PROBE_JOBS);
        let mut jobs = 0u64;
        while let Some(chunk) = generator.next_chunk() {
            jobs += chunk.len() as u64;
        }
        Ok(jobs)
    })?;
    values.set("workloadgen.stream_jobs_per_s", per_second(jobs, us));
    Ok(chunks)
}

/// `write_store` of one shard to a `Vec`, then `Catalog::ingest_stream`
/// over pre-built chunks: what is left of a shard write's stall once
/// the encode is taken out is the fsynced publish.
fn probe_write_path(
    cfg: &Config,
    chunks: &[Vec<Job>],
    values: &mut Values,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let scenario = fixture_scenario()?;
    let kind = WorkloadKind::Custom(scenario.workload_label());
    let shard: Vec<Job> = chunks
        .iter()
        .flatten()
        .take(PROBE_SHARD as usize)
        .cloned()
        .collect();
    let shard_jobs = shard.len() as u64;
    let trace = Trace::new_unchecked(kind.clone(), scenario.machines(), shard);
    let (encode_us, stats) = timed(tracer, "store.write_store", 5, || {
        let mut image = Vec::new();
        write_store(&trace, &mut image, &StoreOptions::default()).map_err(|e| e.to_string())
    })?;
    values.set("store.encode_jobs_per_s", per_second(shard_jobs, encode_us));
    values.set(
        "store.bytes_per_job",
        stats.bytes_written as f64 / stats.jobs.max(1) as f64,
    );

    let jobs: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    let options = CatalogOptions {
        jobs_per_shard: PROBE_SHARD as u32,
        store: StoreOptions::default(),
    };
    let dir = Scratch(cfg.out.join(format!("probe-ingest-{}", std::process::id())));
    let (mut stalls, mut ingests) = (Vec::new(), Vec::new());
    for rep in 0..3 {
        // Copying the blocks and clearing the directory are not the
        // layer's work, so they stay outside the span.
        let input = chunks.to_vec();
        let _ = std::fs::remove_dir_all(&dir.0);
        let open = tracer.enter("catalog.ingest_stream", 0, rep + 1);
        let started = clock::now_us();
        let mut catalog = Catalog::init(&dir.0).map_err(|e| e.to_string())?;
        let mut gaps = Gaps::new(input.into_iter(), PROBE_SHARD);
        catalog
            .ingest_stream(kind.clone(), scenario.machines(), &mut gaps, &options)
            .map_err(|e| e.to_string())?;
        ingests.push(clock::now_us() - started);
        tracer.exit(open);
        stalls.extend(gaps.stalls_us);
    }
    let ingest_us = median_u64(&ingests).unwrap_or(0.0);
    values.set("catalog.ingest_jobs_per_s", per_second(jobs, ingest_us));
    let stall_ms = median_u64(&stalls).unwrap_or(0.0) / 1000.0;
    values.set(
        "catalog.publish_ms_per_shard",
        (stall_ms - encode_us / 1000.0).max(0.0),
    );
    Ok(())
}

/// `Store::open`, `Store::fold_columns`, `Catalog::open` and
/// `Catalog::load_columns` on the fixture's own shards.
fn probe_read_path(
    fixture: &Fixture,
    values: &mut Values,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (open_us, catalog) = timed(tracer, "catalog.open", 9, || {
        Catalog::open(&fixture.dir).map_err(|e| e.to_string())
    })?;
    values.set("catalog.open_ms", open_us / 1000.0);

    let sample = catalog.shard_count().min(16);
    let (mut opens, mut decodes, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rows, mut bytes) = (0u64, 0u64);
    for idx in 0..sample {
        let entry = &catalog.shards()[idx];
        let path = catalog.dir().join(&entry.file);
        let (us, store) = timed(tracer, "store.open", 1, || {
            Store::open(&path).map_err(|e| e.to_string())
        })?;
        opens.push(us);
        let all: Vec<usize> = (0..store.chunk_count()).collect();
        let (us, decoded) = timed(tracer, "store.fold_columns", 1, || {
            store
                .fold_columns(&all, 0u64, |n, _, cols| n + cols.len() as u64)
                .map_err(|e| e.to_string())
        })?;
        decodes.push(us);
        rows += decoded;
        bytes += entry.bytes;
        let (us, _) = timed(tracer, "catalog.load_columns", 1, || {
            catalog.load_columns(idx, &store).map_err(|e| e.to_string())
        })?;
        loads.push(us);
    }
    let decode_us: f64 = decodes.iter().sum();
    values.set("store.open_us", median(&opens).unwrap_or(0.0));
    values.set("store.decode_rows_per_s", per_second(rows, decode_us));
    values.set(
        "store.decode_mb_per_s",
        per_second(bytes, decode_us) / (1024.0 * 1024.0),
    );
    values.set(
        "catalog.load_columns_ms",
        median(&loads).unwrap_or(0.0) / 1000.0,
    );
    Ok(())
}

/// Parse, plan, execute (column cache full, then emptied before every
/// call) and render each class of the mix, directly.
fn probe_query(
    fixture: &Fixture,
    mix: &Mix,
    values: &mut Values,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let catalog = Catalog::open(&fixture.dir).map_err(|e| e.to_string())?;
    let capacity = catalog.cache_capacity();
    // Full means full: on the cold fixture the library's own capacity
    // cannot hold the shards, so the probe session is given room.
    let roomy = capacity.max(catalog.shard_count());
    catalog.set_cache_capacity(roomy);
    let shards = (0..catalog.shard_count())
        .map(|idx| catalog.open_shard(idx).map_err(|e| e.to_string()))
        .collect::<Result<Vec<Store>, String>>()?;
    let session = Session::from_catalog(catalog);
    let catalog = session.catalog().ok_or("a catalog session")?;

    // One figure per slot of the mix, so that a median over them is a
    // median over what a round serves.
    let (mut parses, mut plans, mut renders) = (Vec::new(), Vec::new(), Vec::new());
    let mut serial_groupby = None;
    for (slot, class) in SLOTS.iter().copied().enumerate() {
        let line = mix.request(slot as u64).line;
        let (query, flags) = parse_line(&line)?;
        parses.push(timed_batch(tracer, "query.build_query", 500, || {
            parse_line(&line)
        }));
        // A federated query plans every shard it opens.
        plans.push(timed_batch(tracer, "query.plan", 20, || {
            shards
                .iter()
                .map(|s| plan(s, &query).selected.len())
                .sum::<usize>()
        }));
        session.execute(&query, false).map_err(|e| e.to_string())?;
        let (warm_us, result) = timed(tracer, "query.execute_warm", 5, || {
            session.execute(&query, false).map_err(|e| e.to_string())
        })?;
        renders.push(timed_batch(tracer, "query.render_for", 200, || {
            cli::render_for(&result.output, flags.format, "probe")
        }));
        // The four groupby slots cost the same: execute only the first.
        if SLOTS[..slot].contains(&class) {
            continue;
        }
        values.set(class_metric("query.warm_ms", class), warm_us / 1000.0);
        if class == Class::GroupBy {
            let (serial_us, serial) = timed(tracer, "query.execute_serial", 3, || {
                session.execute(&query, true).map_err(|e| e.to_string())
            })?;
            serial_groupby = Some((serial_us, warm_us, serial.output.stats.rows_scanned));
        }
        let mut cold = Vec::new();
        for _ in 0..3 {
            // Shrinking to nothing evicts every shard; the library's own
            // capacity then lets the miss path decode through the LRU.
            catalog.set_cache_capacity(0);
            catalog.set_cache_capacity(capacity);
            let (us, _) = timed(tracer, "query.execute_cold", 1, || {
                session.execute(&query, false).map_err(|e| e.to_string())
            })?;
            cold.push(us);
        }
        catalog.set_cache_capacity(roomy);
        values.set(
            class_metric("query.cold_ms", class),
            median(&cold).unwrap_or(0.0) / 1000.0,
        );
    }
    values.set("query.parse_us", median(&parses).unwrap_or(0.0));
    values.set("query.plan_us", median(&plans).unwrap_or(0.0));
    values.set("query.render_us", median(&renders).unwrap_or(0.0));
    let (serial_us, parallel_us, rows) = serial_groupby.ok_or("the mix has a groupby slot")?;
    values.set("query.kernel_rows_per_s", per_second(rows, serial_us));
    values.set(
        "query.parallel_speedup",
        if parallel_us > 0.0 {
            serial_us / parallel_us
        } else {
            0.0
        },
    );
    Ok(())
}

/// A counter of the traced child, by name (0 when it never fired).
fn counter(snapshot: &Value, name: &str) -> u64 {
    field_u64(snapshot, name).unwrap_or(0)
}

/// Medians of the access log's timing split over the measured `query`
/// records: `(queue, execute, render, total)` microseconds.
fn access_log_medians(
    path: &Path,
    skip: usize,
    take: usize,
) -> Result<(f64, f64, f64, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut columns: [Vec<u64>; 4] = Default::default();
    let queries = text
        .lines()
        .filter_map(|line| serde_json::parse_value(line).ok())
        .filter(|record| field(record, "command") == Some(&Value::Str("query".into())));
    for record in queries.skip(skip).take(take) {
        for (column, key) in
            columns
                .iter_mut()
                .zip(["queue_us", "execute_us", "render_us", "total_us"])
        {
            column.push(field_u64(&record, key).ok_or(format!("access log lacks {key}"))?);
        }
    }
    if columns[3].len() != take {
        return Err(format!(
            "access log has {} measured query records, expected {take}",
            columns[3].len()
        ));
    }
    let mid = |i: usize| median_u64(&columns[i]).unwrap_or(0.0);
    Ok((mid(0), mid(1), mid(2), mid(3)))
}

/// The traced run of `cfg.workload`.
pub fn traced<S: Sut>(cfg: &Config) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(true);
    let run_span = tracer.enter("bench.run", 0, 0);

    let setup_span = tracer.enter("bench.setup", 0, 0);
    let untraced = S::setup(cfg, false, None, &mut tracer)?;
    let shared = untraced.fixture().clone();
    let traced = S::setup(cfg, true, Some(&shared), &mut tracer)?;
    tracer.exit(setup_span);
    // Query requests the traced child answers before its first measured
    // round: the one warm-up round of set-up.
    let warmup_requests = cfg.workload.requests_per_round() as usize;
    let mut suts = [untraced, traced];

    let wire_before = suts[1].wire_stats(&mut tracer)?;
    let obs_before = suts[1].child().ask("obs")?;
    let own_pid = std::process::id();
    let own_cpu_before = procfs::cpu_us(own_pid).ok_or("cannot read own CPU time")?;
    let mut rounds = run_rounds(cfg, &mut suts, &mut tracer)?;
    let own_cpu = procfs::cpu_us(own_pid).ok_or("cannot read own CPU time")? - own_cpu_before;
    let obs_after = suts[1].child().ask("obs")?;
    let wire_after = suts[1].wire_stats(&mut tracer)?;
    let traced_rounds = rounds.remove(1);
    let untraced_rounds = rounds.remove(0);
    // The run metrics that hold no bound, as the untraced child ran them.
    let untraced_rss =
        procfs::peak_rss_mb(suts[0].child().pid()).ok_or("cannot read child VmHWM")?;
    let mut values = run_values(
        &untraced_rounds,
        untraced_rss,
        suts[0].fixture().bytes_per_job(),
    );

    let wrong = suts[1].check(cfg.corrupt_expected, &mut tracer)?;
    // Per-op counters are the traced child's; a failed op of either
    // child fails the run.
    let ops: u64 = traced_rounds.iter().map(|r| r.ops).sum();
    let both = || traced_rounds.iter().chain(&untraced_rounds);
    let attempted: u64 = both().map(|r| r.ops).sum();
    let failed = both().map(|r| r.failed).sum::<u64>() + wrong;
    let fixture = suts[1].fixture().clone();
    let mix = Mix::new(cfg.seed, fixture.submit.0, fixture.submit.1);

    // Direct calls into each layer, on the fixture the children used.
    let probes = tracer.enter("bench.probes", 0, 0);
    let chunks = probe_generators(cfg.seed, &mut values, &mut tracer)?;
    probe_write_path(cfg, &chunks, &mut values, &mut tracer)?;
    drop(chunks);
    probe_read_path(&fixture, &mut values, &mut tracer)?;
    probe_query(&fixture, &mix, &mut values, &mut tracer)?;
    tracer.exit(probes);

    // Counters of the traced child over its measured rounds.
    let delta = |name: &str| counter(&obs_after, name).saturating_sub(counter(&obs_before, name));
    let per_op = |name: &str| delta(name) as f64 / ops.max(1) as f64;
    values.set(
        "store.chunks_decoded_per_op",
        per_op("store.chunks_decoded"),
    );
    values.set("store.bytes_read_per_op", per_op("store.bytes_read"));
    let (hits, misses) = (delta("catalog.cache_hits"), delta("catalog.cache_misses"));
    values.set("catalog.cache_hit_ratio", ratio(hits, hits + misses));
    values.set(
        "catalog.cache_evictions_per_op",
        per_op("catalog.cache_evictions"),
    );
    let (pruned, scanned) = (
        delta("catalog.shards_pruned"),
        delta("catalog.shards_scanned"),
    );
    values.set(
        "catalog.shards_pruned_ratio",
        ratio(pruned, pruned + scanned),
    );
    values.set("query.rows_scanned_per_op", per_op("query.rows_scanned"));
    values.set("query.rows_matched_per_op", per_op("query.rows_matched"));

    // The write path as the fixture's builder (or the rounds) saw it.
    let write_rounds: Vec<(u64, u64, u64)> = if cfg.workload == Workload::IngestStream {
        traced_rounds
            .iter()
            .map(|r| (r.next_us, r.wall_us, r.resident_max))
            .collect()
    } else {
        vec![(
            fixture.fact("next_us")?,
            fixture.fact("wall_us")?,
            fixture.fact("resident_max")?,
        )]
    };
    values.set(
        "scenario.stream_share",
        ratio(
            write_rounds.iter().map(|r| r.0).sum(),
            write_rounds.iter().map(|r| r.1).sum(),
        ),
    );
    values.set(
        "scenario.resident_mb",
        write_rounds.iter().map(|r| r.2).max().unwrap_or(0) as f64 / (1024.0 * 1024.0),
    );

    serve_values(
        cfg,
        &suts[1],
        &traced_rounds,
        wire_before.zip(wire_after),
        warmup_requests,
        &mut values,
    )?;

    // Health of the measurement itself.
    values.set(
        "obs.trace_overhead_ratio",
        median_throughput(&traced_rounds) / median_throughput(&untraced_rounds),
    );
    let throughputs: Vec<f64> = traced_rounds.iter().map(Round::throughput).collect();
    values.set("bench.round_spread", spread(&throughputs).unwrap_or(0.0));
    values.set("bench.rounds", traced_rounds.len() as f64);
    let children_cpu: u64 = both().map(|r| r.cpu_us).sum();
    values.set(
        "bench.loadgen_cpu_share",
        ratio(own_cpu, own_cpu + children_cpu),
    );
    values.set(
        "bench.unexplained_share",
        self_share(tracer.spans(), "bench.round"),
    );

    let [untraced, traced] = suts;
    traced.finish()?;
    untraced.finish()?;
    tracer.exit(run_span);
    let path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "swim-perf: {} spans in {}; self time by span:",
        tracer.spans().len(),
        path.display()
    );
    for (name, self_us, count) in self_time_by_name(tracer.spans()) {
        eprintln!(
            "  {name:<34} {:>10.3} ms  x{count}",
            self_us as f64 / 1000.0
        );
    }
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: values.in_order(per_layer().iter().map(|m| (m.0.as_str(), m.1)))?,
        unbounded: Vec::new(),
    })
}

/// The `serve.*` metrics: zero on the write path, where no server runs.
fn serve_values<S: Sut>(
    cfg: &Config,
    traced: &S,
    rounds: &[Round],
    wire: Option<(WireStats, WireStats)>,
    warmup_requests: usize,
    values: &mut Values,
) -> Result<(), String> {
    let latencies: Vec<u64> = rounds
        .iter()
        .flat_map(|r| &r.latencies_us)
        .copied()
        .collect();
    let classes: Vec<Class> = rounds.iter().flat_map(|r| &r.classes).copied().collect();
    for class in Class::ALL {
        let of_class: Vec<u64> = latencies
            .iter()
            .zip(&classes)
            .filter_map(|(&us, &c)| (c == class).then_some(us))
            .collect();
        values.set(
            class_metric("serve.class_p50_ms", class),
            median_u64(&of_class).unwrap_or(0.0) / 1000.0,
        );
    }
    let Some((before, after)) = wire else {
        // No server, nothing served: every other `serve.*` metric reads 0.
        for (name, _, _) in per_layer() {
            if name.starts_with("serve.") && values.get(&name).is_none() {
                values.set(name, 0.0);
            }
        }
        return Ok(());
    };
    let ops = latencies.len();
    values.set("serve.ping_us", before.ping_us);
    let log = traced
        .access_log()
        .ok_or("the traced server has no access log")?;
    let (queue, execute, render, total) = access_log_medians(log, warmup_requests, ops)?;
    values.set("serve.queue_us", queue);
    values.set("serve.execute_us", execute);
    values.set("serve.render_us", render);
    values.set("serve.total_us", total);
    values.set(
        "serve.wire_us",
        (median_u64(&latencies).unwrap_or(0.0) - total).max(0.0),
    );
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    values.set("serve.result_cache_hit_ratio", ratio(hits, hits + misses));
    values.set(
        "serve.result_cache_evictions_per_op",
        (after.cache_evictions - before.cache_evictions) as f64 / ops.max(1) as f64,
    );
    let (tail_p, tail) = tail_us(&latencies, 0.99).unwrap_or((0.0, 0));
    if tail_p < 0.99 {
        eprintln!(
            "swim-perf: {}: serve.latency_p99_ms is p{:.1} of {ops} samples, the highest \
             percentile with ten samples beyond it",
            cfg.workload.name(),
            tail_p * 100.0
        );
    }
    values.set("serve.latency_p99_ms", tail as f64 / 1000.0);
    values.set(
        "serve.latency_max_ms",
        latencies.iter().copied().max().unwrap_or(0) as f64 / 1000.0,
    );
    values.set(
        "serve.overloaded_share",
        ratio(rounds.iter().map(|r| r.overloaded).sum(), ops as u64),
    );
    Ok(())
}
