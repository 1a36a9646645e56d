//! swim-query vs full scans on a million-job store: grouped aggregation
//! through the engine vs a hand-rolled column fold, and selective
//! (zone-map-skipping) vs non-selective predicates. The selective query
//! must decode at least 2x fewer chunks than a full scan — asserted here,
//! so the CI bench smoke enforces the pruning win at 1M-job scale. The
//! served mix's dominant shape (filter on `total_io`, hour-of-day key)
//! is held to exact counts, not times: parallel ≡ serial, and the
//! kernel's key-table probes stay far below the rows it groups. So is
//! projection: a two-column count decodes two columns of every chunk it
//! scans, skips the other eight, and agrees with the all-column fold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use swim_query::{execute, execute_serial, parse, AggValue, Aggregate, Col, Expr, Pred, Query};
use swim_store::format::columns::ColumnSet;
use swim_store::{store_to_vec, Store, StoreOptions, ZoneMap};
use swim_trace::trace::WorkloadKind;
use swim_trace::Trace;

const JOBS: u64 = 1_000_000;
/// One month of submissions, FB-2009 scale (same shape as the store bench).
const SPAN_SECS: u64 = 30 * 86_400;

fn million_job_trace() -> Trace {
    let jobs = swim_bench::fixture::lcg_jobs(0x5EED_CAFE, 0..JOBS, 0..SPAN_SECS);
    Trace::new_unchecked(WorkloadKind::Custom("bench-1m".into()), 600, jobs)
}

/// One day of thirty: count + I/O sum, prunable via submit zone maps.
fn selective_query() -> Query {
    Query::new()
        .filter(Pred::submit_range(0, 86_400))
        .select(Aggregate::Count)
        .select(Aggregate::Sum(Expr::total_io()))
}

/// The same aggregates with no predicate: every chunk must be decoded.
fn non_selective_query() -> Query {
    Query::new()
        .select(Aggregate::Count)
        .select(Aggregate::Sum(Expr::total_io()))
}

/// Fig. 7's shape at full-trace scale: hourly bins of three aggregates.
fn grouped_hourly_query() -> Query {
    Query::new()
        .group(Expr::submit_hour())
        .select(Aggregate::Count)
        .select(Aggregate::Sum(Expr::total_io()))
        .select(Aggregate::Sum(Expr::total_task_time()))
}

/// `swim-perf`'s `groupby` class, half of every served round: the
/// diurnal profile of jobs that moved data.
fn hour_of_day_query() -> Query {
    let mut query =
        Query::new().filter(parse::parse_predicate("total_io * 1024 >= 7").expect("parses"));
    for key in parse::parse_group_by("submit / 1h - submit / 1d * 24").expect("parses") {
        query = query.group(key);
    }
    for agg in parse::parse_aggregates("count,sum(total_io),avg(duration)").expect("parses") {
        query = query.select(agg);
    }
    query
}

fn bench_query(c: &mut Criterion) {
    let trace = million_job_trace();
    let store = Store::from_vec(store_to_vec(&trace, &StoreOptions::default())).expect("opens");

    // The acceptance gate: the selective predicate must decode ≥2x fewer
    // chunks than a full scan (it actually skips ~29/30 of them).
    let selective = execute(&store, &selective_query()).expect("executes");
    assert!(
        selective.stats.chunks_scanned * 2 <= selective.stats.chunks_total,
        "selective query must decode at least 2x fewer chunks: scanned {} of {}",
        selective.stats.chunks_scanned,
        selective.stats.chunks_total
    );
    eprintln!(
        "1M-job store: selective query decoded {} of {} chunks ({} skipped via zone maps)",
        selective.stats.chunks_scanned,
        selective.stats.chunks_total,
        selective.stats.chunks_skipped
    );

    // The kernel's memo at work: the 24 hour-of-day keys each keep a memo
    // slot, so the key table is probed about once per key per worker,
    // not once per row. Counts, so the gate holds on any machine.
    swim_obs::set_enabled(swim_obs::ALL);
    swim_obs::reset();
    let hourly = execute(&store, &hour_of_day_query()).expect("executes");
    let probes = swim_obs::snapshot()
        .counter("query.group_probes")
        .expect("the kernel records its probes");
    swim_obs::set_enabled(0);
    swim_obs::reset();
    assert_eq!(
        hourly,
        execute_serial(&store, &hour_of_day_query()).expect("executes"),
        "parallel ≡ serial on the hour-of-day shape"
    );
    assert_eq!(hourly.rows.len(), 24);
    assert!(
        probes <= hourly.stats.rows_matched / 8,
        "the memo must answer most rows: {probes} probes for {} matched rows",
        hourly.stats.rows_matched
    );
    eprintln!(
        "1M-job store: hour-of-day group-by probed the key table {probes} times for {} matched rows",
        hourly.stats.rows_matched
    );

    // Projection at decode, as counts: the query reads `input` and
    // `duration`, so each scanned chunk has two columns decoded and eight
    // skipped, and the answer is the all-column fold's.
    let (min_input, min_duration) = (1u64 << 30, 1800u64);
    let predicate = format!("input > {min_input} and duration >= {min_duration}");
    let two_column = Query::new()
        .filter(parse::parse_predicate(&predicate).expect("parses"))
        .select(Aggregate::Count);
    swim_obs::set_enabled(swim_obs::ALL);
    swim_obs::reset();
    let counted = execute(&store, &two_column).expect("executes");
    let snapshot = swim_obs::snapshot();
    swim_obs::set_enabled(0);
    swim_obs::reset();
    let scanned = counted.stats.chunks_scanned as u64;
    assert!(scanned > 0, "the predicate must not prune everything");
    assert_eq!(snapshot.counter("store.chunks_decoded"), Some(scanned));
    assert_eq!(snapshot.counter("store.columns_decoded"), Some(2 * scanned));
    assert_eq!(snapshot.counter("store.columns_skipped"), Some(8 * scanned));
    let all: Vec<usize> = (0..store.chunk_count()).collect();
    let (input, duration) = (Col::Input.zone_index(), Col::Duration.zone_index());
    let folded = store
        .fold_columns(&all, 0u64, |n, _idx, cols| {
            let matches = cols.cols[input].iter().zip(&cols.cols[duration]);
            n + matches
                .filter(|(&i, &d)| i > min_input && d >= min_duration)
                .count() as u64
        })
        .expect("scans");
    assert!(folded > 0, "the predicate must match something");
    assert_eq!(counted.rows[0].values, vec![AggValue::Int(folded)]);
    eprintln!(
        "1M-job store: a two-column count decoded {} and skipped {} chunk-columns over {scanned} chunks",
        2 * scanned,
        8 * scanned
    );

    let mut group = c.benchmark_group("query_1m_jobs");
    group.sample_size(10);
    group.bench_function("selective_day_1_of_30", |b| {
        b.iter(|| execute(black_box(&store), &selective_query()).expect("executes"))
    });
    group.bench_function("non_selective_full_scan", |b| {
        b.iter(|| execute(black_box(&store), &non_selective_query()).expect("executes"))
    });
    group.bench_function("grouped_hourly_720_bins", |b| {
        b.iter(|| execute(black_box(&store), &grouped_hourly_query()).expect("executes"))
    });
    group.bench_function("filtered_hour_of_day_24_bins", |b| {
        b.iter(|| execute(black_box(&store), &hour_of_day_query()).expect("executes"))
    });
    // Hand-rolled equivalent of the non-selective query, folding the raw
    // column projections directly: measures what the typed engine costs
    // over the bare store API.
    group.bench_function("hand_rolled_columns_fold", |b| {
        b.iter(|| {
            let store = black_box(&store);
            let parts = swim_obs::par_claim(store.chunk_count(), swim_obs::cores(), |claims| {
                let mut reader = store.reader().expect("opens");
                claims.fold((0u64, 0u64), |(n, mut io), idx| {
                    let chunk = reader.columns(idx, ColumnSet::ALL).expect("decodes");
                    for c in ZoneMap::IO {
                        io = chunk.cols[c].iter().fold(io, |io, &v| io.saturating_add(v));
                    }
                    (n + chunk.len() as u64, io)
                })
            });
            parts
                .into_iter()
                .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1.saturating_add(b.1)))
        })
    });
    group.finish();

    // Headline: selective vs non-selective, one timed pass each on the
    // swim-obs clock (`timed` measures whether or not instrumentation is
    // enabled, so benches and spans share one timing path).
    let (full, full_time) = swim_obs::timed("bench.query_full_scan", || {
        execute(&store, &non_selective_query()).expect("executes")
    });
    let (sel, sel_time) = swim_obs::timed("bench.query_selective", || {
        execute(&store, &selective_query()).expect("executes")
    });
    assert_eq!(full.stats.chunks_scanned, full.stats.chunks_total);
    eprintln!(
        "headline: full scan {full_time:?} ({} chunks) vs selective {sel_time:?} ({} chunks) \
         => {:.1}x faster, {:.1}x fewer chunks",
        full.stats.chunks_scanned,
        sel.stats.chunks_scanned,
        full_time.as_secs_f64() / sel_time.as_secs_f64(),
        full.stats.chunks_total as f64 / sel.stats.chunks_scanned.max(1) as f64
    );

    // Obs overhead smoke: the instrumentation baked into the store and
    // query hot paths must be free when disabled — and close enough to
    // free when fully enabled that turning it on in production is safe.
    // Best-of-5 full scans each way damps scheduler noise; the gate is
    // <5% on the enabled/disabled ratio, which upper-bounds what the
    // disabled path (one relaxed atomic load + branch per record) costs.
    let best_of = |n: usize| {
        (0..n)
            .map(|_| {
                swim_obs::timed("bench.obs_overhead", || {
                    execute(&store, &non_selective_query()).expect("executes")
                })
                .1
            })
            .min()
            .expect("at least one run")
    };
    swim_obs::set_enabled(0);
    let disabled = best_of(5);
    swim_obs::set_enabled(swim_obs::ALL);
    let enabled = best_of(5);
    swim_obs::set_enabled(0);
    swim_obs::reset();
    let ratio = enabled.as_secs_f64() / disabled.as_secs_f64();
    eprintln!(
        "obs overhead on 1M-job full scan: disabled {disabled:?} vs enabled {enabled:?} \
         => {ratio:.3}x"
    );
    assert!(
        ratio <= 1.05,
        "enabled instrumentation must cost <5% on the 1M-job query bench: \
         disabled {disabled:?} vs enabled {enabled:?} ({ratio:.3}x)"
    );
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
