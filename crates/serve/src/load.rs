//! Load driver for `swim-serve` (the engine behind `swim-bench serve`):
//! N client threads drive a mixed query workload over persistent
//! [`Client`] connections, and the sorted per-request latencies give
//! nearest-rank percentiles. The renderer goes through the
//! [`swim_obs::doc`] model like every other harness output; `mask: true` replaces the
//! scheduling-dependent numbers (latencies, cache hits) so the report
//! can be golden-pinned.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use swim_obs::doc::{Block, KeyValueBlock, Section};
use swim_obs::{clock, WindowedHistogram};

use crate::client::Client;
use crate::protocol::ErrorKind;

/// Width of one client-side latency window bucket.
pub const WINDOW_BUCKET_MS: u64 = 500;
/// Client-side latency window buckets (`500ms * 120` = one minute).
pub const WINDOW_BUCKETS: usize = 120;

/// The query mix every client cycles through: global aggregates, a
/// group-by, a predicate, and both alternative output formats.
const MIX: &[&str] = &[
    "query --select count",
    "query --select \"count,sum(total_io)\" --group-by \"submit/3600\" --limit 5",
    "query --select \"p50(duration),max(input)\" --where \"input >= 1mb\"",
    "query --select count --format json",
    "query --select \"sum(input),avg(duration)\" --format md",
];

/// What to run against which server.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The server to drive.
    pub addr: SocketAddr,
    /// Concurrent client threads, each holding one connection.
    pub clients: usize,
    /// Requests per client (the query mix is cycled).
    pub requests_per_client: usize,
    /// Send a `shutdown` request once every client has finished.
    pub shutdown_after: bool,
}

impl LoadConfig {
    /// A config against `addr`.
    pub fn new(addr: SocketAddr, clients: usize, requests_per_client: usize) -> LoadConfig {
        LoadConfig {
            addr,
            clients,
            requests_per_client,
            shutdown_after: false,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted (`clients * requests_per_client`).
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Failed requests: I/O errors plus non-`ok`, non-`overloaded`
    /// responses.
    pub errors: u64,
    /// Typed `overloaded` rejections (admission control).
    pub overloaded: u64,
    /// `ok` responses served from the result cache.
    pub cached: u64,
    /// Per-request wall-clock latencies, microseconds, ascending.
    pub latencies_us: Vec<u64>,
    /// Per-bucket mean latency (microseconds) over the run's windowed
    /// histogram — the same `swim-obs` windowed type the server records
    /// into, here fed client-side. One entry per live 500 ms bucket, in
    /// time order; the report renders it as a sparkline.
    pub window_mean_us: Vec<f64>,
}

impl LoadReport {
    /// Nearest-rank latency quantile in microseconds (of the ascending
    /// `latencies_us`); `None` when no request completed.
    pub fn latency_us(&self, p: f64) -> Option<u64> {
        swim_obs::quantile_of_sorted(&self.latencies_us, p)
    }
}

/// Connect with retry: under a 1k-client burst the listener backlog can
/// transiently refuse, which is load-generator noise, not a server
/// error.
fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    let mut last_err = None;
    for _ in 0..100 {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("connect retries exhausted")))
}

struct ClientStats {
    ok: u64,
    errors: u64,
    overloaded: u64,
    cached: u64,
    latencies_us: Vec<u64>,
}

fn run_client(config: &LoadConfig, client: usize, window: &WindowedHistogram) -> ClientStats {
    let mut stats = ClientStats {
        ok: 0,
        errors: 0,
        overloaded: 0,
        cached: 0,
        latencies_us: Vec::with_capacity(config.requests_per_client),
    };
    let mut conn: Option<Client> = None;
    for i in 0..config.requests_per_client {
        let line = MIX[(client + i) % MIX.len()];
        if conn.is_none() {
            match connect(config.addr) {
                Ok(opened) => conn = Some(opened),
                Err(_) => {
                    stats.errors += 1;
                    continue;
                }
            }
        }
        let Some(live) = conn.as_mut() else {
            stats.errors += 1;
            continue;
        };
        let (outcome, elapsed) = swim_obs::timed("bench.serve_request", || live.send(line));
        match outcome {
            Ok(resp) if resp.ok => {
                stats.ok += 1;
                if resp.cached {
                    stats.cached += 1;
                }
                let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
                stats.latencies_us.push(us);
                window.record(us);
            }
            Ok(resp) if resp.kind == Some(ErrorKind::Overloaded) => {
                // The acceptor rejected and closed this connection;
                // reconnect for the next request.
                stats.overloaded += 1;
                conn = None;
            }
            Ok(_) => stats.errors += 1,
            Err(_) => {
                stats.errors += 1;
                conn = None;
            }
        }
    }
    stats
}

/// Drive the configured load and aggregate the outcome. Client threads
/// run concurrently; the returned latencies are sorted for determinism.
pub fn run_load(config: &LoadConfig) -> LoadReport {
    let merged = Mutex::new(LoadReport {
        requests: (config.clients * config.requests_per_client) as u64,
        ..LoadReport::default()
    });
    let window = WindowedHistogram::new(WINDOW_BUCKET_MS, WINDOW_BUCKETS);
    std::thread::scope(|scope| {
        for client in 0..config.clients {
            let (merged, window) = (&merged, &window);
            scope.spawn(move || {
                let stats = run_client(config, client, window);
                let mut report = merged.lock().expect("no panics hold this lock");
                report.ok += stats.ok;
                report.errors += stats.errors;
                report.overloaded += stats.overloaded;
                report.cached += stats.cached;
                report.latencies_us.extend(stats.latencies_us);
            });
        }
    });
    let mut report = merged.into_inner().expect("no panics hold this lock");
    report.latencies_us.sort_unstable();
    report.window_mean_us = window
        .buckets_at(clock::now_ms())
        .iter()
        .filter(|b| b.count > 0)
        .map(|b| b.sum as f64 / b.count as f64)
        .collect();
    if config.shutdown_after {
        if let Ok(mut shutdown) = connect(config.addr) {
            let _ = shutdown.send("shutdown");
        }
    }
    report
}

/// Render the report through the document model. With `mask: true` the
/// scheduling-dependent values (latency percentiles, cache hits) are
/// replaced with a fixed placeholder so the output can be golden-pinned;
/// the deterministic counters (requests, ok, errors, overloaded) are
/// always printed for real.
pub fn render(report: &LoadReport, mask: bool) -> String {
    let masked = |value: Option<u64>, unit: &str| {
        if mask {
            "(masked)".to_owned()
        } else {
            match value {
                Some(v) => format!("{v}{unit}"),
                None => "n/a".to_owned(),
            }
        }
    };
    let mut section = Section::new("swim-serve load report");
    section.push(Block::KeyValue(KeyValueBlock::new(vec![
        ("requests", report.requests.to_string()),
        ("ok", report.ok.to_string()),
        ("errors", report.errors.to_string()),
        ("overloaded", report.overloaded.to_string()),
        ("cached", masked(Some(report.cached), "")),
        ("latency p50", masked(report.latency_us(0.50), " us")),
        ("latency p95", masked(report.latency_us(0.95), " us")),
        ("latency p99", masked(report.latency_us(0.99), " us")),
    ])));
    // Windowed mean-latency sparkline (500 ms buckets): pure timing
    // data, so it is emptied under `mask` like the percentiles.
    if mask {
        section.push(Block::spark("latency win", Vec::new(), " (masked)"));
    } else {
        section.push(Block::spark(
            "latency win",
            report.window_mean_us.clone(),
            format!(" mean us per {WINDOW_BUCKET_MS}ms bucket"),
        ));
    }
    section.render_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_are_nearest_rank() {
        let report = LoadReport {
            requests: 4,
            ok: 4,
            latencies_us: vec![10, 20, 30, 40],
            ..LoadReport::default()
        };
        assert_eq!(report.latency_us(0.50), Some(20));
        assert_eq!(report.latency_us(0.99), Some(40));
        assert_eq!(LoadReport::default().latency_us(0.5), None);
    }

    #[test]
    fn masked_render_hides_only_nondeterministic_fields() {
        let report = LoadReport {
            requests: 8,
            ok: 8,
            cached: 3,
            latencies_us: vec![100; 8],
            ..LoadReport::default()
        };
        let masked = render(&report, true);
        assert!(masked.contains("requests   : 8"), "{masked}");
        assert!(masked.contains("cached     : (masked)"), "{masked}");
        assert!(!masked.contains("100 us"), "{masked}");
        let unmasked = render(&report, false);
        assert!(unmasked.contains("cached     : 3"), "{unmasked}");
        assert!(unmasked.contains("latency p50: 100 us"), "{unmasked}");
    }
}
