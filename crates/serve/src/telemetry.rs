//! Live telemetry for the resident server: request ids, windowed
//! latency/rate metrics, the structured access log, and the
//! `stats`/`metrics` wire renderings.
//!
//! Everything here is **per server instance** and **always on** —
//! unlike the mask-gated `swim-obs` statics, a resident server must be
//! able to answer "what happened over the last minute" without having
//! been started with `SWIM_OBS` set, and two servers in one process
//! (the test batteries do this) must not bleed into each other.
//!
//! Memory is bounded by construction: the windowed types retain
//! O(buckets) state however many requests arrive
//! ([`Telemetry::retained_samples`] is the observable the test battery
//! pins), and the access log is a line written per request, not a
//! buffer that grows.
//!
//! ## Access log
//!
//! When configured (`--access-log FILE`), every request appends one JSON line:
//!
//! ```text
//! {"id":7,"command":"query","generation":2,"cached":0,"queue_us":41,
//!  "execute_us":913,"render_us":77,"total_us":1102,"outcome":"ok"}
//! ```
//!
//! `id` is the server's monotonic request id, `queue_us` is the
//! admission queue wait (attributed to the connection's first request),
//! `outcome` is `ok`, the error kind token, or `panic`. `execute_us`
//! and `render_us` are what this request spent executing and rendering:
//! both read 0 on a result-cache hit (`"cached":1`), which sends bytes
//! that the miss before it rendered.
//!
//! ## Wire renderings
//!
//! [`TelemetrySnapshot::render_text`] / [`render_json`] back the
//! `metrics` wire command: a fixed key set in a fixed order, so the
//! response is byte-stable for a deterministic request sequence once
//! the scheduling-dependent fields (uptime, rates, latencies) are
//! masked — which is exactly how CI golden-pins them.
//!
//! [`render_json`]: TelemetrySnapshot::render_json

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swim_obs::clock;
use swim_obs::json::quote;
use swim_obs::{WindowSummary, WindowedCounter, WindowedHistogram};

use crate::server::ServerStats;

/// Width of one telemetry window bucket.
pub const WINDOW_BUCKET_MS: u64 = 5_000;
/// Buckets in the telemetry window (12 × 5 s = one minute).
pub const WINDOW_BUCKETS: usize = 12;
/// Per-bucket retained-sample cap for the latency histograms.
pub const WINDOW_SAMPLE_CAP: usize = 512;

/// Which windowed histogram a request's latency lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// `query` answered by executing against the snapshot.
    Query,
    /// `query` answered from the result cache.
    Cached,
    /// `ingest` / `compact` / `vacuum`.
    Admin,
    /// `ping`, `stats`, `metrics`, `shutdown`, malformed lines — counted
    /// in the request-rate window but not latency-classed.
    Other,
}

/// One access-log line, before encoding. Field order here is the field
/// order on the wire. The two text fields are fixed tokens, so a record
/// costs nothing to build when the log is off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Monotonic per-server request id.
    pub id: u64,
    /// First token of the request line (`"unknown"` when unparsable).
    pub command: &'static str,
    /// Generation the response was computed against (0 for errors).
    pub generation: u64,
    /// Whether the result came from the result cache.
    pub cached: bool,
    /// Admission-queue wait, microseconds (first request of the
    /// connection; 0 after).
    pub queue_us: u64,
    /// Execution time, microseconds (0 for cache hits and non-queries).
    pub execute_us: u64,
    /// Render time, microseconds (0 for cache hits, which send the bytes
    /// rendered by the miss that cached them, and for non-queries).
    pub render_us: u64,
    /// Whole-request wall time, microseconds.
    pub total_us: u64,
    /// `"ok"`, an error kind token, or `"panic"`.
    pub outcome: &'static str,
}

impl AccessRecord {
    /// The JSONL encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"command\":{},\"generation\":{},\"cached\":{},\"queue_us\":{},\
             \"execute_us\":{},\"render_us\":{},\"total_us\":{},\"outcome\":{}}}",
            self.id,
            quote(self.command),
            self.generation,
            u8::from(self.cached),
            self.queue_us,
            self.execute_us,
            self.render_us,
            self.total_us,
            quote(self.outcome),
        )
    }
}

/// Per-instance live telemetry: request ids, windowed rates and
/// latencies, and the optional access log.
pub struct Telemetry {
    started_ms: u64,
    next_id: AtomicU64,
    /// All requests, for req/s.
    requests: WindowedCounter,
    /// Latency of uncached query executions.
    query_us: WindowedHistogram,
    /// Latency of cache-hit queries.
    cached_us: WindowedHistogram,
    /// Latency of admin commands.
    admin_us: WindowedHistogram,
    access_log: Option<Mutex<BufWriter<File>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("started_ms", &self.started_ms)
            .field("access_log", &self.access_log.is_some())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Fresh telemetry; opens `access_log` (append-mode) when given.
    pub fn new(access_log: Option<&Path>) -> std::io::Result<Telemetry> {
        let access_log = match access_log {
            Some(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                Some(Mutex::new(BufWriter::new(file)))
            }
            None => None,
        };
        Ok(Telemetry {
            started_ms: clock::now_ms(),
            next_id: AtomicU64::new(0),
            requests: WindowedCounter::new(WINDOW_BUCKET_MS, WINDOW_BUCKETS),
            query_us: latency_window(),
            cached_us: latency_window(),
            admin_us: latency_window(),
            access_log,
        })
    }

    /// Next monotonic request id (1-based).
    pub fn next_request_id(&self) -> u64 {
        // lint: ordering: id allocator; uniqueness needs only atomicity
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Count one request and record its latency under `class`.
    pub fn record_request(&self, class: RequestClass, total_us: u64) {
        let now_ms = clock::now_ms();
        self.requests.add_at(now_ms, 1);
        match class {
            RequestClass::Query => self.query_us.record_at(now_ms, total_us),
            RequestClass::Cached => self.cached_us.record_at(now_ms, total_us),
            RequestClass::Admin => self.admin_us.record_at(now_ms, total_us),
            RequestClass::Other => {}
        }
    }

    /// Append one access-log line (no-op when the log is off; write
    /// errors are swallowed — telemetry must never fail a request).
    pub fn log_access(&self, record: &AccessRecord) {
        if let Some(log) = &self.access_log {
            let mut writer = log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = writer.write_all(record.to_json().as_bytes());
            let _ = writer.write_all(b"\n");
            let _ = writer.flush();
        }
    }

    /// Freeze the windows (plus the server's lifetime stats) as seen
    /// from the process clock.
    pub fn snapshot(&self, stats: ServerStats) -> TelemetrySnapshot {
        let now_ms = clock::now_ms();
        TelemetrySnapshot {
            uptime_ms: now_ms.saturating_sub(self.started_ms),
            stats,
            window: self.requests.summary_at(now_ms),
            query: self.query_us.summary_at(now_ms),
            cached: self.cached_us.summary_at(now_ms),
            admin: self.admin_us.summary_at(now_ms),
        }
    }

    /// Total latency samples currently retained across every windowed
    /// histogram — the memory-bound observable: stays `<=`
    /// `3 * WINDOW_BUCKETS * WINDOW_SAMPLE_CAP` however many requests
    /// the server has answered (asserted in the test battery).
    // lint: surface: the memory-bound oracle tests/telemetry.rs asserts; it counts samples of expired buckets a snapshot leaves out
    pub fn retained_samples(&self) -> usize {
        self.query_us.retained_len() + self.cached_us.retained_len() + self.admin_us.retained_len()
    }
}

fn latency_window() -> WindowedHistogram {
    WindowedHistogram::with_sample_cap(WINDOW_BUCKET_MS, WINDOW_BUCKETS, WINDOW_SAMPLE_CAP)
}

/// Point-in-time view behind the `metrics` wire command.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Lifetime server statistics.
    pub stats: ServerStats,
    /// Request-count window (all commands).
    pub window: WindowSummary,
    /// Uncached-query latency window.
    pub query: WindowSummary,
    /// Cache-hit latency window.
    pub cached: WindowSummary,
    /// Admin-command latency window.
    pub admin: WindowSummary,
}

/// A number that is masked out of golden-pinned renders because it is
/// scheduling-dependent.
fn masked_u64(value: u64, mask: bool) -> String {
    if mask {
        "(masked)".to_owned()
    } else {
        value.to_string()
    }
}

fn masked_quantile(value: Option<u64>, mask: bool) -> String {
    match (mask, value) {
        (true, _) => "(masked)".to_owned(),
        (false, Some(v)) => v.to_string(),
        (false, None) => "-".to_owned(),
    }
}

fn masked_rate(rate: f64, mask: bool) -> String {
    if mask {
        "(masked)".to_owned()
    } else {
        format!("{rate:.2}")
    }
}

fn json_masked_u64(value: u64, mask: bool) -> String {
    if mask {
        "null".to_owned()
    } else {
        value.to_string()
    }
}

fn json_masked_quantile(value: Option<u64>, mask: bool) -> String {
    match (mask, value) {
        (true, _) | (false, None) => "null".to_owned(),
        (false, Some(v)) => v.to_string(),
    }
}

fn json_masked_rate(rate: f64, mask: bool) -> String {
    if mask {
        "null".to_owned()
    } else {
        format!("{rate:.2}")
    }
}

impl TelemetrySnapshot {
    /// `key: value` lines, one fixed key set in one fixed order. With
    /// `mask` the scheduling-dependent values (uptime, rates, all
    /// latency quantiles) render as `(masked)`, leaving a byte-stable
    /// body for a deterministic request sequence.
    pub fn render_text(&self, mask: bool) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!("generation: {}\n", s.generation));
        out.push_str(&format!(
            "uptime_ms: {}\n",
            masked_u64(self.uptime_ms, mask)
        ));
        out.push_str(&format!("requests: {}\n", s.requests));
        out.push_str(&format!("responses_ok: {}\n", s.responses_ok));
        out.push_str(&format!("responses_error: {}\n", s.responses_error));
        out.push_str(&format!("overloaded: {}\n", s.overloaded));
        out.push_str(&format!("worker_panics: {}\n", s.worker_panics));
        out.push_str(&format!("admitted: {}\n", s.admitted));
        out.push_str(&format!("queued: {}\n", s.queued));
        out.push_str(&format!("retired_sessions: {}\n", s.retired_sessions));
        out.push_str(&format!("cache_hits: {}\n", s.cache.hits));
        out.push_str(&format!("cache_misses: {}\n", s.cache.misses));
        out.push_str(&format!("cache_evictions: {}\n", s.cache.evictions));
        out.push_str(&format!("cache_entries: {}\n", s.cache.entries));
        out.push_str(&format!("cache_capacity: {}\n", s.cache.capacity));
        out.push_str(&format!("window_ms: {}\n", self.window.window_ms));
        out.push_str(&format!("window_requests: {}\n", self.window.count));
        out.push_str(&format!(
            "window_rate_per_sec: {}\n",
            masked_rate(self.window.rate_per_sec(), mask)
        ));
        for (name, summary) in [
            ("query", &self.query),
            ("cached", &self.cached),
            ("admin", &self.admin),
        ] {
            out.push_str(&format!("{name}_count: {}\n", summary.count));
            for (q, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                out.push_str(&format!(
                    "{name}_{q}_us: {}\n",
                    masked_quantile(summary.quantile(p), mask)
                ));
            }
            out.push_str(&format!(
                "{name}_max_us: {}\n",
                masked_quantile(summary.max, mask)
            ));
        }
        out
    }

    /// The fixed-shape JSON rendering (same masking rule as
    /// [`TelemetrySnapshot::render_text`], masked values become
    /// `null`).
    pub fn render_json(&self, mask: bool) -> String {
        let s = &self.stats;
        let class = |summary: &WindowSummary| {
            format!(
                "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                summary.count,
                json_masked_quantile(summary.quantile(0.50), mask),
                json_masked_quantile(summary.quantile(0.95), mask),
                json_masked_quantile(summary.quantile(0.99), mask),
                json_masked_quantile(summary.max, mask),
            )
        };
        format!(
            "{{\n  \"generation\": {},\n  \"uptime_ms\": {},\n  \"lifetime\": {{\"requests\": {}, \
             \"responses_ok\": {}, \"responses_error\": {}, \"overloaded\": {}, \"worker_panics\": {}}},\n  \
             \"pool\": {{\"admitted\": {}, \"queued\": {}, \"retired_sessions\": {}}},\n  \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \"capacity\": {}}},\n  \
             \"window\": {{\"window_ms\": {}, \"requests\": {}, \"rate_per_sec\": {}}},\n  \
             \"query\": {},\n  \"cached\": {},\n  \"admin\": {}\n}}\n",
            s.generation,
            json_masked_u64(self.uptime_ms, mask),
            s.requests,
            s.responses_ok,
            s.responses_error,
            s.overloaded,
            s.worker_panics,
            s.admitted,
            s.queued,
            s.retired_sessions,
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache.entries,
            s.cache.capacity,
            self.window.window_ms,
            self.window.count,
            json_masked_rate(self.window.rate_per_sec(), mask),
            class(&self.query),
            class(&self.cached),
            class(&self.admin),
        )
    }
}

/// `stats --format json`: the lifetime [`ServerStats`] as fixed-shape
/// JSON (everything here is exact, nothing needs masking).
pub fn render_stats_json(s: &ServerStats) -> String {
    format!(
        "{{\n  \"generation\": {},\n  \"admitted\": {},\n  \"queued\": {},\n  \
         \"retired_sessions\": {},\n  \"requests\": {},\n  \"responses_ok\": {},\n  \
         \"responses_error\": {},\n  \"overloaded\": {},\n  \"worker_panics\": {},\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
         \"capacity\": {}}}\n}}\n",
        s.generation,
        s.admitted,
        s.queued,
        s.retired_sessions,
        s.requests,
        s.responses_ok,
        s.responses_error,
        s.overloaded,
        s.worker_panics,
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.entries,
        s.cache.capacity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;

    fn stats() -> ServerStats {
        ServerStats {
            generation: 3,
            admitted: 1,
            queued: 0,
            retired_sessions: 0,
            requests: 10,
            responses_ok: 9,
            responses_error: 1,
            overloaded: 0,
            worker_panics: 0,
            cache: CacheStats {
                hits: 4,
                misses: 5,
                evictions: 0,
                entries: 5,
                capacity: 256,
            },
        }
    }

    #[test]
    fn access_record_encodes_and_escapes() {
        let record = AccessRecord {
            id: 7,
            command: "query",
            generation: 2,
            cached: true,
            queue_us: 41,
            execute_us: 0,
            render_us: 9,
            total_us: 60,
            outcome: "ok",
        };
        assert_eq!(
            record.to_json(),
            "{\"id\":7,\"command\":\"query\",\"generation\":2,\"cached\":1,\"queue_us\":41,\
             \"execute_us\":0,\"render_us\":9,\"total_us\":60,\"outcome\":\"ok\"}"
        );
        // Both strings go through the one escaper, so a hostile token
        // cannot corrupt the log line.
        let hostile = AccessRecord {
            command: "a\"b\\c\nd\u{1}",
            ..record
        };
        let line = swim_obs::json::parse_value(&hostile.to_json()).unwrap();
        assert_eq!(
            line.get("command").and_then(|v| v.as_str()),
            Some(hostile.command)
        );
    }

    #[test]
    fn telemetry_ids_are_monotonic_and_windows_classify() {
        let t = Telemetry::new(None).unwrap();
        assert_eq!(t.next_request_id(), 1);
        assert_eq!(t.next_request_id(), 2);
        t.record_request(RequestClass::Query, 100);
        t.record_request(RequestClass::Cached, 5);
        t.record_request(RequestClass::Admin, 900);
        t.record_request(RequestClass::Other, 1);
        let snap = t.snapshot(stats());
        assert_eq!(snap.window.count, 4, "every class counts toward req/s");
        assert_eq!(snap.query.count, 1);
        assert_eq!(snap.cached.count, 1);
        assert_eq!(snap.admin.count, 1);
        assert_eq!(snap.query.max, Some(100));
        assert!(t.retained_samples() <= 3 * WINDOW_BUCKETS * WINDOW_SAMPLE_CAP);
    }

    #[test]
    fn masked_renders_are_deterministic() {
        let t = Telemetry::new(None).unwrap();
        t.record_request(RequestClass::Query, 123);
        let snap = t.snapshot(stats());
        let text = snap.render_text(true);
        assert!(text.contains("uptime_ms: (masked)\n"));
        assert!(text.contains("query_count: 1\n"));
        assert!(text.contains("query_p50_us: (masked)\n"));
        assert!(text.contains("cached_p99_us: (masked)\n"));
        // Unmasked empty quantiles render as `-`, present ones as numbers.
        let open = snap.render_text(false);
        assert!(open.contains("query_p50_us: 123\n"));
        assert!(open.contains("cached_p50_us: -\n"));
        let json = snap.render_json(true);
        assert!(json.contains("\"uptime_ms\": null"));
        assert!(json.contains("\"rate_per_sec\": null"));
        assert!(json.ends_with("}\n"));
        let stats_json = render_stats_json(&stats());
        assert!(stats_json.contains("\"generation\": 3"));
        assert!(stats_json.contains("\"capacity\": 256"));
    }

    #[test]
    fn access_log_appends_jsonl_lines() {
        let dir = std::env::temp_dir().join(format!("swim-serve-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::new(Some(&path)).unwrap();
        for id in 1..=3u64 {
            t.log_access(&AccessRecord {
                id,
                command: "ping",
                generation: 0,
                cached: false,
                queue_us: 0,
                execute_us: 0,
                render_us: 0,
                total_us: 1,
                outcome: "ok",
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\":1,\"command\":\"ping\""));
        assert!(lines.iter().all(|l| l.ends_with("\"outcome\":\"ok\"}")));
        let _ = std::fs::remove_file(&path);
    }
}
