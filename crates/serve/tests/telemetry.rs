//! The live-telemetry surface: byte-stable `stats`/`metrics` wire
//! bodies, the JSONL access log, request ids in the flight recorder,
//! and the O(buckets) memory bound for server-side latency recording.

mod support;

use support::{init_catalog, temp_dir, Conn};
use swim_serve::telemetry::{WINDOW_BUCKETS, WINDOW_SAMPLE_CAP};
use swim_serve::{serve, ErrorKind, RequestClass, ServeOptions, Telemetry};

fn options(cache: usize) -> ServeOptions {
    ServeOptions {
        cache_capacity: cache,
        ..ServeOptions::default()
    }
}

/// One sequential request script over one connection, then `metrics
/// --mask`: every unmasked field is deterministic, so the whole body
/// is pinned byte-for-byte. This is the same contract CI's golden job
/// checks against a release binary.
#[test]
fn masked_metrics_body_is_byte_stable() {
    let dir = temp_dir("metrics-golden");
    init_catalog(&dir, 100);
    let handle = serve(&dir, options(8)).unwrap();
    let mut conn = Conn::open(handle.addr());

    assert!(conn.send("ping").ok);
    let miss = conn.send("query --select count");
    assert!(miss.ok && !miss.cached);
    let hit = conn.send("query --select count");
    assert!(hit.ok && hit.cached);

    let resp = conn.send("metrics --mask");
    assert!(resp.ok);
    assert_eq!(resp.generation, 1);
    let expected = "\
generation: 1
uptime_ms: (masked)
requests: 4
responses_ok: 3
responses_error: 0
overloaded: 0
worker_panics: 0
admitted: 1
queued: 0
retired_sessions: 0
cache_hits: 1
cache_misses: 1
cache_evictions: 0
cache_entries: 2
cache_capacity: 8
window_ms: 60000
window_requests: 3
window_rate_per_sec: (masked)
query_count: 1
query_p50_us: (masked)
query_p95_us: (masked)
query_p99_us: (masked)
query_max_us: (masked)
cached_count: 1
cached_p50_us: (masked)
cached_p95_us: (masked)
cached_p99_us: (masked)
cached_max_us: (masked)
admin_count: 0
admin_p50_us: (masked)
admin_p95_us: (masked)
admin_p99_us: (masked)
admin_max_us: (masked)
";
    assert_eq!(resp.body_text(), expected);

    let resp = conn.send("metrics --mask --format json");
    assert!(resp.ok);
    let expected_json = "\
{
  \"generation\": 1,
  \"uptime_ms\": null,
  \"lifetime\": {\"requests\": 5, \"responses_ok\": 4, \"responses_error\": 0, \"overloaded\": 0, \"worker_panics\": 0},
  \"pool\": {\"admitted\": 1, \"queued\": 0, \"retired_sessions\": 0},
  \"cache\": {\"hits\": 1, \"misses\": 1, \"evictions\": 0, \"entries\": 2, \"capacity\": 8},
  \"window\": {\"window_ms\": 60000, \"requests\": 4, \"rate_per_sec\": null},
  \"query\": {\"count\": 1, \"p50_us\": null, \"p95_us\": null, \"p99_us\": null, \"max_us\": null},
  \"cached\": {\"count\": 1, \"p50_us\": null, \"p95_us\": null, \"p99_us\": null, \"max_us\": null},
  \"admin\": {\"count\": 0, \"p50_us\": null, \"p95_us\": null, \"p99_us\": null, \"max_us\": null}
}
";
    assert_eq!(resp.body_text(), expected_json);

    let resp = conn.send("stats --format json");
    assert!(resp.ok);
    let expected_stats = "\
{
  \"generation\": 1,
  \"admitted\": 1,
  \"queued\": 0,
  \"retired_sessions\": 0,
  \"requests\": 6,
  \"responses_ok\": 5,
  \"responses_error\": 0,
  \"overloaded\": 0,
  \"worker_panics\": 0,
  \"cache\": {\"hits\": 1, \"misses\": 1, \"evictions\": 0, \"entries\": 2, \"capacity\": 8}
}
";
    assert_eq!(resp.body_text(), expected_stats);

    // Unmasked metrics carries real values for the masked slots.
    let resp = conn.send("metrics");
    assert!(resp.ok);
    let text = resp.body_text();
    assert!(!text.contains("(masked)"));
    assert!(text.contains("query_count: 1\n"));
    // The admin window is empty: quantiles render as `-`.
    assert!(text.contains("admin_p50_us: -\n"));

    // Argument validation is typed.
    let resp = conn.send("metrics --format yaml");
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
    let resp = conn.send("stats --mask");
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest));

    handle.shutdown_join();
}

/// Every request appends one JSONL line: monotonic ids, the command,
/// cache attribution, per-phase timings, and a typed outcome — errors
/// included.
#[test]
fn access_log_records_every_request_with_ids_and_outcomes() {
    let dir = temp_dir("access-log");
    init_catalog(&dir, 100);
    let log_path = dir.join("access.jsonl");
    let opts = ServeOptions {
        access_log: Some(log_path.clone()),
        ..options(8)
    };
    let handle = serve(&dir, opts).unwrap();
    let mut conn = Conn::open(handle.addr());

    assert!(conn.send("ping").ok);
    assert!(conn.send("query --select count").ok);
    let hit = conn.send("query --select count");
    assert!(hit.cached);
    assert_eq!(conn.send("nonsense").kind, Some(ErrorKind::BadRequest));
    assert_eq!(
        conn.send("vacuum").kind,
        Some(ErrorKind::BadRequest),
        "admin disabled"
    );
    drop(conn);
    handle.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one line per request:\n{text}");
    // Ids are monotonic from 1; field order is fixed.
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{},\"command\":", i + 1)),
            "line {i}: {line}"
        );
        assert!(line.ends_with('}'), "valid JSON object per line: {line}");
    }
    assert!(lines[0].contains("\"command\":\"ping\""));
    assert!(lines[0].contains("\"outcome\":\"ok\""));
    // The uncached query executed; the cached one did not.
    assert!(lines[1].contains("\"command\":\"query\""));
    assert!(lines[1].contains("\"cached\":0"));
    assert!(lines[2].contains("\"cached\":1"));
    assert!(lines[2].contains("\"execute_us\":0"));
    assert!(
        lines[2].contains("\"render_us\":0"),
        "a hit sends bytes the miss rendered: {}",
        lines[2]
    );
    // Errors carry their kind token as the outcome.
    assert!(lines[3].contains("\"command\":\"unknown\""));
    assert!(lines[3].contains("\"outcome\":\"bad_request\""));
    assert!(lines[4].contains("\"command\":\"vacuum\""));
    assert!(lines[4].contains("\"outcome\":\"bad_request\""));
}

/// Request events land in the `swim-obs` flight recorder tagged with
/// their request id, without any `SWIM_OBS` enablement.
#[test]
fn request_ids_reach_the_flight_recorder() {
    let dir = temp_dir("flight");
    init_catalog(&dir, 50);
    let handle = serve(&dir, options(4)).unwrap();
    let mut conn = Conn::open(handle.addr());
    for _ in 0..3 {
        assert!(conn.send("ping").ok);
    }
    drop(conn);
    handle.shutdown_join();

    let events = swim_obs::flight::recent();
    let tagged: Vec<u64> = events
        .iter()
        .filter(|e| e.path == "serve.request")
        .filter_map(|e| e.id)
        .collect();
    assert!(
        tagged.len() >= 3,
        "expected id-tagged request events, got {events:?}"
    );
    // This server's ids start at 1 and count up.
    assert!(tagged.contains(&1) && tagged.contains(&3));
}

/// The resident-process memory bound: a server that has recorded far
/// more requests than the windows can hold retains O(buckets) latency
/// samples, not O(requests). (Keeping every sample for the process's
/// lifetime is the footgun this layer exists to remove.)
#[test]
fn server_latency_memory_is_o_buckets_not_o_requests() {
    let telemetry = Telemetry::new(None).unwrap();
    let total = 300_000u64;
    for i in 0..total {
        let class = match i % 3 {
            0 => RequestClass::Query,
            1 => RequestClass::Cached,
            _ => RequestClass::Admin,
        };
        telemetry.record_request(class, i % 7_919);
    }
    let bound = 3 * WINDOW_BUCKETS * WINDOW_SAMPLE_CAP;
    let retained = telemetry.retained_samples();
    assert!(retained <= bound, "retained {retained} > bound {bound}");
    assert!(
        (retained as u64) < total / 10,
        "retained {retained} is not sublinear in {total} requests"
    );
}

/// Windowed quantiles answered over the wire agree with what the
/// telemetry snapshot computes — and the request window keeps counting
/// across classes.
#[test]
fn wire_metrics_reflect_recorded_latencies() {
    let dir = temp_dir("wire-window");
    init_catalog(&dir, 100);
    let handle = serve(&dir, options(0)).unwrap(); // cache off: every query executes
    let mut conn = Conn::open(handle.addr());
    for _ in 0..8 {
        assert!(conn.send("query --select count").ok);
    }
    let snap = handle.telemetry();
    assert_eq!(snap.query.count, 8);
    assert_eq!(snap.cached.count, 0);
    assert!(snap.query.quantile(0.5).is_some());
    assert!(snap.window.count >= 8);
    let resp = conn.send("metrics");
    assert!(resp.ok);
    let text = resp.body_text();
    assert!(text.contains("query_count: 8\n"), "{text}");
    // p50 <= p95 <= p99 <= max once parsed back out.
    let grab = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in:\n{text}"))
    };
    let (p50, p95, p99, max) = (
        grab("query_p50_us:"),
        grab("query_p95_us:"),
        grab("query_p99_us:"),
        grab("query_max_us:"),
    );
    assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
    drop(conn);
    handle.shutdown_join();
}
