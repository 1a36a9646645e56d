//! Acceptance for the live-telemetry loop: a resident server under
//! load answers `metrics` with windowed quantiles and a request rate
//! that agree with what the load generator measured client-side, and
//! the `swim-top` binary renders it.

use std::process::Command;

use swim_catalog::{Catalog, CatalogOptions};
use swim_obs::clock;
use swim_serve::load::{self, LoadConfig};
use swim_serve::top::{self, Dashboard};
use swim_serve::{serve, ServeOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

fn demo_trace(jobs: u64) -> Trace {
    let jobs = (0..jobs)
        .map(|i| {
            let x = i.wrapping_mul(2654435761);
            JobBuilder::new(i)
                .submit(Timestamp::from_secs(i * 60))
                .duration(Dur::from_secs(30 + x % 240))
                .input(DataSize::from_mb(1 + x % 256))
                .map_task_time(Dur::from_secs(60 + x % 90))
                .tasks(1 + (x % 8) as u32, 0)
                .build()
                .unwrap()
        })
        .collect();
    Trace::new(WorkloadKind::Custom("bench-telemetry".into()), 50, jobs).unwrap()
}

fn temp_catalog(tag: &str, jobs: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("swim-bench-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cat_dir = dir.join("cat.d");
    let mut catalog = Catalog::init(&cat_dir).unwrap();
    catalog
        .ingest_trace(&demo_trace(jobs), &CatalogOptions::default())
        .unwrap();
    cat_dir
}

/// Server-side windowed p50/p95/p99 and req/s, read over the wire, must
/// agree with the client-side ECDF over the same requests.
///
/// Every server-side total is a slice of the matching client roundtrip,
/// so order statistics are pointwise dominated: each server quantile is
/// at most the client quantile (plus clock-granularity slack) and, on
/// loopback, not absurdly below it. The window rate is bracketed by the
/// two denominators the client can bound: the whole process lifetime
/// (window coverage can reach back to the clock epoch) and the load
/// span itself (coverage at least spans the recorded requests).
#[test]
fn server_windowed_metrics_match_client_ecdf() {
    let cat_dir = temp_catalog("ecdf", 400);
    let options = ServeOptions {
        cache_capacity: 0, // every request executes: one class to compare
        queue_depth: 32,
        ..ServeOptions::default()
    };
    let handle = serve(&cat_dir, options).unwrap();

    let load_start_ms = clock::now_ms();
    let config = LoadConfig::new(handle.addr(), 2, 30);
    let report = load::run_load(&config);
    assert_eq!(report.ok, 60, "errors={}", report.errors);

    let sample = top::poll(handle.addr(), false).unwrap();
    let end_ms = clock::now_ms().max(1);
    handle.shutdown_join();

    assert_eq!(sample.get("query_count"), Some(60));
    assert_eq!(sample.get("window_requests"), Some(60));

    for (p, key) in [
        (0.50, "query_p50_us"),
        (0.95, "query_p95_us"),
        (0.99, "query_p99_us"),
    ] {
        let client = report.latency_us(p).unwrap();
        let server = sample
            .get(key)
            .unwrap_or_else(|| panic!("{key} missing from metrics"));
        assert!(server >= 1, "{key} = 0");
        assert!(
            server <= client + 2_000,
            "{key}: server {server}us above client {client}us"
        );
        assert!(
            4 * server + 20_000 >= client,
            "{key}: server {server}us implausibly below client {client}us"
        );
    }

    let rate = sample.rate_per_sec.expect("window_rate_per_sec missing");
    let span_ms = end_ms.saturating_sub(load_start_ms).max(1);
    let lifetime_floor = 60_000.0 / end_ms as f64;
    let span_ceiling = 60_000.0 / span_ms as f64;
    assert!(
        rate >= 0.5 * lifetime_floor && rate <= 1.5 * span_ceiling,
        "rate {rate}/s outside [{lifetime_floor}, {span_ceiling}] bracket"
    );

    // The same sample drives a sane dashboard.
    let dash = Dashboard::from_samples(None, &sample);
    assert_eq!(dash.generation, 1);
    assert_eq!(dash.window_requests, 60);
    assert!(dash.req_per_sec.is_some());
    assert!(dash.p99_us >= dash.p50_us);

    // The client-side windowed sparkline saw the same minute of data.
    assert!(!report.window_mean_us.is_empty());
}

/// `swim-top --once --mask --format json` and `--raw` against a live
/// server: the shapes CI pins in the docs job.
#[test]
fn swim_top_once_and_raw_render_against_live_server() {
    let cat_dir = temp_catalog("top", 100);
    let handle = serve(&cat_dir, ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();

    let out = Command::new(env!("CARGO_BIN_EXE_swim-top"))
        .args(["--addr", &addr, "--once", "--mask", "--format", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"generation\": 1"), "{json}");
    assert!(json.contains("\"req_per_sec\": null"), "{json}");
    assert!(json.ends_with("}\n"), "{json}");

    let out = Command::new(env!("CARGO_BIN_EXE_swim-top"))
        .args(["--addr", &addr, "--once", "--mask"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("swim-top\n\n"), "{text}");
    assert!(text.contains("req/s      : (masked)"), "{text}");

    let out = Command::new(env!("CARGO_BIN_EXE_swim-top"))
        .args(["--addr", &addr, "--raw", "ping"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "pong\n");

    // Usage discipline: --format json without --once is exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_swim-top"))
        .args(["--addr", &addr, "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: "));

    handle.shutdown_join();
}
