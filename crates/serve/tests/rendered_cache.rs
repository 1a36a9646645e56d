//! The result cache holds rendered bytes under two kinds of key, and a
//! repeated line is answered before it is parsed. None of that may show
//! in a response: whichever key answers, the body is byte for byte what
//! `Session::execute(serial)` renders for the generation the header
//! reports, `cached` means what it always meant, and a line that must
//! not be remembered (a fault, a refusal) never is.

mod support;

use std::time::{Duration, Instant};

use support::{init_catalog, serial_oracle, temp_dir, write_trace_file, Conn};
use swim_serve::{serve, ErrorKind, ServeOptions};

/// The five shapes of the benchmark's mix (`perf/src/mix.rs`) with
/// literals sized to the test catalog, then each other output format
/// and a `--serial` request.
const SHAPES: &[&str] = &[
    "query --select \"count,sum(total_io),p50(duration),p90(input)\" \
     --where \"total_io * 1024 >= 7\"",
    "query --select \"count,sum(total_io),avg(duration)\" \
     --group-by \"submit / 1h - submit / 1d * 24\" --where \"total_io * 1024 >= 7\"",
    "query --select count --where \"input > 100mb and duration >= 1min\"",
    "query --select \"count,sum(total_io)\" \
     --where \"submit >= 3600 and submit < 7200 and total_io * 1024 >= 7\"",
    "query --select \"count,sum(total_io),p50(duration)\" --group-by map_tasks \
     --where \"total_io * 1024 >= 7\" --order-by 2 --desc --limit 100",
    "query --select \"count,max(input)\" --where \"input > 100mb\" --format json",
    "query --select \"count,avg(duration)\" --group-by map_tasks --format markdown",
    "query --select \"count,p90(total_task_time)\" --serial",
];

/// First sending executes, the second is a canonical hit (and files the
/// line), every later one is a line hit — and all of them carry the
/// bytes a serial execution renders.
#[test]
fn every_sending_of_a_line_carries_the_serially_rendered_bytes() {
    let dir = temp_dir("rendered");
    init_catalog(&dir, 400);
    let handle = serve(&dir, ServeOptions::default()).unwrap();
    let mut conn = Conn::open(handle.addr());

    for (n, line) in SHAPES.iter().enumerate() {
        let want = serial_oracle(&dir, 1, line);
        for sending in 1..=4 {
            let resp = conn.send(line);
            assert!(resp.ok, "{line}: {}", resp.body_text());
            assert_eq!(resp.generation, 1);
            assert_eq!(resp.cached, sending > 1, "sending {sending} of {line}");
            assert_eq!(
                resp.body,
                want,
                "sending {sending} of {line}:\n{}",
                resp.body_text()
            );
            // One canonical key from the miss, one line key from the
            // first hit, nothing from the line hits after it.
            let cache = handle.stats().cache;
            assert_eq!(cache.entries, 2 * n + sending.min(2), "{line}");
            assert_eq!(
                (cache.hits, cache.misses),
                ((3 * n + sending - 1) as u64, (n + 1) as u64)
            );
        }
    }
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Spellings of one query share one result (one miss between them);
/// formats of one query do not share a body.
#[test]
fn spellings_share_a_result_and_formats_do_not() {
    let dir = temp_dir("spellings");
    init_catalog(&dir, 300);
    let handle = serve(&dir, ServeOptions::default()).unwrap();
    let mut conn = Conn::open(handle.addr());

    let spellings = [
        "query --select count --where \"duration >= 100\"",
        "query   --select  count \t --where   \"duration >= 100\"  ",
        "query --select \"count\" --where \"duration >= 100\"",
        "query --where \"duration >= 100\" --select count",
        // The command itself quoted: served, but this spelling is never
        // filed under a line key.
        "\"query\" --select count --where \"duration >= 100\"",
    ];
    let want = serial_oracle(&dir, 1, spellings[0]);
    for (n, line) in spellings.iter().enumerate() {
        for sending in 1..=3 {
            let resp = conn.send(line);
            assert!(resp.ok, "{line}: {}", resp.body_text());
            assert_eq!(resp.cached, (n, sending) != (0, 1), "{line} #{sending}");
            assert_eq!(resp.body, want, "{line} #{sending}");
        }
    }
    let cache = handle.stats().cache;
    assert_eq!(cache.misses, 1, "five spellings, one execution");
    assert_eq!(cache.hits, 14);
    assert_eq!(
        cache.entries, 5,
        "one canonical key and a line key for each bare-`query` spelling"
    );

    let table = conn.send("query --select count --where \"duration >= 100\" --format table");
    assert!(table.cached, "`table` is the default format: same body");
    assert_eq!(table.body, want);
    let json = conn.send("query --select count --where \"duration >= 100\" --format json");
    assert!(json.ok && !json.cached, "another format is another body");
    assert_ne!(json.body, want);
    assert_eq!(
        json.body,
        serial_oracle(
            &dir,
            1,
            "query --select count --where \"duration >= 100\" --format json"
        )
    );
    assert_eq!(handle.stats().cache.misses, 2);

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A line key is a key at one generation: after an `ingest` the same
/// line is executed afresh against the new generation, never answered
/// with the old bytes.
#[test]
fn a_line_key_does_not_outlive_its_generation() {
    let dir = temp_dir("line-generation");
    let cat_dir = dir.join("cat.d");
    drop(init_catalog(&cat_dir, 300));
    let extra = dir.join("extra.swim");
    write_trace_file(&extra, 9, 140);
    let handle = serve(
        &cat_dir,
        ServeOptions {
            allow_admin: true,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut conn = Conn::open(handle.addr());
    let line = "query --select \"count,sum(total_io)\"";

    let old = serial_oracle(&cat_dir, 1, line);
    for sending in 1..=3 {
        let resp = conn.send(line);
        assert_eq!((resp.generation, resp.cached), (1, sending > 1));
        assert_eq!(resp.body, old);
    }
    assert_eq!(handle.stats().cache.entries, 2, "the line is keyed");

    let ingest = conn.send(&format!("ingest {}", extra.display()));
    assert!(ingest.ok, "{}", ingest.body_text());
    assert_eq!(ingest.generation, 2);

    let new = serial_oracle(&cat_dir, 2, line);
    assert_ne!(new, old, "140 more jobs must change the count");
    for sending in 1..=3 {
        let resp = conn.send(line);
        assert!(resp.ok);
        assert_eq!(
            (resp.generation, resp.cached),
            (2, sending > 1),
            "sending {sending} after the ingest"
        );
        assert_eq!(resp.body, new, "sending {sending} after the ingest");
    }
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--fault` line does what it says every time it is sent, and a
/// refused line is refused the same way every time: neither is ever
/// filed under a line key.
#[test]
fn fault_and_refused_lines_are_never_remembered() {
    let dir = temp_dir("never-keyed");
    init_catalog(&dir, 100);
    let handle = serve(
        &dir,
        ServeOptions {
            allow_faults: true,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut conn = Conn::open(handle.addr());

    let want = serial_oracle(&dir, 1, "query --select count");
    for sending in 1..=3 {
        let sent = Instant::now();
        let resp = conn.send("query --select count --fault sleep:150");
        assert!(
            sent.elapsed() >= Duration::from_millis(150),
            "sending {sending} did not sleep"
        );
        assert!(resp.ok, "{}", resp.body_text());
        // The result is cacheable (the sleep comes before the lookup, as
        // it always did); the line is not.
        assert_eq!(resp.cached, sending > 1);
        assert_eq!(resp.body, want);
    }
    let after_faults = handle.stats().cache;
    assert_eq!(after_faults.entries, 1, "the canonical key and no line key");
    assert_eq!((after_faults.hits, after_faults.misses), (2, 1));

    for line in [
        "query --select count --explain",
        "query --select count --no-such-flag",
        "query --where \"input >\"",
        "query --select count --where \"unterminated",
    ] {
        let first = conn.send(line);
        assert_eq!(first.kind, Some(ErrorKind::BadRequest), "{line}");
        let _second = conn.send(line);
        let third = conn.send(line);
        assert_eq!(first, third, "{line}");
    }
    assert_eq!(
        handle.stats().cache,
        after_faults,
        "a refused line reaches no lookup and files nothing"
    );
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Capacity 0 turns the cache off, not the server: every request
/// executes and renders, and nothing is kept.
#[test]
fn capacity_zero_executes_every_request_and_keeps_nothing() {
    let dir = temp_dir("capacity-zero");
    init_catalog(&dir, 100);
    let handle = serve(
        &dir,
        ServeOptions {
            cache_capacity: 0,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut conn = Conn::open(handle.addr());
    let line = "query --select \"count,avg(duration)\"";
    let want = serial_oracle(&dir, 1, line);
    for _ in 0..3 {
        let resp = conn.send(line);
        assert!(resp.ok && !resp.cached);
        assert_eq!(resp.body, want);
    }
    let cache = handle.stats().cache;
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 3, 0));
    let snap = handle.telemetry();
    assert_eq!((snap.query.count, snap.cached.count), (3, 0));
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}
