//! The `swim-obs` counters of the cached request path. They are
//! process-wide, so this file holds one test and reads them as deltas.

mod support;

use support::{init_catalog, temp_dir, Conn};
use swim_catalog::MANIFEST_FILE;
use swim_serve::{serve, ServeOptions};

fn counter(name: &str) -> u64 {
    swim_obs::snapshot().counter(name).unwrap_or(0)
}

/// `serve.renders` counts the misses that executed, `serve.cache_hits`
/// every hit and `serve.cache_line_hits` those a line key answered; an
/// unreadable or malformed `MANIFEST` is counted in
/// `serve.generation_peek_failed` while the server goes on serving the
/// snapshot it has.
#[test]
fn cached_path_counters_count_what_they_name() {
    swim_obs::set_enabled(swim_obs::METRICS);
    let dir = temp_dir("obs-counters");
    init_catalog(&dir, 100);
    let handle = serve(&dir, ServeOptions::default()).unwrap();
    let mut conn = Conn::open(handle.addr());
    let names = [
        "serve.renders",
        "serve.cache_misses",
        "serve.cache_hits",
        "serve.cache_line_hits",
        "serve.generation_peek_failed",
    ];
    let before = names.map(counter);
    let moved = |expected: [u64; 5], when: &str| {
        let now = names.map(counter);
        for ((name, now), (before, expected)) in
            names.iter().zip(now).zip(before.iter().zip(expected))
        {
            assert_eq!(now - before, expected, "{name} {when}");
        }
    };

    let line = "query --select \"count,sum(input)\"";
    let first = conn.send(line);
    assert!(first.ok && !first.cached);
    moved([1, 1, 0, 0, 0], "after the miss");
    assert!(conn.send(line).cached);
    moved([1, 1, 1, 0, 0], "after the canonical hit");
    assert!(conn.send(line).cached);
    assert!(conn.send(line).cached);
    moved([1, 1, 3, 2, 0], "after two line hits");

    // No MANIFEST, then a malformed one: each peek fails and is counted,
    // and the request is answered from the snapshot already open.
    let manifest = dir.join(MANIFEST_FILE);
    let saved = dir.join("MANIFEST.saved");
    std::fs::rename(&manifest, &saved).unwrap();
    let blind = conn.send(line);
    assert!(blind.ok && blind.cached);
    assert_eq!((blind.generation, &blind.body), (1, &first.body));
    std::fs::write(&manifest, "swim-catalog-manifest v1\ngeneration x\n").unwrap();
    assert!(conn.send("ping").ok);
    moved([1, 1, 4, 3, 2], "after two failed peeks");
    std::fs::rename(&saved, &manifest).unwrap();
    assert!(conn.send(line).cached);
    moved([1, 1, 5, 4, 2], "with the MANIFEST back");

    handle.shutdown_join();
    swim_obs::set_enabled(0);
    std::fs::remove_dir_all(&dir).ok();
}
