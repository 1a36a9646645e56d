//! The snapshot-isolation pin: N client threads hammer mixed queries
//! while a writer runs `ingest`/`compact`/`vacuum` over the wire.
//! Every response must be bit-identical to a *serial* re-execution
//! against the generation the response header reports, and no request
//! may observe a torn manifest (any parse/execute failure would surface
//! as a non-`ok` response and fail the test).

mod support;

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use support::serial_oracle;
use swim_serve::protocol::Response;
use swim_serve::{serve, ServeOptions};

/// Mixed query lines: global aggregates, group-bys, predicates, every
/// output format, and a `--serial` request (which must not change a
/// single byte).
const MIX: &[&str] = &[
    "query --select count",
    "query --select \"count,sum(total_io)\" --group-by \"submit/3600\" --limit 5",
    "query --select \"p50(duration),max(input)\" --where \"input >= 1mb\"",
    "query --select count --format json",
    "query --select \"sum(input),avg(duration)\" --format md",
    "query --select \"count,p90(total_task_time)\" --serial",
];

fn record_oracle(dir: &Path, generation: u64, oracle: &Mutex<HashMap<(u64, usize), Vec<u8>>>) {
    let mut map = oracle.lock().unwrap();
    for (idx, line) in MIX.iter().enumerate() {
        map.insert((generation, idx), serial_oracle(dir, generation, line));
    }
}

#[test]
fn concurrent_queries_match_serial_reexecution_per_generation() {
    let dir = support::temp_dir("stress");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 600)); // generation 1
    let t1 = dir.join("t1.swim");
    let t2 = dir.join("t2.swim");
    let t3 = dir.join("t3.swim");
    support::write_trace_file(&t1, 1, 250);
    support::write_trace_file(&t2, 2, 330);
    support::write_trace_file(&t3, 3, 410);

    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 4,
            queue_depth: 512,
            cache_capacity: 64,
            allow_admin: true,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let oracle: Mutex<HashMap<(u64, usize), Vec<u8>>> = Mutex::new(HashMap::new());
    record_oracle(&cat_dir, 1, &oracle);

    let responses: Mutex<Vec<(usize, Response)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..8usize {
            let responses = &responses;
            s.spawn(move || {
                for i in 0..30usize {
                    let idx = (client + i) % MIX.len();
                    let resp = support::request(addr, MIX[idx]);
                    responses.lock().unwrap().push((idx, resp));
                }
            });
        }
        let oracle = &oracle;
        let cat_dir = &cat_dir;
        let admin = move |line: &str| {
            let resp = support::request(addr, line);
            assert!(resp.ok, "admin {line:?} failed: {}", resp.body_text());
            resp.generation
        };
        s.spawn(move || {
            // Each mutation publishes a generation; the oracle for it is
            // recorded (serially) before the next mutation starts, so
            // every generation a client can ever see has a pin.
            let g = admin(&format!("ingest {}", t1.display()));
            assert_eq!(g, 2);
            record_oracle(cat_dir, 2, oracle);
            let g = admin("compact");
            assert_eq!(g, 3);
            record_oracle(cat_dir, 3, oracle);
            let g = admin(&format!("ingest {}", t2.display()));
            assert_eq!(g, 4);
            record_oracle(cat_dir, 4, oracle);
            // vacuum keeps the generation; it must wait out any reader
            // still pinned to an older snapshot before deleting files.
            let g = admin("vacuum");
            assert_eq!(g, 4);
            let g = admin(&format!("ingest {}", t3.display()));
            assert_eq!(g, 5);
            record_oracle(cat_dir, 5, oracle);
        });
    });

    let oracle = oracle.into_inner().unwrap();
    let responses = responses.into_inner().unwrap();
    assert_eq!(responses.len(), 8 * 30);
    let mut generations_seen = std::collections::BTreeSet::new();
    for (idx, resp) in &responses {
        assert!(
            resp.ok,
            "query {:?} failed: {}",
            MIX[*idx],
            resp.body_text()
        );
        let expected = oracle
            .get(&(resp.generation, *idx))
            .unwrap_or_else(|| panic!("response reported unpinned generation {}", resp.generation));
        assert_eq!(
            &resp.body, expected,
            "query {:?} at generation {} drifted from its serial re-execution",
            MIX[*idx], resp.generation
        );
        generations_seen.insert(resp.generation);
    }
    // The battery is only meaningful if traffic actually spanned
    // mutations; the first and last generations always qualify.
    assert!(generations_seen.contains(&1) || generations_seen.len() > 1);

    let stats = handle.stats();
    assert_eq!(
        stats.overloaded, 0,
        "queue depth was sized to admit everyone"
    );
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}
