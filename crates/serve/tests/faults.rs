//! Fault injection: kill a worker mid-request (`--fault panic`), drop
//! client connections mid-request and mid-response, send request lines
//! past the protocol's length cap, and drip one a byte at a time. The
//! server must stay up, account every admission permit (none leak), and
//! keep serving afterwards.

mod support;

use std::io::{Read, Write};
use std::time::Duration;

use swim_serve::protocol::{self, ErrorKind};
use swim_serve::{serve, ServeOptions, ServerHandle};

/// Wait (up to 5 s) for every admission permit to come back, then
/// assert that they did.
fn assert_permits_drain(handle: &ServerHandle) {
    let mut stats = handle.stats();
    for _ in 0..500 {
        if stats.admitted == 0 && stats.queued == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
        stats = handle.stats();
    }
    panic!(
        "admission permits leaked: admitted={} queued={}",
        stats.admitted, stats.queued
    );
}

#[test]
fn panics_and_dropped_connections_leave_no_leaks() {
    let dir = support::temp_dir("faults");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 200));

    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            cache_capacity: 16,
            allow_faults: true,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A worker panic mid-request becomes a typed `internal` error and
    // the SAME connection keeps working — the worker survived.
    let mut stream = support::connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    protocol::write_request(&mut stream, "query --select count --fault panic").unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let resp = protocol::read_response(&mut reader).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::Internal));
    assert!(
        resp.body_text().contains("panicked"),
        "{}",
        resp.body_text()
    );
    protocol::write_request(&mut stream, "query --select count").unwrap();
    let resp = protocol::read_response(&mut reader).unwrap();
    assert!(resp.ok, "connection must survive its worker's panic");
    drop((stream, reader));

    // Repeatedly kill workers on fresh connections; every one is
    // contained and answered.
    for _ in 0..10 {
        let resp = support::request(addr, "query --select count --fault panic");
        assert!(!resp.ok);
        assert_eq!(resp.kind, Some(ErrorKind::Internal));
    }

    // Drop connections mid-request (partial line, no newline) and
    // mid-response (full request, never read, drop immediately).
    for _ in 0..20 {
        let mut partial = support::connect(addr);
        partial.write_all(b"query --select").unwrap();
        drop(partial);
        let mut unread = support::connect(addr);
        unread.write_all(b"query --select count\n").unwrap();
        drop(unread);
    }

    // Every admission permit must come back: no leaks from panics,
    // EOF-mid-line reads, or failed response writes.
    assert_permits_drain(&handle);
    let stats = handle.stats();
    assert!(stats.worker_panics >= 11, "panics: {}", stats.worker_panics);

    // And the server still serves normal traffic. The dropped
    // connections above may still be draining out of the listener
    // backlog (they are invisible to `stats` until accepted), so a
    // transient typed `overloaded` is legitimate here — retry through
    // it; anything else, or never recovering, is a failure.
    let mut resp = support::request(addr, "query --select count");
    for _ in 0..200 {
        if resp.kind != Some(ErrorKind::Overloaded) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        resp = support::request(addr, "query --select count");
    }
    assert!(resp.ok, "{}", resp.body_text());
    let resp = support::request(addr, "ping");
    assert!(resp.ok);
    assert_eq!(resp.body_text(), "pong\n");

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission control: more simultaneous connections than `queue_depth`
/// must produce typed `overloaded` rejections, never unbounded queueing
/// — and the permits all come back afterwards.
#[test]
fn overload_is_typed_and_bounded() {
    let dir = support::temp_dir("overload");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 100));

    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 1,
            queue_depth: 2,
            cache_capacity: 0,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Open idle connections to fill the admission window; the worker
    // parks on the first one (no request arrives), the second waits in
    // the queue, so both permits stay held.
    let hold_a = support::connect(addr);
    let hold_b = support::connect(addr);
    // Give the acceptor time to admit both.
    std::thread::sleep(Duration::from_millis(200));

    // The window is full: fresh connections are rejected immediately
    // with a typed overloaded error, not queued.
    let mut saw_overloaded = false;
    for _ in 0..5 {
        let stream = support::connect(addr);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        match protocol::read_response(&mut reader) {
            Ok(resp) => {
                assert!(!resp.ok);
                assert_eq!(resp.kind, Some(ErrorKind::Overloaded));
                saw_overloaded = true;
                break;
            }
            // The acceptor may not have gotten to us yet; retry.
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    assert!(saw_overloaded, "a full admission window must reject typed");

    // Release the held slots; the window drains and service resumes.
    drop(hold_a);
    drop(hold_b);
    let mut served = false;
    for _ in 0..200 {
        let mut stream = support::connect(addr);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        if protocol::write_request(&mut stream, "ping").is_err() {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let mut reader = std::io::BufReader::new(stream);
        if let Ok(resp) = protocol::read_response(&mut reader) {
            if resp.ok {
                served = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(served, "service must resume after the overload clears");

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request line past `MAX_REQUEST_LINE` is refused with `bad_request`
/// as soon as the cap is exceeded — the server neither waits for a
/// newline nor buffers what follows — a line exactly at the cap is
/// served, and the permits of all three connections come back.
#[test]
fn oversize_request_lines_are_refused_at_the_cap() {
    use swim_serve::protocol::MAX_REQUEST_LINE;

    let dir = support::temp_dir("oversize");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 100));
    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 2,
            queue_depth: 4,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let refused = |stream: std::net::TcpStream| {
        let mut reader = std::io::BufReader::new(stream);
        let resp = protocol::read_response(&mut reader).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
        assert!(
            resp.body_text().contains("longer than"),
            "{}",
            resp.body_text()
        );
        // Refused means closed: nothing follows the answer.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0);
    };

    // One byte past the cap and then silence: the refusal arrives, so it
    // was decided on cap + 1 bytes — that is all the server ever held.
    let mut stream = support::connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&vec![b'a'; MAX_REQUEST_LINE + 1]).unwrap();
    refused(stream);

    // A megabyte with no newline: refused the same way. The write may
    // fail once the server has stopped listening; the answer must not.
    let mut stream = support::connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = stream.write_all(&vec![b'a'; 1 << 20]);
    refused(stream);

    // Exactly at the cap (blank padding is trimmed off a request): served,
    // and the connection lives on.
    let mut stream = support::connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let line = format!("ping{}", " ".repeat(MAX_REQUEST_LINE - 4));
    protocol::write_request(&mut stream, &line).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let resp = protocol::read_response(&mut reader).unwrap();
    assert!(resp.ok, "{}", resp.body_text());
    assert_eq!(resp.body_text(), "pong\n");
    protocol::write_request(&mut stream, "ping").unwrap();
    assert!(protocol::read_response(&mut reader).unwrap().ok);
    drop((stream, reader));

    assert_permits_drain(&handle);
    assert!(support::request(addr, "ping").ok);

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request line has five seconds from its first byte to its newline.
/// A client dripping a byte every 50 ms — faster than any read timeout,
/// so the connection never looks idle — is refused `bad_request` just
/// after that deadline, on the hundred-odd bytes it had sent, and gives
/// its worker and its permit back; a line that merely arrives in two
/// writes is served.
#[test]
fn a_dripped_request_line_is_refused_at_its_deadline() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Instant;

    let dir = support::temp_dir("slow-loris");
    let cat_dir = dir.join("cat.d");
    drop(support::init_catalog(&cat_dir, 100));
    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 1,
            queue_depth: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let stream = support::connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let stop = AtomicBool::new(false);
    let sent = AtomicUsize::new(0);
    let started = Instant::now();
    let (resp, waited) = std::thread::scope(|scope| {
        let mut dripper = stream.try_clone().unwrap();
        let (stop, sent) = (&stop, &sent);
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) && dripper.write_all(b"a").is_ok() {
                sent.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let mut reader = std::io::BufReader::new(stream);
        let resp = protocol::read_response(&mut reader);
        let waited = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        // Refused means closed: nothing follows the answer.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0);
        (resp.unwrap(), waited)
    });
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
    assert!(
        resp.body_text().contains("not finished within 5 s"),
        "{}",
        resp.body_text()
    );
    assert!(
        waited >= Duration::from_secs(5) && waited < Duration::from_secs(9),
        "refused after {waited:?}"
    );
    // Decided by the clock, on what little had arrived: nowhere near the
    // length cap, which is the other thing that bounds a line.
    let sent = sent.load(Ordering::Relaxed);
    assert!((1..400).contains(&sent), "{sent} bytes dripped");

    // The only worker and both permits are free again …
    assert_permits_drain(&handle);

    // … and a line sent in two writes 200 ms apart is a line.
    let mut stream = support::connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"pi").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(b"ng\n").unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let resp = protocol::read_response(&mut reader).unwrap();
    assert!(resp.ok, "{}", resp.body_text());
    assert_eq!(resp.body_text(), "pong\n");
    drop(reader);

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard damaged on disk: the request that reads the damage is a typed
/// `internal` naming the shard file, every time — an error is never put
/// in the result cache — while requests that do not read it, and the
/// server, carry on.
#[test]
fn a_damaged_shard_is_an_internal_error_and_never_a_cached_answer() {
    let dir = support::temp_dir("damaged-shard");
    let cat_dir = dir.join("cat.d");
    let catalog = support::init_catalog(&cat_dir, 200);
    let shard = catalog.shards()[0].file.clone();
    drop(catalog);

    // Flip one bit inside the shard's `input` column block, found
    // through the chunk's own table of block lengths.
    let path = cat_dir.join(&shard);
    let mut bytes = std::fs::read(&path).unwrap();
    let chunk = swim_store::Store::from_vec(bytes.clone())
        .unwrap()
        .chunk_meta()[0];
    let table = chunk.offset as usize + swim_store::format::CHUNK_HEADER_LEN;
    let input = swim_store::ZoneMap::IO[0];
    let len = |block: usize| {
        let entry = table + block * 16;
        u64::from_le_bytes(bytes[entry..entry + 8].try_into().unwrap()) as usize
    };
    let at = (0..input).map(len).sum::<usize>() + len(input) / 2;
    bytes[table + swim_store::format::columns::TABLE_LEN + at] ^= 0x08;
    std::fs::write(&path, bytes).unwrap();

    let handle = serve(
        &cat_dir,
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            cache_capacity: 16,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    for _ in 0..3 {
        let resp = support::request(addr, "query --select sum(input)");
        assert!(!resp.ok, "{}", resp.body_text());
        assert_eq!(resp.kind, Some(ErrorKind::Internal));
        let body = resp.body_text();
        assert!(body.contains("checksum mismatch"), "{body}");
        assert!(body.contains(&shard), "{body}");
    }
    let stats = handle.stats();
    assert_eq!((stats.cache.entries, stats.cache.hits), (0, 0));
    assert_eq!(stats.cache.misses, 3, "looked up and executed every time");
    assert_eq!(stats.worker_panics, 0);

    // Columns the damage is not in still answer, and are cached.
    for cached in [false, true] {
        let resp = support::request(addr, "query --select count,sum(duration)");
        assert!(resp.ok, "{}", resp.body_text());
        assert_eq!(resp.cached, cached);
    }
    assert_permits_drain(&handle);
    assert!(support::request(addr, "ping").ok);

    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();
}
