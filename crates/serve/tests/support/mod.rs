//! Shared fixtures for the swim-serve test battery: deterministic
//! traces, temp catalogs, and tiny protocol clients.

#![allow(dead_code)] // each test target uses a subset

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use swim_catalog::{Catalog, CatalogOptions};
use swim_query::{cli, Session};
use swim_serve::protocol::{self, Response};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

/// A fresh scratch directory per call.
pub fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swim-serve-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic trace whose contents vary with `seed` (so every
/// ingest visibly changes query results).
pub fn demo_trace(seed: u64, jobs: u64) -> Trace {
    let jobs = (0..jobs)
        .map(|i| {
            let x = i.wrapping_mul(2654435761).wrapping_add(seed * 97);
            JobBuilder::new(seed * 1_000_000 + i)
                .submit(Timestamp::from_secs(i * 60 + seed))
                .duration(Dur::from_secs(30 + x % 240))
                .input(DataSize::from_mb(1 + x % 256))
                .map_task_time(Dur::from_secs(60 + x % 90))
                .tasks(1 + (x % 8) as u32, 0)
                .build()
                .unwrap()
        })
        .collect();
    Trace::new(WorkloadKind::Custom(format!("serve-{seed}")), 50, jobs).unwrap()
}

/// Init a catalog at `dir` and ingest one seed-0 trace (generation 1).
pub fn init_catalog(dir: &PathBuf, jobs: u64) -> Catalog {
    let mut catalog = Catalog::init(dir).unwrap();
    catalog
        .ingest_trace(&demo_trace(0, jobs), &CatalogOptions::default())
        .unwrap();
    catalog
}

/// Write a `.swim` trace file the server's `ingest` command can stream.
pub fn write_trace_file(path: &PathBuf, seed: u64, jobs: u64) {
    let bytes = swim_store::store_to_vec(
        &demo_trace(seed, jobs),
        &swim_store::StoreOptions::default(),
    );
    std::fs::write(path, bytes).unwrap();
}

/// Re-execute one wire query line serially against the catalog at
/// `generation` and render it exactly as the server does.
pub fn serial_oracle(dir: &Path, generation: u64, line: &str) -> Vec<u8> {
    let tokens = protocol::tokenize(line).unwrap();
    assert_eq!(tokens[0], "query");
    let mut flags = cli::QueryFlags::new();
    let mut iter = tokens[1..].iter();
    while let Some(arg) = iter.next() {
        let consumed = flags
            .accept(arg, || {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} requires a value"))
            })
            .unwrap();
        assert!(consumed, "oracle saw unexpected token {arg}");
    }
    flags.validate().unwrap();
    let query = flags.build_query().unwrap();
    let session = Session::from_catalog(Catalog::open(dir).unwrap());
    assert_eq!(
        session.generation(),
        Some(generation),
        "oracle opened a different generation than the writer just published"
    );
    let result = session.execute(&query, true).unwrap();
    let title = format!("swim-serve: generation {generation}");
    let mut body = cli::render_for(&result.output, flags.format, &title).into_bytes();
    body.extend_from_slice(result.summary.as_bytes());
    body.push(b'\n');
    body
}

/// Connect with retry (the server thread may still be binding).
pub fn connect(addr: SocketAddr) -> TcpStream {
    for _ in 0..100 {
        if let Ok(stream) = TcpStream::connect(addr) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("could not connect to {addr}");
}

/// One request over a fresh connection; panics on I/O failure.
pub fn request(addr: SocketAddr, line: &str) -> Response {
    let mut stream = connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    protocol::write_request(&mut stream, line).unwrap();
    let mut reader = BufReader::new(stream);
    protocol::read_response(&mut reader).unwrap()
}

/// A persistent client connection: requests sent through it share one
/// admission permit, so `admitted`/`queued` stay deterministic for a
/// sequential request script (the telemetry golden tests rely on it).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = connect(addr);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn {
            reader,
            writer: stream,
        }
    }

    pub fn send(&mut self, line: &str) -> Response {
        protocol::write_request(&mut self.writer, line).unwrap();
        protocol::read_response(&mut self.reader).unwrap()
    }
}

/// Shard files currently on disk (`shard-*.swim`).
pub fn shard_files(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("shard-") && name.ends_with(".swim")
        })
        .count()
}
