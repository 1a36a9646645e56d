//! The server: acceptor + bounded worker pool over a catalog directory.
//!
//! ## Snapshot isolation
//!
//! Every request executes against an `Arc<Session>` pinned to one
//! catalog generation. Before dispatching, a worker peeks the on-disk
//! generation (the first two lines of the `MANIFEST`, from one bounded
//! read of its head; writers replace the file atomically, so a read
//! never sees a torn one) and, if it moved, opens a fresh session and
//! retires the old one. In-flight requests keep
//! their `Arc` until they respond, so a concurrent `ingest`/`compact`
//! never changes what an already-admitted query sees; the response
//! header reports the exact generation it was computed against.
//! Retired sessions are tracked as weak references so `vacuum` can wait
//! for the last old-generation reader before deleting shard files.
//!
//! ## The cached request path
//!
//! The result cache ([`crate::cache`]) holds rendered response bodies.
//! A `query` line first pins its session — so the generation is peeked
//! on every request, before any lookup — then is looked up verbatim
//! under its line key; a hit is answered there, untokenized. Otherwise
//! the line is parsed and looked up under its canonical key: a hit
//! files the line under its line key for next time (unless it carries
//! `--fault`) and sends the cached bytes; a miss executes, renders once
//! and inserts. Every `ok` answer, hit or miss, leaves through
//! `ok_response` and the same telemetry.
//!
//! ## Admission control
//!
//! `queue_depth` bounds admitted connections (queued + in flight). At
//! capacity the acceptor writes a typed `overloaded` response and
//! closes — the server never buffers unbounded work. Admission is a
//! counting semaphore (an atomic with check-and-undo acquire); a
//! connection's permit is released by RAII when the worker finishes
//! with it, panics included, so permits cannot leak.
//!
//! ## Fault containment and shutdown
//!
//! Each request runs under `catch_unwind`: a panicking request turns
//! into an `internal` error response and the worker thread lives on.
//! A request line is bounded in length ([`protocol::MAX_REQUEST_LINE`])
//! and in time (`LINE_DEADLINE`, 5 s from its first byte to its newline);
//! past either it is refused `bad_request` and its connection closed.
//! Shutdown (the `shutdown` command, or [`ServerHandle::shutdown`])
//! stops admission, lets every in-flight request finish, answers
//! queued-but-unstarted connections with a `shutdown` error, and joins
//! the threads.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use swim_catalog::{Catalog, CatalogError, CatalogOptions, Manifest, MANIFEST_FILE};
use swim_obs::cli::{Args, Cli, Command, Flag};
use swim_obs::clock;
use swim_obs::{Counter, Gauge};
use swim_query::{cli, Session};

use crate::cache::{CacheStats, KeyKind, ResultCache};
use crate::protocol::{self, ErrorKind};
use crate::telemetry::{self, AccessRecord, RequestClass, Telemetry};

static REQUESTS: Counter = Counter::new("serve.requests");
static RESPONSES_OK: Counter = Counter::new("serve.responses_ok");
static RESPONSES_ERROR: Counter = Counter::new("serve.responses_error");
static OVERLOADED: Counter = Counter::new("serve.overloaded");
static WORKER_PANICS: Counter = Counter::new("serve.worker_panics");
static SNAPSHOT_REFRESHES: Counter = Counter::new("serve.snapshot_refreshes");
/// Peeks that found the `MANIFEST` unreadable or malformed; the server
/// keeps serving the snapshot it has.
static GENERATION_PEEK_FAILED: Counter = Counter::new("serve.generation_peek_failed");
/// Query results rendered into a response body: one per result-cache
/// miss that executed, none per hit.
static RENDERS: Counter = Counter::new("serve.renders");
static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue_depth");
// Per-request latencies go to the bounded windowed histograms in
// [`Telemetry`]: a distribution that kept every sample for the
// process's lifetime would be unbounded memory in a resident process.

/// How long a blocked read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long a request line may take from its first byte to its newline.
/// A legitimate client sends a line in one write; one that drips bytes
/// faster than [`READ_POLL`] would otherwise hold its worker and its
/// admission permit for as long as it liked.
const LINE_DEADLINE: Duration = Duration::from_secs(5);

/// Bytes of a refused request line discarded before its connection is
/// closed, so the client can finish sending and read the refusal.
const REFUSED_DRAIN: usize = 16 * protocol::MAX_REQUEST_LINE;
/// The longest that discarding may take, however slowly the rest of
/// the refused line arrives.
const REFUSED_DRAIN_FOR: Duration = Duration::from_secs(1);
/// Polling step while `vacuum` waits (up to
/// [`ServeOptions::vacuum_wait_ms`]) for old-generation readers.
const VACUUM_WAIT_STEP: Duration = Duration::from_millis(10);
/// Upper bound on a single `--fault sleep:MS` injection.
const MAX_FAULT_SLEEP_MS: u64 = 10_000;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (host only).
    pub addr: String,
    /// Port to bind; 0 picks an ephemeral port (see
    /// [`ServerHandle::port`]).
    pub port: u16,
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Maximum admitted connections (queued + in flight); past it the
    /// acceptor answers `overloaded`.
    pub queue_depth: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Allow `ingest`/`compact`/`vacuum` over the wire.
    pub allow_admin: bool,
    /// Honour `query --fault panic` / `--fault sleep:MS` (test-only
    /// fault injection).
    pub allow_faults: bool,
    /// Append a JSONL access-log line per request to this file (see
    /// [`crate::telemetry`]); `None` disables the log.
    pub access_log: Option<PathBuf>,
    /// How long `vacuum` waits for in-flight readers on old
    /// generations before answering `busy`.
    pub vacuum_wait_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1".to_owned(),
            port: 0,
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
            allow_admin: false,
            allow_faults: false,
            access_log: None,
            vacuum_wait_ms: 5_000,
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The catalog directory could not be opened.
    Open {
        /// The directory as given.
        dir: String,
        /// The underlying catalog error.
        err: CatalogError,
    },
    /// The listen address could not be bound.
    Bind {
        /// The `host:port` that failed.
        addr: String,
        /// The underlying I/O error.
        err: std::io::Error,
    },
    /// The access-log file could not be opened.
    AccessLog {
        /// The path as given.
        path: String,
        /// The underlying I/O error.
        err: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Open { dir, err } => write!(f, "open {dir}: {err}"),
            ServeError::Bind { addr, err } => write!(f, "bind {addr}: {err}"),
            ServeError::AccessLog { path, err } => write!(f, "access log {path}: {err}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A point-in-time view of the server, for monitoring and tests (the
/// `stats` wire command renders the same numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Generation of the current snapshot session.
    pub generation: u64,
    /// Admission permits currently held (queued + in-flight
    /// connections).
    pub admitted: usize,
    /// Connections waiting for a worker.
    pub queued: usize,
    /// Retired old-generation sessions still referenced by in-flight
    /// requests.
    pub retired_sessions: usize,
    /// Requests read off connections (lifetime).
    pub requests: u64,
    /// `ok` responses written (lifetime).
    pub responses_ok: u64,
    /// `error` responses written, overloaded rejections excluded
    /// (lifetime).
    pub responses_error: u64,
    /// Connections rejected by admission control (lifetime).
    pub overloaded: u64,
    /// Requests that panicked mid-flight and were contained (lifetime).
    pub worker_panics: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

struct Shared {
    dir: PathBuf,
    /// `dir`'s `MANIFEST`, joined once: it is peeked on every request.
    manifest: PathBuf,
    options: ServeOptions,
    local_addr: SocketAddr,
    /// Current snapshot session; swapped whole on generation change.
    snapshot: Mutex<Arc<Session>>,
    /// Old snapshots that may still be held by in-flight requests.
    retired: Mutex<Vec<Weak<Session>>>,
    cache: ResultCache,
    /// Serializes admin mutations (single-writer rule).
    writer: Mutex<()>,
    /// Live telemetry: request ids, windowed latency/rate metrics, the
    /// access log.
    telemetry: Telemetry,
    /// Admitted connections waiting for a worker, with the
    /// process-clock microseconds at which each was admitted (for
    /// queue-wait attribution).
    queue: Mutex<VecDeque<(TcpStream, Permit, u64)>>,
    available: Condvar,
    admitted: AtomicUsize,
    shutdown: AtomicBool,
    /// Per-instance lifetime counters: [`ServerStats`] must be correct
    /// regardless of whether swim-obs metrics are enabled, and must not
    /// bleed between server instances in one process. The obs statics
    /// above mirror them into the global metrics registry.
    requests: AtomicU64,
    responses_ok: AtomicU64,
    responses_error: AtomicU64,
    overloaded: AtomicU64,
    worker_panics: AtomicU64,
}

/// RAII admission permit: holding one is holding a slot of
/// `queue_depth`. Dropped when the worker is done with the connection
/// (including after a contained panic), so the count cannot leak.
struct Permit {
    shared: Arc<Shared>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        // lint: ordering: admission counter only gates capacity; connection handoff is via the queue mutex
        let now = self.shared.admitted.fetch_sub(1, Ordering::AcqRel) - 1;
        QUEUE_DEPTH.set(now as i64);
    }
}

fn try_admit(shared: &Arc<Shared>) -> Option<Permit> {
    // lint: ordering: admission counter only gates capacity; connection handoff is via the queue mutex
    let prev = shared.admitted.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.options.queue_depth {
        // lint: ordering: admission counter only gates capacity; undo of the optimistic acquire above
        shared.admitted.fetch_sub(1, Ordering::AcqRel);
        return None;
    }
    QUEUE_DEPTH.set((prev + 1) as i64);
    Some(Permit {
        shared: Arc::clone(shared),
    })
}

/// Recover the guard from a poisoned mutex: what the server's mutexes
/// hold (the queue's streams and permits, the snapshot, the retired
/// list, the writer token) is valid regardless of a panicking holder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// The session requests should execute against: the current
    /// snapshot, refreshed first if the on-disk generation moved. The
    /// old session is retired, not dropped — in-flight requests keep
    /// their `Arc` and finish against the generation they started with.
    fn current_session(self: &Arc<Self>) -> Arc<Session> {
        let on_disk = Manifest::peek_generation(&self.manifest);
        if on_disk.is_none() {
            GENERATION_PEEK_FAILED.incr();
        }
        let mut snap = lock(&self.snapshot);
        if let Some(generation) = on_disk {
            if snap.generation() != Some(generation) {
                if let Ok(catalog) = Catalog::open(&self.dir) {
                    let fresh = Arc::new(Session::from_catalog(catalog));
                    let old = std::mem::replace(&mut *snap, Arc::clone(&fresh));
                    drop(snap);
                    let mut retired = lock(&self.retired);
                    retired.retain(|w| w.strong_count() > 0);
                    retired.push(Arc::downgrade(&old));
                    SNAPSHOT_REFRESHES.incr();
                    return fresh;
                }
            }
        }
        Arc::clone(&snap)
    }

    fn stats(&self) -> ServerStats {
        let generation = lock(&self.snapshot).generation().unwrap_or(0);
        let queued = lock(&self.queue).len();
        let retired_sessions = {
            let mut retired = lock(&self.retired);
            retired.retain(|w| w.strong_count() > 0);
            retired.len()
        };
        ServerStats {
            generation,
            // lint: ordering: statistics read; admission correctness does not depend on this load
            admitted: self.admitted.load(Ordering::Acquire),
            queued,
            retired_sessions,
            // lint: ordering: statistics counters; no data is published through them
            requests: self.requests.load(Ordering::Relaxed),
            // lint: ordering: statistics counters; no data is published through them
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            // lint: ordering: statistics counters; no data is published through them
            responses_error: self.responses_error.load(Ordering::Relaxed),
            // lint: ordering: statistics counters; no data is published through them
            overloaded: self.overloaded.load(Ordering::Relaxed),
            // lint: ordering: statistics counters; no data is published through them
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    fn begin_shutdown(&self) {
        // lint: ordering: shutdown flag; workers and the acceptor only ever transition false -> true
        self.shutdown.store(true, Ordering::Release);
        self.available.notify_all();
        // Poke the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
    }

    fn is_shutting_down(&self) -> bool {
        // lint: ordering: shutdown flag; a stale false only delays the drain by one poll interval
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] (or send the `shutdown` command)
/// and then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.local_addr.port()
    }

    /// Point-in-time server statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Freeze the live telemetry windows (plus lifetime stats): what
    /// the `metrics` wire command renders.
    pub fn telemetry(&self) -> telemetry::TelemetrySnapshot {
        self.shared.telemetry.snapshot(self.shared.stats())
    }

    /// Begin a graceful shutdown: stop admitting, drain in-flight
    /// requests. Returns immediately; [`ServerHandle::join`] waits.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait until the server has fully stopped (after a `shutdown`
    /// command or [`ServerHandle::shutdown`]).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Open the catalog at `dir`, bind, and start the acceptor and worker
/// threads. Returns once the server is listening.
pub fn serve(dir: impl AsRef<Path>, options: ServeOptions) -> Result<ServerHandle, ServeError> {
    let dir = dir.as_ref().to_path_buf();
    let dir_text = dir.display().to_string();
    let catalog = Catalog::open(&dir).map_err(|err| ServeError::Open {
        dir: dir_text.clone(),
        err,
    })?;
    let bind_addr = format!("{}:{}", options.addr, options.port);
    let listener = TcpListener::bind(&bind_addr).map_err(|err| ServeError::Bind {
        addr: bind_addr.clone(),
        err,
    })?;
    let local_addr = listener.local_addr().map_err(|err| ServeError::Bind {
        addr: bind_addr,
        err,
    })?;
    let workers = options.workers.max(1);
    let cache_capacity = options.cache_capacity;
    let telemetry =
        Telemetry::new(options.access_log.as_deref()).map_err(|err| ServeError::AccessLog {
            path: options
                .access_log
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
            err,
        })?;
    let shared = Arc::new(Shared {
        manifest: dir.join(MANIFEST_FILE),
        dir,
        options,
        local_addr,
        snapshot: Mutex::new(Arc::new(Session::from_catalog(catalog))),
        retired: Mutex::new(Vec::new()),
        cache: ResultCache::new(cache_capacity),
        telemetry,
        writer: Mutex::new(()),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        admitted: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        responses_ok: AtomicU64::new(0),
        responses_error: AtomicU64::new(0),
        overloaded: AtomicU64::new(0),
        worker_panics: AtomicU64::new(0),
    });
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    let acceptor_shared = Arc::clone(&shared);
    let acceptor = std::thread::spawn(move || accept_loop(listener, &acceptor_shared));
    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Answers are single small writes; leaving Nagle on makes every
        // request pay a delayed-ACK stall, which would poison the
        // latency windows this server reports.
        let _ = stream.set_nodelay(true);
        match try_admit(shared) {
            Some(permit) => {
                lock(&shared.queue).push_back((stream, permit, clock::now_us()));
                shared.available.notify_one();
            }
            None => {
                OVERLOADED.incr();
                // lint: ordering: statistics counter; no data is published through it
                shared.overloaded.fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let _ = protocol::write_error(
                    &mut stream,
                    ErrorKind::Overloaded,
                    "server is at queue capacity; retry later",
                );
            }
        }
    }
    // Make sure no worker stays parked on an empty queue.
    shared.available.notify_all();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let next = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.is_shutting_down() {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((stream, permit, admitted_us)) = next else {
            return;
        };
        if shared.is_shutting_down() {
            // Admitted but never started: tell the client instead of
            // silently dropping the connection.
            let mut stream = stream;
            let _ =
                protocol::write_error(&mut stream, ErrorKind::Shutdown, "server is shutting down");
            drop(permit);
            continue;
        }
        let queue_us = clock::now_us().saturating_sub(admitted_us);
        handle_connection(shared, stream, queue_us);
        drop(permit);
    }
}

/// Read request lines until the client closes (or shutdown drains us),
/// answering each through the shared snapshot/cache machinery. A panic
/// inside a request is contained here: the client gets an `internal`
/// error and the connection (and worker) lives on.
///
/// `queue_us` is the connection's admission-queue wait, attributed to
/// its first request's telemetry (later requests on the same
/// connection never waited in the queue).
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, queue_us: u64) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut first_request = true;
    loop {
        buf.clear();
        let line_text;
        let line = match read_request_line(shared, &mut reader, &mut buf) {
            LineRead::Closed => return,
            // Refused below, through the same accounting as any request.
            LineRead::Oversize => Err(format!(
                "request line longer than {} bytes",
                protocol::MAX_REQUEST_LINE
            )),
            LineRead::Slow => Err(format!(
                "request line not finished within {} s of its first byte",
                LINE_DEADLINE.as_secs()
            )),
            LineRead::Line => {
                line_text = String::from_utf8_lossy(&buf);
                let line = line_text.trim();
                if line.is_empty() {
                    continue;
                }
                Ok(line)
            }
        };
        REQUESTS.incr();
        // lint: ordering: statistics counter; no data is published through it
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let request_id = shared.telemetry.next_request_id();
        let mut meta = ReqMeta::new();
        let start_us = clock::now_us();
        // The hierarchical span (when `SWIM_OBS=spans`) nests execute/
        // render and any store/query spans under one request path.
        let span = swim_obs::span("serve.request");
        let outcome = catch_unwind(AssertUnwindSafe(|| match &line {
            Ok(line) => process_request(shared, line, &mut meta),
            Err(refusal) => {
                let (response, _) =
                    error_response(shared, &mut meta, ErrorKind::BadRequest, refusal);
                (response, Action::Close)
            }
        }));
        drop(span);
        let total_us = clock::now_us().saturating_sub(start_us);
        if outcome.is_err() {
            meta.outcome = "panic";
        }
        shared.telemetry.record_request(meta.class, total_us);
        shared.telemetry.log_access(&AccessRecord {
            id: request_id,
            command: meta.command,
            generation: meta.generation,
            cached: meta.cached,
            queue_us: if first_request { queue_us } else { 0 },
            execute_us: meta.execute_us,
            render_us: meta.render_us,
            total_us,
            outcome: meta.outcome,
        });
        first_request = false;
        match outcome {
            Ok((response, action)) => {
                if stream.write_all(&response).is_err() {
                    // Client dropped mid-response; the permit is
                    // released by our caller, nothing leaks.
                    return;
                }
                let _ = stream.flush();
                match action {
                    Action::Continue => {}
                    Action::Close => {
                        // The rest of the refused line may still be on
                        // its way: closing over unread bytes resets the
                        // connection and can take the answer with it, so
                        // discard a bounded amount first.
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        drain_refused(&mut reader);
                        return;
                    }
                    Action::Shutdown => {
                        shared.begin_shutdown();
                        return;
                    }
                }
            }
            Err(_) => {
                WORKER_PANICS.incr();
                RESPONSES_ERROR.incr();
                // lint: ordering: statistics counters; no data is published through them
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                // lint: ordering: statistics counters; no data is published through them
                shared.responses_error.fetch_add(1, Ordering::Relaxed);
                if protocol::write_error(
                    &mut stream,
                    ErrorKind::Internal,
                    "worker panicked while serving the request",
                )
                .is_err()
                {
                    return;
                }
            }
        }
    }
}

/// What [`read_request_line`] found.
enum LineRead {
    /// A request line is in the buffer.
    Line,
    /// More than [`protocol::MAX_REQUEST_LINE`] bytes arrived without a
    /// newline; the buffer holds the cap and one byte, never more.
    Oversize,
    /// [`LINE_DEADLINE`] passed between the line's first byte and its
    /// newline; the buffer holds what had arrived, never more.
    Slow,
    /// The connection is done (clean EOF, I/O error, or shutdown drain).
    Closed,
}

/// Accumulate one `\n`-terminated line of at most
/// [`protocol::MAX_REQUEST_LINE`] bytes into `buf`, polling the shutdown
/// flag across read timeouts. Each step takes what the cap still allows
/// plus one byte, so a client that never sends a newline costs the cap
/// in memory, not what it sends; and the loop is this function's own,
/// not one inside the standard library, so a line that has started is
/// held to [`LINE_DEADLINE`] however steadily its bytes keep coming.
fn read_request_line(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
) -> LineRead {
    let mut started_us = None;
    loop {
        match reader.fill_buf() {
            // EOF: serve a final unterminated line if one accumulated.
            Ok([]) if buf.is_empty() => return LineRead::Closed,
            Ok([]) => return LineRead::Line,
            Ok(available) => {
                let room = (protocol::MAX_REQUEST_LINE + 1).saturating_sub(buf.len());
                let take = &available[..available.len().min(room)];
                let newline = take.iter().position(|&b| b == b'\n');
                let used = newline.map_or(take.len(), |at| at + 1);
                buf.extend_from_slice(&take[..used]);
                reader.consume(used);
                if newline.is_some() {
                    return LineRead::Line;
                }
                if buf.len() > protocol::MAX_REQUEST_LINE {
                    return LineRead::Oversize;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.is_shutting_down() {
                    return LineRead::Closed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
        // Part of a line is held: its deadline runs from here.
        if !buf.is_empty() {
            let now_us = clock::now_us();
            let waited_us = now_us.saturating_sub(*started_us.get_or_insert(now_us));
            if Duration::from_micros(waited_us) > LINE_DEADLINE {
                return LineRead::Slow;
            }
        }
    }
}

/// Discard what a refused client is still sending: until EOF, a read
/// timeout, [`REFUSED_DRAIN`] bytes or [`REFUSED_DRAIN_FOR`], whichever
/// comes first.
fn drain_refused(reader: &mut BufReader<TcpStream>) {
    let started_us = clock::now_us();
    let mut left = REFUSED_DRAIN;
    while left > 0
        && Duration::from_micros(clock::now_us().saturating_sub(started_us)) < REFUSED_DRAIN_FOR
    {
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(available) => {
                let used = available.len().min(left);
                reader.consume(used);
                left -= used;
            }
        }
    }
}

enum Action {
    Continue,
    /// Answer, then close this connection (the line was refused).
    Close,
    Shutdown,
}

/// Per-request telemetry, filled in as the request is processed and
/// consumed by the access log / windowed metrics after the response is
/// built.
struct ReqMeta {
    command: &'static str,
    class: RequestClass,
    generation: u64,
    cached: bool,
    execute_us: u64,
    render_us: u64,
    outcome: &'static str,
}

impl ReqMeta {
    fn new() -> ReqMeta {
        ReqMeta {
            command: "unknown",
            class: RequestClass::Other,
            generation: 0,
            cached: false,
            execute_us: 0,
            render_us: 0,
            outcome: "none",
        }
    }
}

fn ok_response(
    shared: &Shared,
    meta: &mut ReqMeta,
    generation: u64,
    cached: bool,
    body: &[u8],
) -> (Vec<u8>, Action) {
    RESPONSES_OK.incr();
    // lint: ordering: statistics counter; no data is published through it
    shared.responses_ok.fetch_add(1, Ordering::Relaxed);
    meta.generation = generation;
    meta.cached = cached;
    meta.outcome = "ok";
    (
        protocol::encode_ok(generation, cached, body),
        Action::Continue,
    )
}

fn error_response(
    shared: &Shared,
    meta: &mut ReqMeta,
    kind: ErrorKind,
    message: &str,
) -> (Vec<u8>, Action) {
    RESPONSES_ERROR.incr();
    // lint: ordering: statistics counter; no data is published through it
    shared.responses_error.fetch_add(1, Ordering::Relaxed);
    meta.outcome = kind.as_str();
    (protocol::encode_error(kind, message), Action::Continue)
}

/// A typed refusal: the error kind and its message, encoded by
/// `process_request` through `error_response`.
type Refusal = (ErrorKind, String);

/// What a command handler produces: its encoded `ok` frame, or a
/// refusal.
type Handled = Result<(Vec<u8>, Action), Refusal>;

fn bad_request(message: impl Into<String>) -> Refusal {
    (ErrorKind::BadRequest, message.into())
}

fn internal(e: impl std::fmt::Display) -> Refusal {
    (ErrorKind::Internal, e.to_string())
}

/// A wire `query`'s flags: the shared query set, plus `--fault` (honoured
/// only by a server started with fault injection enabled).
const QUERY_ARGS: Cli = Cli {
    name: "query",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[
            cli::FLAGS,
            &[Flag::value("--fault", "KIND", "inject a fault")],
        ],
    }],
    notes: "",
};

/// The `[--format text|json] [--mask]` tail of the read-only telemetry
/// commands.
const TELEMETRY_ARGS: Cli = Cli {
    name: "",
    commands: &[Command {
        name: "",
        args: "",
        flags: &[&[
            Flag::value("--format", "text|json", "body format"),
            Flag::switch("--mask", "blank scheduling-dependent fields"),
        ]],
    }],
    notes: "",
};

/// Parse wire tokens against `table`; `--help` is not a wire request.
fn wire_args(table: &Cli, tokens: &[String]) -> Result<Args, Refusal> {
    let parsed = swim_obs::cli::parse(table, tokens).map_err(bad_request)?;
    parsed.ok_or_else(|| bad_request("--help is not available over the wire"))
}

/// A `query` line recognised before it is parsed: the session its
/// request is pinned to, and the line as the cache may key it.
struct PinnedLine<'a> {
    session: Arc<Session>,
    line: &'a str,
}

fn process_request(shared: &Arc<Shared>, line: &str, meta: &mut ReqMeta) -> (Vec<u8>, Action) {
    match dispatch(shared, line, meta) {
        Ok(response) => response,
        Err((kind, message)) => error_response(shared, meta, kind, &message),
    }
}

fn dispatch(shared: &Arc<Shared>, line: &str, meta: &mut ReqMeta) -> Handled {
    // A line whose first word is the bare `query` is a query request
    // however the rest of it tokenizes. Its session is pinned — the
    // on-disk generation peeked — before anything else, and a line this
    // generation has already answered twice is answered again here,
    // unparsed. Only this spelling is ever looked up or filed under a
    // line key; `"query" …` works, and takes the whole path every time.
    let pinned = (line.split_whitespace().next() == Some("query")).then(|| PinnedLine {
        session: shared.current_session(),
        line,
    });
    if let Some(pinned) = &pinned {
        let generation = pinned.session.generation().unwrap_or(0);
        if let Some(body) = shared.cache.lookup(generation, KeyKind::Line, line) {
            meta.command = "query";
            meta.class = RequestClass::Cached;
            return Ok(ok_response(shared, meta, generation, true, &body));
        }
    }
    let tokens = protocol::tokenize(line).map_err(bad_request)?;
    let Some((command, rest)) = tokens.split_first() else {
        return Err(bad_request("empty request"));
    };
    match command.as_str() {
        "ping" => {
            meta.command = "ping";
            let generation = shared.current_session().generation().unwrap_or(0);
            Ok(ok_response(shared, meta, generation, false, b"pong\n"))
        }
        "query" => {
            meta.command = "query";
            handle_query(shared, meta, rest, pinned)
        }
        "stats" => {
            meta.command = "stats";
            handle_stats(shared, meta, rest)
        }
        "metrics" => {
            meta.command = "metrics";
            handle_metrics(shared, meta, rest)
        }
        "ingest" => {
            meta.command = "ingest";
            handle_ingest(shared, meta, rest)
        }
        "compact" => {
            meta.command = "compact";
            handle_compact(shared, meta, rest)
        }
        "vacuum" => {
            meta.command = "vacuum";
            handle_vacuum(shared, meta, rest)
        }
        "shutdown" => {
            meta.command = "shutdown";
            let generation = lock(&shared.snapshot).generation().unwrap_or(0);
            RESPONSES_OK.incr();
            meta.generation = generation;
            meta.outcome = "ok";
            let frame = protocol::encode_ok(generation, false, b"shutting down\n");
            Ok((frame, Action::Shutdown))
        }
        other => Err(bad_request(format!(
            "unknown command {other} (expected ping, query, stats, metrics, ingest, compact, vacuum, or shutdown)"
        ))),
    }
}

/// Parsed `--fault` injections (test-only, gated by `allow_faults`).
enum Fault {
    Panic,
    /// Hold the pinned session `Arc` while sleeping — a deterministic
    /// "slow reader" for the vacuum-retirement tests.
    SleepMs(u64),
}

fn parse_fault(value: &str) -> Result<Fault, String> {
    if value == "panic" {
        return Ok(Fault::Panic);
    }
    if let Some(ms) = value.strip_prefix("sleep:") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("sleep fault requires milliseconds, got {ms:?}"))?;
        return Ok(Fault::SleepMs(ms.min(MAX_FAULT_SLEEP_MS)));
    }
    Err(format!(
        "unknown fault {value} (expected panic or sleep:MS)"
    ))
}

fn handle_query(
    shared: &Arc<Shared>,
    meta: &mut ReqMeta,
    args: &[String],
    pinned: Option<PinnedLine<'_>>,
) -> Handled {
    meta.class = RequestClass::Query;
    let args = wire_args(&QUERY_ARGS, args)?;
    let fault = args
        .value("--fault")
        .map(parse_fault)
        .transpose()
        .map_err(bad_request)?;
    let flags = cli::QueryFlags::from_args(&args).map_err(bad_request)?;
    if flags.explain || flags.profile {
        return Err(bad_request(
            "--explain and --profile are not available over the wire",
        ));
    }
    let query = flags.build_query().map_err(bad_request)?;
    if fault.is_some() && !shared.options.allow_faults {
        return Err(bad_request(
            "--fault requires a server started with fault injection enabled",
        ));
    }
    if let Some(Fault::Panic) = fault {
        // Deliberately kill this worker mid-request; handle_connection
        // contains the unwind and the test battery asserts recovery.
        panic!("injected fault: --fault panic");
    }
    // A line that injects a fault must do so every time it is sent, so
    // it is never filed under a line key.
    let (session, repeatable_line) = match pinned {
        Some(pinned) => (pinned.session, fault.is_none().then_some(pinned.line)),
        None => (shared.current_session(), None),
    };
    let generation = session.generation().unwrap_or(0);
    if let Some(Fault::SleepMs(ms)) = fault {
        // The session Arc stays pinned across the sleep: if the
        // generation moves meanwhile, this request is exactly the
        // "slow reader on a retired snapshot" vacuum must wait for.
        std::thread::sleep(Duration::from_millis(ms));
    }
    // The typed Query's Debug form is deterministic, so it is the
    // canonical cache key (`--serial` is excluded on purpose: parallel
    // and serial execution are bit-identical).
    let kind = KeyKind::Canonical(flags.format);
    let canonical = format!("{query:?}");
    if let Some(body) = shared.cache.lookup(generation, kind, &canonical) {
        // Second sighting of this line: from now on it is answered by
        // `process_request` without being parsed.
        if let Some(line) = repeatable_line {
            shared
                .cache
                .insert(generation, KeyKind::Line, line, Arc::clone(&body));
        }
        meta.class = RequestClass::Cached;
        return Ok(ok_response(shared, meta, generation, true, &body));
    }
    let (executed, elapsed) =
        swim_obs::timed("serve.execute", || session.execute(&query, flags.serial));
    meta.execute_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    let result = executed.map_err(internal)?;
    // Rendered once, here; every later hit sends these bytes as they are.
    let (body, render_elapsed) = swim_obs::timed("serve.render", || {
        let title = format!("swim-serve: generation {generation}");
        let mut body = cli::render_for(&result.output, flags.format, &title).into_bytes();
        body.extend_from_slice(result.summary.as_bytes());
        body.push(b'\n');
        Arc::<[u8]>::from(body)
    });
    RENDERS.incr();
    meta.render_us = u64::try_from(render_elapsed.as_micros()).unwrap_or(u64::MAX);
    shared
        .cache
        .insert(generation, kind, &canonical, Arc::clone(&body));
    Ok(ok_response(shared, meta, generation, false, &body))
}

/// Parse the shared `[--format text|json] [--mask]` tail of the
/// read-only telemetry commands. Returns `(json, mask)`.
fn parse_telemetry_args(args: &[String]) -> Result<(bool, bool), Refusal> {
    let args = wire_args(&TELEMETRY_ARGS, args)?;
    let json = match args.value("--format") {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            return Err(bad_request(format!(
                "unknown format {other} (expected text or json)"
            )))
        }
    };
    Ok((json, args.has("--mask")))
}

fn handle_stats(shared: &Arc<Shared>, meta: &mut ReqMeta, args: &[String]) -> Handled {
    let (json, mask) = parse_telemetry_args(args)?;
    if mask {
        return Err(bad_request(
            "stats has no masked fields (use metrics --mask)",
        ));
    }
    let stats = shared.stats();
    if json {
        let body = telemetry::render_stats_json(&stats);
        return Ok(ok_response(
            shared,
            meta,
            stats.generation,
            false,
            body.as_bytes(),
        ));
    }
    let body = format!(
        "generation: {}\nadmitted: {}\nqueued: {}\nretired_sessions: {}\nrequests: {}\n\
         responses_ok: {}\nresponses_error: {}\noverloaded: {}\nworker_panics: {}\n\
         cache: hits={} misses={} evictions={} entries={} capacity={}\n",
        stats.generation,
        stats.admitted,
        stats.queued,
        stats.retired_sessions,
        stats.requests,
        stats.responses_ok,
        stats.responses_error,
        stats.overloaded,
        stats.worker_panics,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.entries,
        stats.cache.capacity,
    );
    Ok(ok_response(
        shared,
        meta,
        stats.generation,
        false,
        body.as_bytes(),
    ))
}

/// `metrics [--format text|json] [--mask]`: the live-telemetry
/// snapshot — lifetime stats plus the last-minute windowed rates and
/// per-class latency quantiles. Read-only, allowed without `--admin`;
/// `--mask` blanks the scheduling-dependent fields so a deterministic
/// request sequence yields a byte-stable body (CI golden-pins it).
fn handle_metrics(shared: &Arc<Shared>, meta: &mut ReqMeta, args: &[String]) -> Handled {
    let (json, mask) = parse_telemetry_args(args)?;
    let snapshot = shared.telemetry.snapshot(shared.stats());
    let body = if json {
        snapshot.render_json(mask)
    } else {
        snapshot.render_text(mask)
    };
    let generation = snapshot.stats.generation;
    Ok(ok_response(
        shared,
        meta,
        generation,
        false,
        body.as_bytes(),
    ))
}

fn admin_gate(shared: &Shared, meta: &mut ReqMeta) -> Result<(), Refusal> {
    if !shared.options.allow_admin {
        return Err(bad_request(
            "admin commands are disabled (start the server with --admin)",
        ));
    }
    meta.class = RequestClass::Admin;
    Ok(())
}

fn handle_ingest(shared: &Arc<Shared>, meta: &mut ReqMeta, args: &[String]) -> Handled {
    admin_gate(shared, meta)?;
    let [path] = args else {
        return Err(bad_request("ingest requires exactly one trace path"));
    };
    let _writer = lock(&shared.writer);
    let mut catalog = Catalog::open(&shared.dir).map_err(internal)?;
    let stats = catalog
        .ingest_path(path, 100, &CatalogOptions::default())
        .map_err(internal)?;
    let generation = catalog.generation();
    drop(catalog);
    // Publish the new generation to subsequent requests now rather than
    // on their first post-ingest peek.
    let _ = shared.current_session();
    let body = format!(
        "ingested: shards={} jobs={} generation={generation}\n",
        stats.shards, stats.jobs
    );
    Ok(ok_response(
        shared,
        meta,
        generation,
        false,
        body.as_bytes(),
    ))
}

fn handle_compact(shared: &Arc<Shared>, meta: &mut ReqMeta, args: &[String]) -> Handled {
    admin_gate(shared, meta)?;
    if !args.is_empty() {
        return Err(bad_request("compact takes no arguments"));
    }
    let _writer = lock(&shared.writer);
    let mut catalog = Catalog::open(&shared.dir).map_err(internal)?;
    let stats = catalog
        .compact(&CatalogOptions::default())
        .map_err(internal)?;
    let generation = catalog.generation();
    drop(catalog);
    let _ = shared.current_session();
    let body = format!(
        "compacted: rewritten={} created={} jobs={} generation={generation}\n",
        stats.rewritten, stats.created, stats.jobs
    );
    Ok(ok_response(
        shared,
        meta,
        generation,
        false,
        body.as_bytes(),
    ))
}

fn handle_vacuum(shared: &Arc<Shared>, meta: &mut ReqMeta, args: &[String]) -> Handled {
    admin_gate(shared, meta)?;
    if !args.is_empty() {
        return Err(bad_request("vacuum takes no arguments"));
    }
    let _writer = lock(&shared.writer);
    // Move the current snapshot to the latest generation first, so the
    // view vacuum deletes against is the one new requests use …
    let session = shared.current_session();
    // … then wait (bounded by `vacuum_wait_ms`) for in-flight readers
    // of older generations to drop their sessions: their shard files
    // may be exactly what vacuum is about to delete.
    let step_ms = u64::try_from(VACUUM_WAIT_STEP.as_millis()).unwrap_or(10);
    let steps = usize::try_from(shared.options.vacuum_wait_ms.div_ceil(step_ms)).unwrap_or(1);
    let mut old_readers = 0usize;
    for step in 0..=steps {
        old_readers = {
            let mut retired = lock(&shared.retired);
            retired.retain(|w| w.strong_count() > 0);
            retired.len()
        };
        if old_readers == 0 {
            break;
        }
        if step < steps {
            std::thread::sleep(VACUUM_WAIT_STEP);
        }
    }
    if old_readers > 0 {
        // Typed, retryable outcome: nothing was deleted, the slow
        // readers keep their files, and the client may try again.
        return Err((
            ErrorKind::Busy,
            format!(
                "vacuum timed out after {} ms waiting for {} in-flight reader(s) on old generations",
                shared.options.vacuum_wait_ms, old_readers
            ),
        ));
    }
    let catalog = session
        .catalog()
        .ok_or_else(|| internal("server session is not catalog-backed"))?;
    let removed = catalog.vacuum().map_err(internal)?;
    let generation = catalog.generation();
    let body = format!("vacuumed: files={removed} generation={generation}\n");
    Ok(ok_response(
        shared,
        meta,
        generation,
        false,
        body.as_bytes(),
    ))
}
