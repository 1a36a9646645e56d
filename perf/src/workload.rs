//! The four workloads and the run shape they share.
//!
//! A run is: set-up (repeated, so `setup_s` is a median too), then whole
//! rounds until the measured window is used up, then the correctness
//! check. A round is a fixed, seed-derived sequence of operations, the
//! same in every round of a run; every timing the run reports is an
//! order statistic over its rounds, never a single-shot phase (see
//! `README.md`, "Measured noise", for why).

use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use serde_json::Value;
use swim_catalog::Catalog;
use swim_obs::clock;
use swim_query::cli;
use swim_query::federated::CatalogQuery as _;
use swim_query::{AggValue, Aggregate, Query, Session};
use swim_serve::protocol;

use crate::child::{field, field_u64, fixture_scenario, Child};
use crate::mix::{parse_line, Class, Mix, Request, SLOTS};
use crate::procfs;
use crate::spans::Tracer;

/// Length of the measured window the acceptance driver asks for; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;
/// A run measures at least this many rounds, however slow the machine.
pub const MIN_ROUNDS: usize = 9;
/// Jobs per fixture, on every workload.
pub const FIXTURE_JOBS: u64 = 1 << 20;
/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The write path: scenario → workloadgen → store encode → fsynced
    /// catalog publish.
    IngestStream,
    /// The `serve` layer alone: every request a result-cache hit.
    ServeCached,
    /// Query kernels and federated fan-out over a column cache that
    /// always hits.
    ServeScanWarm,
    /// Store open and varint decode: a working set the column cache
    /// cannot hold.
    ServeScanCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::IngestStream,
        Workload::ServeCached,
        Workload::ServeScanWarm,
        Workload::ServeScanCold,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestStream => "ingest-stream",
            Workload::ServeCached => "serve-cached",
            Workload::ServeScanWarm => "serve-scan-warm",
            Workload::ServeScanCold => "serve-scan-cold",
        }
    }

    /// Why the workload was chosen (one line; also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestStream => "write path: scenario, workloadgen, store encode and fsynced catalog publish; the read path idles, so a read gain paid for in encode time or bytes shows here",
            Workload::ServeCached => "serve layer alone: 2 clients replay 8 fixed lines, every request a result-cache hit; most sensitive to request-path telemetry and tracing overhead",
            Workload::ServeScanWarm => "query kernels and federated fan-out: 1 client, jittered 8-slot mix that always misses the result cache and always hits the column cache (working set fits)",
            Workload::ServeScanCold => "store open and varint decode: same jobs, mix and answers as warm, sharded past the column cache so a cyclic scan never hits (working set does not fit)",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards the fixture is split into. The warm working set is half
    /// the column cache; the cold one is one and a half times it, so an
    /// LRU scanned cyclically never hits.
    fn fixture_shards(self, cache_capacity: usize) -> u64 {
        match self {
            Workload::ServeScanCold => (cache_capacity * 3 / 2) as u64,
            _ => (cache_capacity / 2) as u64,
        }
    }

    fn clients(self) -> usize {
        match self {
            Workload::ServeCached => 2,
            _ => 1,
        }
    }

    /// Requests in one round, sized so a round takes 1–2 s at the speed
    /// measured when the benchmark was defined — 0.7 s on `serve-cached`,
    /// whose round throughput is the noisiest figure here and wants the
    /// median over more rounds. Always whole passes through the eight
    /// slots for every client.
    pub(crate) fn requests_per_round(self) -> u64 {
        let passes = match self {
            Workload::ServeCached => 3072,
            Workload::ServeScanWarm => 6,
            Workload::ServeScanCold => 3,
            Workload::IngestStream => 0,
        };
        passes * SLOTS.len() as u64
    }
}

/// How to run one workload once.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Smoke mode: two rounds, one set-up, correctness on.
    pub smoke: bool,
    /// Directory for fixtures, access logs and trace files.
    pub out: PathBuf,
    /// Deliberately corrupt the expected answer (the check must fail).
    pub corrupt_expected: bool,
}

/// Removes its directory or file when dropped, whichever way a run ends.
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0).or_else(|_| std::fs::remove_file(&self.0));
    }
}

/// One measured round.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Ops attempted: jobs on the write path, requests on `serve-*`.
    pub ops: u64,
    /// Ops refused, errored, or (where the run can tell) answered wrongly.
    pub failed: u64,
    /// Wall time of the round.
    pub wall_us: u64,
    /// CPU time (`utime + stime`) the child spent during the round.
    pub cpu_us: u64,
    /// Per-op latency: producer stall per shard write, or request latency.
    pub latencies_us: Vec<u64>,
    /// Class of each request (parallel to `latencies_us`; empty on the
    /// write path).
    pub classes: Vec<Class>,
    /// Write path: time spent inside the stream's `next()`.
    pub next_us: u64,
    /// Write path: the stream's largest `resident_bytes()`.
    pub resident_max: u64,
    /// `overloaded` refusals among the failed ops.
    pub overloaded: u64,
}

impl Round {
    /// Ops per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / (self.wall_us as f64 / 1e6)
    }
}

/// A system under test, living in a child process.
pub trait Sut: Sized {
    /// Build fixtures, start the child, warm up. `shared` is the
    /// fixture of a sibling set-up to reuse instead of building one.
    fn setup(
        cfg: &Config,
        traced: bool,
        shared: Option<&Fixture>,
        tracer: &mut Tracer,
    ) -> Result<Self, String>;
    /// The child: its pid for `/proc`, its pipe for `obs` snapshots.
    fn child(&mut self) -> &mut Child;
    /// The catalog the system wrote or serves.
    fn fixture(&self) -> &Fixture;
    /// Run one round.
    fn round(&mut self, no: u32, tracer: &mut Tracer) -> Result<Round, String>;
    /// Hold the outputs the run kept against independently computed
    /// ones; returns how many ops were answered wrongly.
    fn check(&mut self, corrupt_expected: bool, tracer: &mut Tracer) -> Result<u64, String>;
    /// Probe the wire surface (round trip of `stats`, result-cache
    /// counters of the `metrics` command); `None` where there is no wire.
    fn wire_stats(&mut self, tracer: &mut Tracer) -> Result<Option<WireStats>, String>;
    /// The traced child's access log, where there is one.
    fn access_log(&self) -> Option<&Path>;
    /// Stop the child and remove what the set-up built.
    fn finish(self) -> Result<(), String>;
}

/// What the server's wire surface reports about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Median round trip of the `stats` command, microseconds.
    pub ping_us: f64,
    /// Result-cache lifetime counters, from the `metrics` command.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
}

/// A catalog on disk and what its builder reported about it.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Catalog directory.
    pub dir: PathBuf,
    /// Jobs in it.
    pub jobs: u64,
    /// Shards in it.
    pub shards: u64,
    /// Bytes of shard files.
    pub bytes: u64,
    /// First and last submit time, seconds.
    pub submit: (u64, u64),
    /// The builder's full round report.
    pub facts: Value,
}

impl Fixture {
    fn from_facts(dir: &Path, facts: Value) -> Result<Fixture, String> {
        let mut fixture = Fixture {
            dir: dir.to_path_buf(),
            jobs: 0,
            shards: 0,
            bytes: 0,
            submit: (0, 0),
            facts,
        };
        fixture.jobs = fixture.fact("jobs")?;
        fixture.shards = fixture.fact("shards")?;
        fixture.bytes = fixture.fact("bytes")?;
        fixture.submit = (fixture.fact("min_submit")?, fixture.fact("max_submit")?);
        Ok(fixture)
    }

    /// One number of the builder's report.
    pub fn fact(&self, key: &str) -> Result<u64, String> {
        field_u64(&self.facts, key).ok_or_else(|| format!("ingest reply lacks {key}"))
    }

    /// Catalog bytes on disk per job.
    pub fn bytes_per_job(&self) -> f64 {
        self.bytes as f64 / self.jobs as f64
    }
}

fn dir_text(dir: &Path) -> String {
    dir.to_string_lossy().into_owned()
}

/// A fresh path under the run's output directory.
fn scratch_path(cfg: &Config, tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    cfg.out.join(format!(
        "{tag}-{}-{}-{n}",
        cfg.workload.name(),
        std::process::id()
    ))
}

/// `Catalog::cache_capacity()` of a freshly opened catalog: the size of
/// the program's own column cache, which the fixtures are sized against.
/// Only a catalog can say, so this initialises an empty one and asks.
fn default_cache_capacity(cfg: &Config) -> Result<usize, String> {
    static CAPACITY: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if let Some(&capacity) = CAPACITY.get() {
        return Ok(capacity);
    }
    let dir = Scratch(scratch_path(cfg, "capacity"));
    let capacity = Catalog::init(&dir.0)
        .map_err(|e| e.to_string())?
        .cache_capacity();
    Ok(*CAPACITY.get_or_init(|| capacity))
}

// ---------------------------------------------------------------------
// ingest-stream
// ---------------------------------------------------------------------

/// The write path in a `child ingest` process.
pub struct IngestSut {
    child: Child,
    dir: Scratch,
    last: Option<Fixture>,
}

fn spawn_ingest(dir: &Path, seed: u64, per_shard: u64, traced: bool) -> Result<Child, String> {
    Child::spawn(
        &[
            "ingest".to_owned(),
            dir_text(dir),
            seed.to_string(),
            FIXTURE_JOBS.to_string(),
            per_shard.to_string(),
        ],
        traced,
    )
}

impl Sut for IngestSut {
    fn setup(
        cfg: &Config,
        traced: bool,
        _shared: Option<&Fixture>,
        tracer: &mut Tracer,
    ) -> Result<IngestSut, String> {
        let dir = Scratch(scratch_path(cfg, "ingest"));
        // 32,768 jobs per shard: the fixture of the warm workload.
        let per_shard = FIXTURE_JOBS / 32;
        let child = spawn_ingest(&dir.0, cfg.seed, per_shard, traced)?;
        let mut sut = IngestSut {
            child,
            dir,
            last: None,
        };
        // One whole untimed round: page cache, allocator and file
        // system are in their steady state before the first timed one.
        sut.round(0, tracer)?;
        Ok(sut)
    }

    fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    fn fixture(&self) -> &Fixture {
        self.last.as_ref().expect("set-up runs a round")
    }

    fn round(&mut self, no: u32, tracer: &mut Tracer) -> Result<Round, String> {
        // Removing the previous round's catalog is not part of the round.
        let open = tracer.enter("bench.reset", no, 0);
        self.child.ask("reset")?;
        tracer.exit(open);
        let pid = self.child.pid();
        let cpu_before = procfs::cpu_us(pid).ok_or("cannot read child CPU time")?;
        let open = tracer.enter("scenario.generate_into_catalog", no, 0);
        let facts = self.child.ask("round")?;
        tracer.exit(open);
        let cpu_after = procfs::cpu_us(pid).ok_or("cannot read child CPU time")?;
        let stalls = match field(&facts, "stalls_us") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::U64(us) => Ok(*us),
                    other => Err(format!("bad stall {other:?}")),
                })
                .collect::<Result<Vec<u64>, String>>()?,
            _ => return Err("ingest reply lacks stalls_us".into()),
        };
        let fixture = Fixture::from_facts(&self.dir.0, facts)?;
        let round = Round {
            ops: fixture.jobs,
            wall_us: fixture.fact("wall_us")?,
            cpu_us: cpu_after - cpu_before,
            latencies_us: stalls,
            next_us: fixture.fact("next_us")?,
            resident_max: fixture.fact("resident_max")?,
            ..Round::default()
        };
        self.last = Some(fixture);
        Ok(round)
    }

    /// After the last round the catalog is re-opened from disk:
    /// `summary()` must equal what the stream declared it sent, and a
    /// federated `count` must equal the jobs sent.
    fn check(&mut self, corrupt_expected: bool, tracer: &mut Tracer) -> Result<u64, String> {
        let fixture = self.fixture().clone();
        let sent_jobs = fixture.fact("sent_jobs")? + u64::from(corrupt_expected);
        let scenario = fixture_scenario()?;
        let mismatch = tracer.scope("bench.check", 0, |_| -> Result<Option<String>, String> {
            let catalog = Catalog::open(&fixture.dir).map_err(|e| e.to_string())?;
            let summary = catalog.summary();
            if summary.jobs as u64 != sent_jobs {
                return Ok(Some(format!(
                    "summary has {} jobs, the stream sent {sent_jobs}",
                    summary.jobs
                )));
            }
            if summary.bytes_moved.bytes() != fixture.fact("sent_bytes_moved")?
                || summary.length.secs() != fixture.fact("sent_span_secs")?
                || summary.workload != scenario.workload_label()
                || summary.machines != scenario.machines()
            {
                return Ok(Some(format!(
                    "summary {summary:?} differs from what the stream declared"
                )));
            }
            let count = catalog
                .execute(&Query::new().select(Aggregate::Count))
                .map_err(|e| e.to_string())?;
            Ok(
                match count.output.rows.first().and_then(|r| r.values.first()) {
                    Some(AggValue::Int(n)) if *n == sent_jobs => None,
                    other => Some(format!("federated count {other:?}, sent {sent_jobs}")),
                },
            )
        })?;
        Ok(match mismatch {
            None => 0,
            Some(why) => {
                eprintln!("swim-perf: WRONG ANSWER on ingest-stream: {why}");
                fixture.jobs
            }
        })
    }

    fn wire_stats(&mut self, _tracer: &mut Tracer) -> Result<Option<WireStats>, String> {
        Ok(None)
    }

    fn access_log(&self) -> Option<&Path> {
        None
    }

    fn finish(self) -> Result<(), String> {
        self.child.finish()
    }
}

// ---------------------------------------------------------------------
// serve-*
// ---------------------------------------------------------------------

/// One persistent client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(port: u16) -> Result<Client, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    fn call(&mut self, line: &str) -> std::io::Result<protocol::Response> {
        protocol::write_request(&mut self.stream, line)?;
        protocol::read_response(&mut self.reader)
    }
}

/// `stats` round trips behind `serve.ping_us`.
const PINGS: usize = 200;

/// What one client saw of one request.
struct Seen {
    latency_us: u64,
    class: Class,
    failed: bool,
    overloaded: bool,
}

/// The server in a `child serve` process, its clients, and the request
/// sequence they replay.
pub struct ServeSut {
    workload: Workload,
    child: Child,
    clients: Vec<Client>,
    fixture: Fixture,
    /// Removes the fixture when this set-up built it.
    _owned: Option<Scratch>,
    mix: Mix,
    /// Next unused index of the request sequence; scan workloads never
    /// reuse one, so no canonical query repeats within a run.
    next_k: u64,
    /// Requests issued so far: the request id of the run's spans.
    issued: u64,
    /// Every distinct response body of the first round after warm-up,
    /// with the first request line it answered.
    kept: Vec<(String, Vec<u8>)>,
    keep_next_round: bool,
    /// Where the traced child writes its access log.
    access_log: Option<Scratch>,
}

impl ServeSut {
    fn port_of(reply: &Value) -> Result<u16, String> {
        field_u64(reply, "port")
            .and_then(|p| u16::try_from(p).ok())
            .ok_or_else(|| "child serve did not report a port".to_owned())
    }

    /// The requests of the next round. `serve-cached` replays requests
    /// 0..8 for ever; the scan workloads move on through the sequence.
    fn next_round_requests(&mut self) -> Vec<Request> {
        let n = self.workload.requests_per_round();
        if self.workload == Workload::ServeCached {
            let fixed = self.mix.requests(0, SLOTS.len() as u64);
            return (0..n as usize)
                .map(|i| fixed[i % fixed.len()].clone())
                .collect();
        }
        let requests = self.mix.requests(self.next_k, n);
        self.next_k += n;
        requests
    }
}

impl Sut for ServeSut {
    fn setup(
        cfg: &Config,
        traced: bool,
        shared: Option<&Fixture>,
        tracer: &mut Tracer,
    ) -> Result<ServeSut, String> {
        let (fixture, owned) = match shared {
            Some(fixture) => (fixture.clone(), None),
            None => {
                // A separate short-lived child builds the fixture, so its
                // peak memory never counts against the server's.
                let dir = Scratch(scratch_path(cfg, "fix"));
                let shards = cfg.workload.fixture_shards(default_cache_capacity(cfg)?);
                let per_shard = FIXTURE_JOBS.div_ceil(shards);
                let open = tracer.enter("scenario.generate_into_catalog", 0, 0);
                let mut builder = spawn_ingest(&dir.0, cfg.seed, per_shard, false)?;
                builder.ask("reset")?;
                let facts = builder.ask("round")?;
                builder.finish()?;
                tracer.exit(open);
                (Fixture::from_facts(&dir.0, facts)?, Some(dir))
            }
        };
        let access_log =
            traced.then(|| Scratch(scratch_path(cfg, "access").with_extension("jsonl")));
        let mut args = vec!["serve".to_owned(), dir_text(&fixture.dir)];
        args.extend(access_log.as_ref().map(|log| dir_text(&log.0)));
        let open = tracer.enter("serve.start", 0, 0);
        let mut child = Child::spawn(&args, traced)?;
        let port = ServeSut::port_of(&child.read_reply()?)?;
        let clients = (0..cfg.workload.clients())
            .map(|_| Client::connect(port))
            .collect::<Result<Vec<_>, _>>()?;
        tracer.exit(open);
        let mut sut = ServeSut {
            workload: cfg.workload,
            child,
            clients,
            mix: Mix::new(cfg.seed, fixture.submit.0, fixture.submit.1),
            fixture,
            _owned: owned,
            next_k: 0,
            issued: 0,
            kept: Vec::new(),
            keep_next_round: false,
            access_log,
        };
        // One whole untimed round: it fills the result cache (cached),
        // the column cache (warm), or cycles the LRU once (cold).
        let warmup = sut.round(0, tracer)?;
        if warmup.failed > 0 {
            return Err(format!("{} warm-up requests failed", warmup.failed));
        }
        sut.keep_next_round = true;
        Ok(sut)
    }

    fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    fn fixture(&self) -> &Fixture {
        &self.fixture
    }

    fn round(&mut self, no: u32, tracer: &mut Tracer) -> Result<Round, String> {
        let requests = self.next_round_requests();
        let keep = std::mem::take(&mut self.keep_next_round);
        let expect_cached = self.workload == Workload::ServeCached;
        // Round 0 is the warm-up: on `serve-cached` it is the round that
        // fills the result cache, so only there may `cached` read false.
        let check_cached = !(expect_cached && no == 0);
        let first_request = self.issued;
        self.issued += requests.len() as u64;
        let nclients = self.clients.len();
        let traced = tracer.is_on();
        let pid = self.child.pid();
        let cpu_before = procfs::cpu_us(pid).ok_or("cannot read child CPU time")?;
        let started = clock::now_us();
        type ClientResult = Result<(Vec<Seen>, Vec<(usize, Vec<u8>)>, Tracer), String>;
        let per_client: Vec<ClientResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let requests = &requests;
                    scope.spawn(move || -> ClientResult {
                        let mut spans = Tracer::new(traced);
                        // Each client takes one contiguous share of the
                        // round: whole passes through the slots, so all
                        // clients do the same work and finish together.
                        let share = requests.len() / nclients;
                        let mut seen = Vec::with_capacity(share);
                        let mut bodies = Vec::new();
                        for (i, request) in requests.iter().enumerate().skip(c * share).take(share)
                        {
                            let open =
                                spans.enter("serve.request", no, first_request + i as u64 + 1);
                            let sent = clock::now_us();
                            let response = client.call(&request.line);
                            let latency_us = clock::now_us() - sent;
                            spans.exit(open);
                            let response = response.map_err(|e| format!("request failed: {e}"))?;
                            let overloaded = response.kind == Some(protocol::ErrorKind::Overloaded);
                            seen.push(Seen {
                                latency_us,
                                class: request.class,
                                failed: !response.ok
                                    || (check_cached && response.cached != expect_cached),
                                overloaded,
                            });
                            // Keep every distinct body with the first
                            // line it answered. The jitter leaves a
                            // class's answer alone, so that is one body
                            // per class unless an answer is wrong.
                            if keep && !bodies.iter().any(|(_, body)| *body == response.body) {
                                bodies.push((i, response.body));
                            }
                        }
                        Ok((seen, bodies, spans))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let wall_us = clock::now_us() - started;
        let cpu_after = procfs::cpu_us(pid).ok_or("cannot read child CPU time")?;
        let mut round = Round {
            wall_us,
            cpu_us: cpu_after - cpu_before,
            ..Round::default()
        };
        for result in per_client {
            let (seen, bodies, spans) = result?;
            tracer.absorb(spans);
            for s in seen {
                round.ops += 1;
                round.failed += u64::from(s.failed);
                round.overloaded += u64::from(s.overloaded);
                round.latencies_us.push(s.latency_us);
                round.classes.push(s.class);
            }
            for (i, body) in bodies {
                if !self.kept.iter().any(|(_, kept)| *kept == body) {
                    self.kept.push((requests[i].line.clone(), body));
                }
            }
        }
        Ok(round)
    }

    /// Every distinct response body of the first measured round is
    /// compared byte for byte with `Session::execute(.., serial = true)`
    /// of the line it answered, rendered on the same catalog, in this
    /// process.
    fn check(&mut self, corrupt_expected: bool, tracer: &mut Tracer) -> Result<u64, String> {
        let kept = std::mem::take(&mut self.kept);
        if kept.is_empty() {
            return Err("no response bodies were kept to check".into());
        }
        let session =
            Session::open_catalog(&dir_text(&self.fixture.dir)).map_err(|e| e.to_string())?;
        let title = format!(
            "swim-serve: generation {}",
            session.generation().unwrap_or(0)
        );
        let mut wrong = 0u64;
        for (line, body) in &kept {
            let open = tracer.enter("bench.check", 0, 0);
            let (query, flags) = parse_line(line)?;
            let result = session.execute(&query, true).map_err(|e| e.to_string())?;
            let mut want = cli::render_for(&result.output, flags.format, &title).into_bytes();
            want.extend_from_slice(result.summary.as_bytes());
            want.push(b'\n');
            if corrupt_expected {
                want[0] ^= 0x01;
            }
            tracer.exit(open);
            if want != *body {
                if wrong == 0 {
                    eprintln!(
                        "swim-perf: WRONG ANSWER on {}: {line}\n--- served ---\n{}--- expected ---\n{}",
                        self.workload.name(),
                        String::from_utf8_lossy(body),
                        String::from_utf8_lossy(&want),
                    );
                }
                wrong += 1;
            }
        }
        Ok(wrong)
    }

    fn wire_stats(&mut self, tracer: &mut Tracer) -> Result<Option<WireStats>, String> {
        let mut pings = Vec::with_capacity(PINGS);
        for i in 0..PINGS {
            let open = tracer.enter("serve.ping", 0, i as u64 + 1);
            let sent = clock::now_us();
            let response = self.clients[0].call("stats").map_err(|e| e.to_string())?;
            pings.push(clock::now_us() - sent);
            tracer.exit(open);
            if !response.ok {
                return Err("stats command was refused".into());
            }
        }
        let response = self.clients[0]
            .call("metrics --format json")
            .map_err(|e| e.to_string())?;
        let metrics = serde_json::parse_value(&response.body_text()).map_err(|e| e.to_string())?;
        let cache = field(&metrics, "cache").ok_or("metrics reply lacks cache")?;
        let get = |key: &str| field_u64(cache, key).ok_or(format!("metrics cache lacks {key}"));
        Ok(Some(WireStats {
            ping_us: crate::stats::median_u64(&pings).unwrap_or(0.0),
            cache_hits: get("hits")?,
            cache_misses: get("misses")?,
            cache_evictions: get("evictions")?,
        }))
    }

    fn access_log(&self) -> Option<&Path> {
        self.access_log.as_ref().map(|log| log.0.as_path())
    }

    fn finish(mut self) -> Result<(), String> {
        self.clients.clear();
        self.child.finish()
    }
}
