//! The systems under test, each run in a child process that is a
//! re-exec of `swim-perf` itself, and the parent's handle to one.
//!
//! A child holds exactly one system — the write path (`child ingest`)
//! or the server (`child serve`) — and nothing of the load generator,
//! so the CPU time and peak memory the parent reads from `/proc/<pid>`
//! are the system's own. Parent and child talk over the child's stdin
//! and stdout, one command line in, one JSON line out.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};

use serde_json::Value;
use swim_catalog::{Catalog, CatalogOptions};
use swim_obs::clock;
use swim_scenario::{presets, Scenario, ScenarioStream};
use swim_serve::{serve, ServeOptions};
use swim_store::StoreOptions;
use swim_trace::Job;

/// The scenario preset every fixture is generated from.
const SCENARIO: &str = "multitenant-saas";
/// Horizon the preset is stretched to, in days (it ships with 3).
const FIXTURE_DAYS: f64 = 90.0;
/// Job budget of the stream as a multiple of the jobs a fixture holds.
pub const FIXTURE_BUDGET: u64 = 3;

/// The scenario of every fixture: the preset over a 90-day horizon, of
/// which the first third of the job budget — about a month — is kept.
///
/// Over the preset's own 3 days a million jobs arrive in some 50 hours,
/// few enough that the hourly bursts decide how much of each tenant the
/// fixture holds: bytes per job moved by 1.5 % between seeds (IQR/median
/// of ten), the span by 27 %, and one seed in forty fell short of the
/// job count altogether. Over a month the bursts average out — 0.46 %,
/// 7 %, none short — and the jobs per day come nearer the traces the
/// paper studied.
pub fn fixture_scenario() -> Result<Scenario, String> {
    let mut scenario = presets::find(SCENARIO).map_err(|e| e.to_string())?;
    scenario.days = FIXTURE_DAYS;
    Ok(scenario)
}
/// Jobs per generated chunk on the write path.
pub const INGEST_CHUNK: usize = 4096;

// ---------------------------------------------------------------------
// JSON helpers shared by both sides of the pipe
// ---------------------------------------------------------------------

/// Look up `key` in a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// A non-negative integer field.
pub fn field_u64(value: &Value, key: &str) -> Option<u64> {
    match field(value, key)? {
        Value::U64(v) => Some(*v),
        _ => None,
    }
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn reply(value: &Value) -> Result<(), String> {
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("child stdout: {e}"))
}

/// The process's `swim_obs` counters as one JSON object.
fn obs_counters() -> Value {
    let snap = swim_obs::snapshot();
    Value::Object(
        snap.counters
            .into_iter()
            .map(|(name, v)| (name, Value::U64(v)))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// child ingest: the write path
// ---------------------------------------------------------------------

/// The iterator handed to `Catalog::ingest_stream`: a job-block stream
/// plus a clock read on either side of every `next()`.
///
/// The catalog writes and fsyncs a shard between two `next()` calls, so
/// the gap from the `next()` that filled a shard to the following
/// `next()` call is the time the producer stalled on that shard write.
pub struct Gaps<I> {
    inner: I,
    per_shard: u64,
    /// Jobs handed out so far.
    jobs: u64,
    /// When the last `next()` returned, and whether the chunk it
    /// returned filled a shard.
    returned_us: u64,
    filled_shard: bool,
    /// Total time spent inside the inner stream's `next()`.
    pub in_next_us: u64,
    /// One producer stall per shard write.
    pub stalls_us: Vec<u64>,
}

impl<I> Gaps<I> {
    /// Wrap `inner`, which feeds a catalog cutting shards of `per_shard` jobs.
    pub fn new(inner: I, per_shard: u64) -> Gaps<I> {
        Gaps {
            inner,
            per_shard,
            jobs: 0,
            returned_us: 0,
            filled_shard: false,
            in_next_us: 0,
            stalls_us: Vec::new(),
        }
    }
}

impl<I: Iterator<Item = Vec<Job>>> Iterator for Gaps<I> {
    type Item = Vec<Job>;

    fn next(&mut self) -> Option<Vec<Job>> {
        let called = clock::now_us();
        if self.filled_shard {
            self.stalls_us.push(called - self.returned_us);
        }
        let chunk = self.inner.next();
        self.returned_us = clock::now_us();
        self.in_next_us += self.returned_us - called;
        let shards_before = self.jobs / self.per_shard;
        self.jobs += chunk.as_ref().map_or(0, |c| c.len() as u64);
        self.filled_shard = self.jobs / self.per_shard > shards_before;
        chunk
    }
}

/// One write-path round: the body of `scenario::generate_into_catalog`
/// with the stream wrapped in [`Gaps`], into a fresh catalog at `dir`.
fn ingest_round(dir: &Path, seed: u64, jobs: u64, per_shard: u32) -> Result<Value, String> {
    let scenario = fixture_scenario()?;
    let options = CatalogOptions {
        jobs_per_shard: per_shard,
        store: StoreOptions::default(),
    };
    let started = clock::now_us();
    let mut catalog = Catalog::init(dir).map_err(|e| e.to_string())?;
    // A scenario's job count is a budget its bursty arrival processes
    // undershoot by a seed-dependent share. Every fixture must hold
    // exactly `jobs` jobs whatever the seed — rows scanned per request
    // are the first-order cost of every read workload — so the budget
    // is `FIXTURE_BUDGET` times that and the stream is cut after `jobs`.
    let whole_chunks = jobs / INGEST_CHUNK as u64;
    if whole_chunks * INGEST_CHUNK as u64 != jobs {
        return Err(format!("job count must be a multiple of {INGEST_CHUNK}"));
    }
    let mut stream = ScenarioStream::new(&scenario, seed, jobs * FIXTURE_BUDGET)
        .map_err(|e| e.to_string())?
        .chunk_size(INGEST_CHUNK);
    let kind = stream.kind().clone();
    let machines = stream.machines();
    let mut resident_max = 0usize;
    let mut gaps = Gaps::new(
        std::iter::from_fn(|| {
            let chunk = stream.next_chunk();
            resident_max = resident_max.max(stream.resident_bytes());
            chunk
        })
        .take(whole_chunks as usize),
        u64::from(per_shard),
    );
    let ingest = catalog
        .ingest_stream(kind, machines, &mut gaps, &options)
        .map_err(|e| e.to_string())?;
    let wall_us = clock::now_us() - started;
    let (in_next_us, stalls_us) = (gaps.in_next_us, gaps.stalls_us);
    if ingest.jobs != jobs {
        return Err(format!(
            "the scenario yielded {} jobs for seed {seed}, short of the {jobs} a fixture holds",
            ingest.jobs
        ));
    }
    let (min_submit, max_submit) = catalog
        .shards()
        .iter()
        .map(|s| s.submit_window())
        .fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
    let sent = &stream.stats().generation;
    let facts = object(vec![
        ("wall_us", Value::U64(wall_us)),
        ("jobs", Value::U64(ingest.jobs)),
        ("shards", Value::U64(ingest.shards as u64)),
        ("bytes", Value::U64(ingest.bytes)),
        ("next_us", Value::U64(in_next_us)),
        (
            "stalls_us",
            Value::Array(stalls_us.into_iter().map(Value::U64).collect()),
        ),
        ("resident_max", Value::U64(resident_max as u64)),
        ("min_submit", Value::U64(min_submit)),
        ("max_submit", Value::U64(max_submit)),
        // What the stream declares it sent; the parent holds the
        // catalog it re-opens from disk against these.
        ("sent_jobs", Value::U64(sent.jobs)),
        ("sent_bytes_moved", Value::U64(sent.bytes_moved.bytes())),
        ("sent_span_secs", Value::U64(sent.span().secs())),
    ]);
    Ok(facts)
}

/// `child ingest DIR SEED JOBS PER_SHARD`: serve `reset` / `round` /
/// `obs` / `exit` on stdin until EOF.
pub fn ingest_main(args: &[String]) -> Result<(), String> {
    let [dir, seed, jobs, per_shard] = args else {
        return Err("child ingest DIR SEED JOBS PER_SHARD".into());
    };
    let dir = PathBuf::from(dir);
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let jobs: u64 = jobs.parse().map_err(|_| "bad job count")?;
    let per_shard: u32 = per_shard.parse().map_err(|_| "bad shard size")?;
    swim_obs::init_from_env();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("child stdin: {e}"))?;
        match line.trim() {
            "reset" => {
                // Untimed: the parent waits for this reply before it
                // reads the clock.
                if dir.exists() {
                    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
                }
                reply(&object(vec![("ok", Value::Bool(true))]))?;
            }
            "round" => reply(&ingest_round(&dir, seed, jobs, per_shard)?)?,
            "obs" => reply(&obs_counters())?,
            "exit" => break,
            other => return Err(format!("child ingest: unknown command {other:?}")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// child serve: the server
// ---------------------------------------------------------------------

/// `child serve DIR [ACCESS_LOG]`: start `swim_serve::serve` with the
/// library's default options, print the port, then serve `obs` / `exit`
/// on stdin until EOF.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let (dir, access_log) = match args {
        [dir] => (dir, None),
        [dir, log] => (dir, Some(PathBuf::from(log))),
        _ => return Err("child serve DIR [ACCESS_LOG]".into()),
    };
    swim_obs::init_from_env();
    let options = ServeOptions {
        access_log,
        ..ServeOptions::default()
    };
    let handle = serve(dir, options).map_err(|e| e.to_string())?;
    reply(&object(vec![(
        "port",
        Value::U64(u64::from(handle.port())),
    )]))?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("child stdin: {e}"))?;
        match line.trim() {
            "obs" => reply(&obs_counters())?,
            "exit" => break,
            other => return Err(format!("child serve: unknown command {other:?}")),
        }
    }
    handle.shutdown_join();
    Ok(())
}

// ---------------------------------------------------------------------
// The parent's handle
// ---------------------------------------------------------------------

/// A running child. Dropping it kills and reaps the process, so no
/// child outlives the benchmark whatever path the parent exits by.
pub struct Child {
    proc: std::process::Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Child {
    /// Re-exec this binary as `swim-perf child <args…>`, with
    /// `SWIM_OBS=all` when `traced` and no `SWIM_*` setting otherwise.
    pub fn spawn(args: &[String], traced: bool) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command
            .arg("child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SWIM_") {
                command.env_remove(key);
            }
        }
        if traced {
            command.env("SWIM_OBS", "all");
        }
        let mut proc = command.spawn().map_err(|e| format!("spawn child: {e}"))?;
        let stdin = proc.stdin.take();
        let stdout = proc.stdout.take().ok_or("child stdout not piped")?;
        Ok(Child {
            proc,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// The child's process id, for `/proc`.
    pub fn pid(&self) -> u32 {
        self.proc.id()
    }

    /// Read one JSON reply line.
    pub fn read_reply(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child exited without replying".into()),
            Ok(_) => serde_json::parse_value(line.trim()).map_err(|e| format!("child reply: {e}")),
            Err(e) => Err(format!("child stdout: {e}")),
        }
    }

    /// Send one command line and read its JSON reply.
    pub fn ask(&mut self, command: &str) -> Result<Value, String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("child stdin: {e}"))?;
        self.read_reply()
    }

    /// Ask the child to exit and wait for it.
    pub fn finish(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            // A child that already died reports through its exit status.
            let _ = writeln!(stdin, "exit");
        }
        let status = self.proc.wait().map_err(|e| format!("wait child: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // After `finish` the process is already reaped and both calls
        // are harmless no-ops.
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}
