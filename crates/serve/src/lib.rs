//! # swim-serve
//!
//! A resident, threaded TCP server over a `swim-catalog` dataset: the
//! one-shot `swim-query` CLI turned into a long-running process that
//! holds the catalog open and answers concurrent query requests through
//! the same [`swim_query::Session`] execution path the binaries use.
//!
//! Three properties carry the design:
//!
//! 1. **Snapshot isolation for free.** Catalog shards are immutable and
//!    the `MANIFEST` is replaced atomically, so a generation is a
//!    consistent snapshot that stays readable after newer ones land. The server pins each request to
//!    an `Arc<Session>` opened at one generation; concurrent
//!    `ingest`/`compact` publish a new generation and the server swaps
//!    in a fresh session while in-flight requests finish against the
//!    old one (retired sessions are tracked so `vacuum` can wait for
//!    the last reader before deleting files).
//! 2. **Bounded admission.** A queue-depth limit caps admitted
//!    connections; past it the acceptor answers a typed `overloaded`
//!    error immediately instead of queueing unboundedly. A fixed worker
//!    pool drains the queue; graceful shutdown finishes in-flight
//!    requests before exiting.
//! 3. **Per-generation result cache of rendered responses.** A query
//!    that misses is executed and rendered once, and the body bytes are
//!    cached under `(generation, output format, canonical-query)`; the
//!    second time a request line is seen it is also filed under
//!    `(generation, trimmed line)` in the same LRU. A hit — after the
//!    on-disk generation has been peeked, as for every request — is a
//!    lookup and a write: a repeated line is not even tokenized. A
//!    generation bump changes both keys, so a hit is *always* current
//!    for the generation the response reports — no invalidation
//!    protocol needed, old entries simply age out of the LRU.
//!
//! The wire protocol ([`protocol`]) is a hand-rolled line protocol:
//! one request per line (`query --select count --where "input > 1gb"`,
//! `ping`, `stats`, …), one length-prefixed response per request.
//!
//! Because the server is resident, it also carries a **live telemetry
//! layer** ([`telemetry`]): every request gets a monotonic id (attached
//! to its `swim-obs` flight-recorder event and to an optional JSONL
//! access log), latencies land in bounded *windowed* histograms keyed
//! by request class (query/cached/admin), and the read-only `stats` /
//! `metrics` wire commands expose it all as text or fixed-shape JSON —
//! what `swim-top` polls.
//!
//! The client side lives here too: one wire [`client`], the load
//! driver behind `swim-bench serve` ([`load`]), and the `swim-top`
//! dashboard engine ([`top`]). Both render through the
//! [`swim_obs::doc`] model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod load;
pub mod protocol;
pub mod server;
pub mod telemetry;
pub mod top;

pub use cache::{CacheStats, KeyKind, ResultCache};
pub use protocol::{ErrorKind, Response};
pub use server::{serve, ServeError, ServeOptions, ServerHandle, ServerStats};
pub use telemetry::{AccessRecord, RequestClass, Telemetry, TelemetrySnapshot};
