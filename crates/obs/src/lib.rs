//! # swim-obs
//!
//! A zero-dependency observability layer for the swim workspace:
//! counters, gauges and hierarchical timed spans, collected into one
//! process-wide [`registry`] and exported as plain data ([`Snapshot`])
//! or JSON lines ([`jsonl`]); windowed nearest-rank latency histograms
//! ([`WindowedHistogram`]); the nearest-rank rule ([`nearest_rank`])
//! every quantile in the workspace reads; and the workspace's one JSON
//! codec ([`json`]: value tree, writer, string escaper, total parser).
//!
//! The crate sits **below** every other workspace crate (including
//! `swim-store`), so any layer can instrument its hot paths without new
//! dependency edges. It is the std-only floor, and holds the six things
//! every layer shares: the clock ([`timed`], [`clock`]), counters,
//! spans, the fan-out ([`par`]: [`par_claim`] / [`par_map`], the one
//! place threads are spawned for a claim pool — and therefore the one
//! place a worker's spans can be tied back to the caller's), and the
//! document model every report, query answer, profile, lint result and
//! dashboard is rendered through ([`doc`]: [`doc::Report`] →
//! [`doc::Section`] → [`doc::Block`], built from [`render::Table`] and
//! [`render::sparkline`], rendered as text, [`markdown`] or [`html`]),
//! and the command-line runtime every binary runs on ([`cli`]: one flag
//! table per command, one parser, one exit rule, one stdout sink).
//! Because the model lives here, the serving and lint paths render
//! without compiling the analysis stack. Three properties keep the
//! instrumentation honest:
//!
//! 1. **Cheap when disabled.** Every recording call starts with one
//!    relaxed atomic load of the global enable mask; when the relevant
//!    bit is off the call returns immediately — no allocation, no lock,
//!    no clock read. Instrumentation is compiled in unconditionally and
//!    costs a branch.
//! 2. **Static instruments, lazy registration.** Instruments are
//!    `static` values (`Counter::new` is `const`); they register
//!    themselves with the global registry on first *enabled* touch, so
//!    an instrument that never fires never shows up in a snapshot.
//! 3. **Exact, deterministic data.** Counters are exact `u64`s,
//!    quantiles use the same nearest-rank rule as
//!    `swim_core::stats::Ecdf::quantile` (property-tested bit-for-bit),
//!    and snapshots sort by name — so for a deterministic workload the
//!    counter section of a snapshot is byte-stable.
//!
//! Enablement comes from the `SWIM_OBS` environment variable
//! ([`init_from_env`]: comma-separated `metric` / `span` / `all`) or
//! programmatically ([`set_enabled`]) — `swim-query --profile` forces
//! everything on for the duration of the query.
//!
//! For **resident processes** (the `swim-serve` server) two further
//! pieces provide live telemetry at bounded memory:
//!
//! * [`window`] — [`WindowedHistogram`] / [`WindowedCounter`]: "last
//!   minute" distributions and rates over a ring of fixed-duration
//!   buckets, O(buckets) memory however many events are recorded,
//!   rotation driven by injectable timestamps ([`clock`]).
//! * [`Snapshot::delta`] — difference two snapshots to turn lifetime
//!   counters into rates (`swim-top`'s polling primitive).
//!
//! ```
//! use swim_obs::{set_enabled, snapshot, Counter, METRICS};
//!
//! static DECODED: Counter = Counter::new("example.chunks_decoded");
//! set_enabled(METRICS);
//! DECODED.add(3);
//! let snap = snapshot();
//! assert_eq!(snap.counter("example.chunks_decoded"), Some(3));
//! set_enabled(0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod clock;
pub mod doc;
pub mod html;
pub mod json;
pub mod jsonl;
pub mod markdown;
pub mod metrics;
pub mod par;
pub mod registry;
pub mod render;
pub mod span;
pub mod window;

pub use metrics::{nearest_rank, quantile_of_sorted, Counter, Gauge};
pub use par::{cores, par_claim, par_map, Claims};
pub use registry::{reset, snapshot, Snapshot, SpanSample};
pub use span::{span, timed, SpanGuard};
pub use window::{BucketSummary, WindowSummary, WindowedCounter, WindowedHistogram};

use std::sync::atomic::{AtomicU32, Ordering};

/// Enable bit for counters and gauges.
pub const METRICS: u32 = 1;
/// Enable bit for hierarchical timed spans.
pub const SPANS: u32 = 2;
/// Every component.
pub const ALL: u32 = METRICS | SPANS;

/// The process-wide enable mask. Everything is off by default, so
/// instrumented code paths cost one relaxed load + branch.
static ENABLED: AtomicU32 = AtomicU32::new(0);

/// Replace the enable mask (a bitwise OR of [`METRICS`] and [`SPANS`];
/// `0` disables everything).
pub fn set_enabled(mask: u32) {
    ENABLED.store(mask & ALL, Ordering::Relaxed);
}

/// `true` when *any* bit of `mask` is enabled.
#[inline]
pub fn enabled(mask: u32) -> bool {
    ENABLED.load(Ordering::Relaxed) & mask != 0
}

/// Parse an enable mask from `SWIM_OBS` and apply it, returning the
/// mask. Tokens are comma-separated: `metric`/`metrics`, `span`/`spans`,
/// `all`/`1`. Unknown tokens are ignored, so an unset or empty variable
/// leaves everything off.
pub fn init_from_env() -> u32 {
    let mask = std::env::var("SWIM_OBS")
        .map(|v| parse_mask(&v))
        .unwrap_or(0);
    set_enabled(mask);
    mask
}

/// Parse a `SWIM_OBS`-style component list into an enable mask.
pub fn parse_mask(text: &str) -> u32 {
    let mut mask = 0;
    for token in text.split(',') {
        match token.trim() {
            "metric" | "metrics" => mask |= METRICS,
            "span" | "spans" => mask |= SPANS,
            "all" | "1" | "true" => mask |= ALL,
            _ => {}
        }
    }
    mask
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Tests that flip the global enable mask must not interleave: this
    //! lock serializes them within the crate's test binary.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn serialize() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parsing_accepts_components_and_ignores_junk() {
        assert_eq!(parse_mask(""), 0);
        assert_eq!(parse_mask("metric"), METRICS);
        assert_eq!(parse_mask("spans"), SPANS);
        assert_eq!(parse_mask("span,metric"), ALL);
        assert_eq!(parse_mask(" span , metrics "), ALL);
        assert_eq!(parse_mask("all"), ALL);
        assert_eq!(parse_mask("1"), ALL);
        assert_eq!(parse_mask("banana"), 0);
        assert_eq!(parse_mask("banana,span"), SPANS);
    }

    #[test]
    fn enable_mask_round_trips() {
        let _guard = test_support::serialize();
        set_enabled(METRICS);
        assert!(enabled(METRICS));
        assert!(!enabled(SPANS));
        assert!(enabled(ALL), "any-bit semantics");
        set_enabled(0);
        assert!(!enabled(ALL));
    }
}
