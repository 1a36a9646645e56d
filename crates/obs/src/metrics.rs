//! Static instruments, [`Counter`] and [`Gauge`], and the nearest-rank
//! rule ([`nearest_rank`]) every quantile in the workspace reads.
//!
//! Both instruments are designed to be declared as `static` items
//! (`new` is `const`) and to cost one relaxed atomic load + branch when
//! the [`crate::METRICS`] bit is off. On the first *enabled*
//! touch an instrument registers itself with the process-wide registry
//! ([`crate::registry`]), so snapshots only ever list
//! instruments that actually fired.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::registry;
use crate::{enabled, METRICS};

/// A monotonically increasing event count (chunks decoded, cache hits,
/// bytes read, ...). Exact: no sampling, no saturation below `u64::MAX`.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Create an unregistered counter. `const`, so counters live in
    /// `static` items next to the code they instrument.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The name the counter registers and snapshots under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` to the counter. A no-op (one relaxed load + branch) when
    /// metrics are disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled(METRICS) {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// [`add`](Counter::add)`(1)`.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value (reads even while disabled).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            registry::register_counter(self);
        }
    }
}

/// A point-in-time signed level (cache entries, heap size, queue
/// depth). Snapshots report the last value set.
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// Create an unregistered gauge (`const`; see [`Counter::new`]).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The name the gauge registers and snapshots under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Set the level. A no-op when metrics are disabled.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !enabled(METRICS) {
            return;
        }
        self.ensure_registered();
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value (reads even while disabled).
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            registry::register_gauge(self);
        }
    }
}

/// 0-based index of the nearest-rank `p`-quantile among `n` ascending
/// samples (`n` ≥ 1): rank `ceil(p * n)` with `p` clamped to `[0, 1]`,
/// itself clamped to `[1, n]`. So `p` ≤ 0 and NaN (which `as usize`
/// reads as 0) select the minimum and `p` ≥ 1 the maximum.
///
/// This is the rule of `swim_core::stats::Ecdf::quantile`, and the one
/// place it is written outside that reference: [`quantile_of_sorted`],
/// swim-query's `pN` aggregates and swim-sim's latency percentiles all
/// index with it — property-tested against `Ecdf` in
/// `tests/nearest_rank_ecdf.rs`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank quantile of an ascending-sorted slice, or `None` when
/// the slice is empty (where `Ecdf::quantile` panics instead). `u64 ->
/// f64` never reorders values for the magnitudes involved, so agreement
/// with `Ecdf` is bit-for-bit.
pub fn quantile_of_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[nearest_rank(p, sorted.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::{set_enabled, ALL};

    static DISABLED_COUNTER: Counter = Counter::new("test.metrics.disabled_counter");
    static LIVE_COUNTER: Counter = Counter::new("test.metrics.live_counter");
    static LIVE_GAUGE: Gauge = Gauge::new("test.metrics.live_gauge");

    #[test]
    fn disabled_instruments_record_nothing() {
        let _guard = test_support::serialize();
        set_enabled(0);
        DISABLED_COUNTER.add(41);
        DISABLED_COUNTER.incr();
        assert_eq!(DISABLED_COUNTER.get(), 0);
    }

    #[test]
    fn enabled_instruments_accumulate() {
        let _guard = test_support::serialize();
        set_enabled(ALL);
        LIVE_COUNTER.add(2);
        LIVE_COUNTER.incr();
        LIVE_GAUGE.set(-7);
        set_enabled(0);

        assert_eq!(LIVE_COUNTER.get(), 3);
        assert_eq!(LIVE_GAUGE.get(), -7);

        LIVE_COUNTER.reset();
        LIVE_GAUGE.reset();
        assert_eq!(LIVE_COUNTER.get(), 0);
        assert_eq!(LIVE_GAUGE.get(), 0);
    }

    #[test]
    fn quantile_of_sorted_edge_cases() {
        assert_eq!(quantile_of_sorted(&[], 0.5), None);
        assert_eq!(quantile_of_sorted(&[9], 0.0), Some(9));
        assert_eq!(quantile_of_sorted(&[9], 1.0), Some(9));
        assert_eq!(quantile_of_sorted(&[1, 2], 0.0), Some(1));
        assert_eq!(quantile_of_sorted(&[1, 2], 0.5), Some(1));
        assert_eq!(quantile_of_sorted(&[1, 2], 0.51), Some(2));
        assert_eq!(quantile_of_sorted(&[1, 2], 1.0), Some(2));
        // Out-of-range p clamps rather than panics.
        assert_eq!(quantile_of_sorted(&[1, 2, 3], -0.5), Some(1));
        assert_eq!(quantile_of_sorted(&[1, 2, 3], 1.5), Some(3));
        // Non-finite p: NaN and -inf read the minimum, +inf the maximum,
        // as in the `Ecdf` reference.
        let ecdf = swim_core::stats::Ecdf::new(vec![1.0, 2.0, 3.0]);
        for (p, want) in [(f64::NAN, 1), (f64::NEG_INFINITY, 1), (f64::INFINITY, 3)] {
            assert_eq!(quantile_of_sorted(&[1, 2, 3], p), Some(want));
            assert_eq!(ecdf.quantile(p), want as f64);
        }
    }
}
