//! Time-windowed metrics with bounded memory: [`WindowedCounter`] and
//! [`WindowedHistogram`].
//!
//! A distribution that retained every sample for the process's lifetime
//! would be exact but unbounded: fine for a bench run, fatal for a
//! resident server. The windowed types here are the workspace's one
//! recorded distribution; they answer "what happened over the last
//! minute" with memory that is **O(buckets)**, independent of request
//! count:
//!
//! * Time is divided into fixed-width buckets (`width_ms` each) and a
//!   ring of `buckets` of them covers the window. Recording into a
//!   bucket whose epoch has passed resets it in place — rotation is a
//!   comparison, not a timer thread.
//! * A histogram bucket keeps exact `count`/`sum`/`min`/`max` plus a
//!   bounded sample set for quantiles. When a bucket's samples hit the
//!   cap, every other retained sample is dropped and the keep stride
//!   doubles — a deterministic uniform thinning (no RNG), so under
//!   overload quantiles degrade gracefully instead of memory growing.
//! * Quantiles over the retained window use the exact
//!   [`quantile_of_sorted`] nearest-rank rule — bit-for-bit
//!   `swim_core::stats::Ecdf::quantile` on the same retained samples
//!   (property-tested in `tests/windowed_ecdf.rs`).
//!
//! Unlike the mask-gated lifetime instruments, windowed metrics are
//! always on: they exist so a resident server can answer `stats` /
//! `metrics` without having been restarted with `SWIM_OBS` set, and
//! their cost (one short mutex + bounded push per record) is paid only
//! by callers that construct them.
//!
//! **Clock injection.** The core methods take an explicit `now_ms`
//! (`record_at`, `summary_at`, …), so rotation is driven by whatever
//! clock the caller holds — the process clock ([`crate::clock::now_ms`]
//! via the argument-free conveniences) in production, a `ManualClock`
//! or plain integers in tests.

use std::sync::Mutex;

use crate::clock;
use crate::metrics::quantile_of_sorted;

/// Default per-bucket retained-sample cap for [`WindowedHistogram`].
pub const DEFAULT_SAMPLE_CAP: usize = 1024;

/// One live histogram bucket.
#[derive(Debug, Clone)]
struct Bucket {
    /// `start_ms / width_ms` at the time the bucket was (re)started;
    /// identifies which window slice the contents belong to.
    epoch: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Retained samples (arrival order). Capacity is fixed at the cap;
    /// thinning happens in place, so this never reallocates.
    samples: Vec<u64>,
    /// Keep every `stride`-th observed sample (doubles on overflow).
    stride: u64,
    /// Samples observed in this bucket since the last reset.
    seen: u64,
}

impl Bucket {
    fn fresh(epoch: u64, cap: usize) -> Bucket {
        Bucket {
            epoch,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            samples: Vec::with_capacity(cap),
            stride: 1,
            seen: 0,
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.samples.clear();
        self.stride = 1;
        self.seen = 0;
    }

    fn record(&mut self, v: u64, cap: usize) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.seen.is_multiple_of(self.stride) {
            // Thin deterministically until there is room: keep every
            // other retained sample, double the stride. Memory never
            // exceeds cap (a cap of 1 degenerates to keep-latest).
            while self.samples.len() >= cap {
                if self.samples.len() == 1 {
                    self.samples.clear();
                } else {
                    let mut keep = 0usize;
                    self.samples.retain(|_| {
                        keep += 1;
                        keep % 2 == 1
                    });
                }
                self.stride = self.stride.saturating_mul(2);
            }
            self.samples.push(v);
        }
        self.seen += 1;
    }
}

/// Aggregate view of one bucket, for time-series rendering (the
/// `swim-bench serve` sparkline, `swim-top` history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSummary {
    /// Wall-clock start of the bucket, process-clock milliseconds.
    pub start_ms: u64,
    /// Exact number of recorded values.
    pub count: u64,
    /// Exact saturating sum of recorded values.
    pub sum: u64,
    /// Nearest-rank median of the bucket's retained samples.
    pub p50: Option<u64>,
    /// Nearest-rank 95th percentile of the bucket's retained samples.
    pub p95: Option<u64>,
}

/// Everything the window currently knows, frozen into plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    /// Nominal window span: `width_ms * buckets`.
    pub window_ms: u64,
    /// Portion of the window actually covered by live data: from the
    /// start of the oldest live bucket to `now` (0 when empty). Rates
    /// divide by this, so a server that just started does not
    /// under-report.
    pub covered_ms: u64,
    /// Exact number of values recorded in the window.
    pub count: u64,
    /// Exact saturating sum of values recorded in the window.
    pub sum: u64,
    /// Exact minimum recorded in the window.
    pub min: Option<u64>,
    /// Exact maximum recorded in the window.
    pub max: Option<u64>,
    /// Retained samples across the window's live buckets, sorted
    /// ascending. Bounded by `buckets * sample_cap`.
    pub retained: Vec<u64>,
}

impl WindowSummary {
    /// Nearest-rank quantile over the retained window — the exact
    /// `Ecdf::quantile` rule on the same data. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        quantile_of_sorted(&self.retained, p)
    }

    /// Events per second over the covered portion of the window.
    pub fn rate_per_sec(&self) -> f64 {
        if self.covered_ms == 0 {
            0.0
        } else {
            self.count as f64 * 1000.0 / self.covered_ms as f64
        }
    }
}

/// A latency/size distribution over the trailing window, with bounded
/// memory. See the module docs for the design.
#[derive(Debug)]
pub struct WindowedHistogram {
    width_ms: u64,
    buckets: usize,
    sample_cap: usize,
    ring: Mutex<Vec<Bucket>>,
}

impl WindowedHistogram {
    /// A histogram covering `width_ms * buckets` trailing milliseconds
    /// with the [`DEFAULT_SAMPLE_CAP`]. Zero arguments are clamped
    /// to 1.
    pub fn new(width_ms: u64, buckets: usize) -> WindowedHistogram {
        WindowedHistogram::with_sample_cap(width_ms, buckets, DEFAULT_SAMPLE_CAP)
    }

    /// [`WindowedHistogram::new`] with an explicit per-bucket retained
    /// sample cap (tests use tiny caps to exercise thinning cheaply).
    pub fn with_sample_cap(width_ms: u64, buckets: usize, sample_cap: usize) -> WindowedHistogram {
        WindowedHistogram {
            width_ms: width_ms.max(1),
            buckets: buckets.max(1),
            sample_cap: sample_cap.max(1),
            ring: Mutex::new(Vec::new()),
        }
    }

    /// Nominal window span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.width_ms * self.buckets as u64
    }

    /// Record `v` at the process clock's current time.
    pub fn record(&self, v: u64) {
        self.record_at(clock::now_ms(), v);
    }

    /// Record `v` at an injected timestamp. Timestamps may arrive
    /// slightly out of order (concurrent recorders); a value older than
    /// the whole window lands in (and restarts) the bucket its slot
    /// maps to, which is the closest bounded-memory approximation.
    pub fn record_at(&self, now_ms: u64, v: u64) {
        let epoch = now_ms / self.width_ms;
        let idx = (epoch % self.buckets as u64) as usize;
        let mut ring = lock(&self.ring);
        if ring.is_empty() {
            let cap = self.sample_cap;
            ring.resize_with(self.buckets, || Bucket::fresh(u64::MAX, cap));
        }
        let Some(bucket) = ring.get_mut(idx) else {
            return;
        };
        if bucket.epoch != epoch {
            bucket.reset(epoch);
        }
        bucket.record(v, self.sample_cap);
    }

    /// Freeze the window as seen from an injected timestamp: only
    /// buckets whose epoch falls inside `[now - window, now]`
    /// contribute.
    pub fn summary_at(&self, now_ms: u64) -> WindowSummary {
        let now_epoch = now_ms / self.width_ms;
        let oldest_epoch = now_epoch.saturating_sub(self.buckets as u64 - 1);
        let mut out = WindowSummary {
            window_ms: self.window_ms(),
            covered_ms: 0,
            count: 0,
            sum: 0,
            min: None,
            max: None,
            retained: Vec::new(),
        };
        let ring = lock(&self.ring);
        let mut oldest_live: Option<u64> = None;
        for bucket in ring.iter() {
            if bucket.epoch < oldest_epoch || bucket.epoch > now_epoch || bucket.count == 0 {
                continue;
            }
            oldest_live = Some(oldest_live.map_or(bucket.epoch, |e: u64| e.min(bucket.epoch)));
            out.count += bucket.count;
            out.sum = out.sum.saturating_add(bucket.sum);
            out.min = Some(out.min.map_or(bucket.min, |m: u64| m.min(bucket.min)));
            out.max = Some(out.max.map_or(bucket.max, |m: u64| m.max(bucket.max)));
            out.retained.extend_from_slice(&bucket.samples);
        }
        drop(ring);
        if let Some(epoch) = oldest_live {
            let start = epoch * self.width_ms;
            out.covered_ms = now_ms.saturating_sub(start).clamp(1, out.window_ms);
        }
        out.retained.sort_unstable();
        out
    }

    /// Per-bucket aggregates, oldest live bucket first — the window as
    /// a time series. Empty and expired buckets are skipped.
    pub fn buckets_at(&self, now_ms: u64) -> Vec<BucketSummary> {
        let now_epoch = now_ms / self.width_ms;
        let oldest_epoch = now_epoch.saturating_sub(self.buckets as u64 - 1);
        let ring = lock(&self.ring);
        let mut live: Vec<&Bucket> = ring
            .iter()
            .filter(|b| b.epoch >= oldest_epoch && b.epoch <= now_epoch && b.count > 0)
            .collect();
        live.sort_by_key(|b| b.epoch);
        live.into_iter()
            .map(|b| {
                let mut sorted = b.samples.clone();
                sorted.sort_unstable();
                BucketSummary {
                    start_ms: b.epoch * self.width_ms,
                    count: b.count,
                    sum: b.sum,
                    p50: quantile_of_sorted(&sorted, 0.50),
                    p95: quantile_of_sorted(&sorted, 0.95),
                }
            })
            .collect()
    }

    /// Total retained samples across all buckets right now — the
    /// memory-bound observable: always `<= buckets * sample_cap`
    /// however many values were recorded (asserted in the obs test
    /// battery).
    pub fn retained_len(&self) -> usize {
        lock(&self.ring).iter().map(|b| b.samples.len()).sum()
    }
}

/// An event-rate counter over the trailing window: the windowed
/// companion to [`crate::Counter`]. Same ring/rotation scheme as
/// [`WindowedHistogram`], O(buckets) memory, exact counts.
#[derive(Debug)]
pub struct WindowedCounter {
    width_ms: u64,
    buckets: usize,
    ring: Mutex<Vec<(u64, u64)>>,
}

impl WindowedCounter {
    /// A counter covering `width_ms * buckets` trailing milliseconds.
    /// Zero arguments are clamped to 1.
    pub fn new(width_ms: u64, buckets: usize) -> WindowedCounter {
        WindowedCounter {
            width_ms: width_ms.max(1),
            buckets: buckets.max(1),
            ring: Mutex::new(Vec::new()),
        }
    }

    /// Nominal window span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.width_ms * self.buckets as u64
    }

    /// Add `n` at an injected timestamp.
    pub fn add_at(&self, now_ms: u64, n: u64) {
        let epoch = now_ms / self.width_ms;
        let idx = (epoch % self.buckets as u64) as usize;
        let mut ring = lock(&self.ring);
        if ring.is_empty() {
            ring.resize(self.buckets, (u64::MAX, 0));
        }
        let Some(slot) = ring.get_mut(idx) else {
            return;
        };
        if slot.0 != epoch {
            *slot = (epoch, 0);
        }
        slot.1 = slot.1.saturating_add(n);
    }

    /// Window total and rate as seen from an injected timestamp. The
    /// returned [`WindowSummary`] carries `count == sum ==` the window
    /// total and no samples.
    pub fn summary_at(&self, now_ms: u64) -> WindowSummary {
        let now_epoch = now_ms / self.width_ms;
        let oldest_epoch = now_epoch.saturating_sub(self.buckets as u64 - 1);
        let mut total = 0u64;
        let mut oldest_live: Option<u64> = None;
        let ring = lock(&self.ring);
        for &(epoch, n) in ring.iter() {
            if epoch < oldest_epoch || epoch > now_epoch || n == 0 {
                continue;
            }
            oldest_live = Some(oldest_live.map_or(epoch, |e: u64| e.min(epoch)));
            total = total.saturating_add(n);
        }
        drop(ring);
        let window_ms = self.window_ms();
        let covered_ms = oldest_live.map_or(0, |epoch| {
            now_ms
                .saturating_sub(epoch * self.width_ms)
                .clamp(1, window_ms)
        });
        WindowSummary {
            window_ms,
            covered_ms,
            count: total,
            sum: total,
            min: None,
            max: None,
            retained: Vec::new(),
        }
    }
}

/// Recover from a poisoned mutex: buckets hold plain counters and
/// samples, valid regardless of a panicking holder.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn rotation_expires_old_buckets() {
        let clock = ManualClock::new();
        let h = WindowedHistogram::new(1_000, 3); // 3 s window
        h.record_at(clock.now_ms(), 10);
        clock.advance_ms(1_000);
        h.record_at(clock.now_ms(), 20);
        let s = h.summary_at(clock.now_ms());
        assert_eq!(s.count, 2);
        assert_eq!((s.min, s.max), (Some(10), Some(20)));
        assert_eq!(s.retained, vec![10, 20]);
        // 2.5 s later the first bucket has left the window.
        clock.advance_ms(2_500);
        let s = h.summary_at(clock.now_ms());
        assert_eq!(s.count, 1);
        assert_eq!(s.retained, vec![20]);
        // 10 s later everything has expired.
        clock.advance_ms(10_000);
        let s = h.summary_at(clock.now_ms());
        assert_eq!(s.count, 0);
        assert_eq!(s.covered_ms, 0);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn bucket_reuse_resets_contents() {
        let clock = ManualClock::new();
        let h = WindowedHistogram::new(100, 2); // ring of 2; slot reused every 200 ms
        h.record_at(clock.now_ms(), 5);
        clock.advance_ms(200); // same slot, new epoch
        h.record_at(clock.now_ms(), 7);
        let s = h.summary_at(clock.now_ms());
        assert_eq!(s.count, 1);
        assert_eq!(s.retained, vec![7]);
    }

    #[test]
    fn thinning_bounds_memory_and_keeps_exact_aggregates() {
        let h = WindowedHistogram::with_sample_cap(1_000_000, 4, 8);
        for v in 0..10_000u64 {
            h.record_at(0, v);
        }
        assert!(h.retained_len() <= 8, "retained {}", h.retained_len());
        let s = h.summary_at(0);
        assert_eq!(s.count, 10_000, "count stays exact under thinning");
        assert_eq!(s.sum, (0..10_000u64).sum::<u64>());
        assert_eq!((s.min, s.max), (Some(0), Some(9_999)));
        assert!(!s.retained.is_empty());
        assert!(s.quantile(0.5).is_some());
    }

    #[test]
    fn covered_ms_tracks_live_span() {
        let clock = ManualClock::new();
        clock.set_ms(10_000);
        let h = WindowedHistogram::new(1_000, 60);
        h.record_at(clock.now_ms(), 1);
        clock.advance_ms(2_500);
        h.record_at(clock.now_ms(), 2);
        let s = h.summary_at(clock.now_ms());
        // Oldest live bucket starts at 10 000 ms; now is 12 500 ms.
        assert_eq!(s.covered_ms, 2_500);
        assert_eq!(s.window_ms, 60_000);
    }

    #[test]
    fn windowed_counter_totals_and_rates() {
        let clock = ManualClock::new();
        let c = WindowedCounter::new(1_000, 10);
        c.add_at(clock.now_ms(), 3);
        clock.advance_ms(1_000);
        c.add_at(clock.now_ms(), 5);
        let s = c.summary_at(clock.now_ms());
        assert_eq!(s.count, 8);
        assert_eq!(s.covered_ms, 1_000);
        assert!((s.rate_per_sec() - 8.0).abs() < 1e-9);
        // Expiry: 20 s later nothing is live.
        clock.advance_ms(20_000);
        assert_eq!(c.summary_at(clock.now_ms()).count, 0);
        assert_eq!(c.summary_at(clock.now_ms()).rate_per_sec(), 0.0);
    }

    #[test]
    fn buckets_at_is_an_ordered_time_series() {
        let clock = ManualClock::new();
        let h = WindowedHistogram::new(500, 8);
        for step in 0..4u64 {
            for v in 0..=step {
                h.record_at(clock.now_ms(), v * 100);
            }
            clock.advance_ms(500);
        }
        let series = h.buckets_at(clock.now_ms());
        assert_eq!(series.len(), 4);
        let counts: Vec<u64> = series.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![1, 2, 3, 4]);
        assert!(series.windows(2).all(|w| w[0].start_ms < w[1].start_ms));
        assert_eq!(series[3].p50, Some(100));
    }

    #[test]
    fn zero_configs_are_clamped() {
        let h = WindowedHistogram::with_sample_cap(0, 0, 0);
        h.record_at(5, 42);
        let s = h.summary_at(5);
        assert_eq!(s.count, 1);
        assert_eq!(s.window_ms, 1);
        let c = WindowedCounter::new(0, 0);
        c.add_at(5, 2);
        assert_eq!(c.summary_at(5).count, 2);
    }
}
