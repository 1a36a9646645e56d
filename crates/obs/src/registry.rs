//! The process-wide registry and its plain-data [`Snapshot`].
//!
//! Instruments register themselves on first enabled touch (see
//! [`crate::metrics`]); spans aggregate here keyed by their `/`-joined
//! path. [`snapshot`] freezes everything into sorted, owned data that
//! renderers (swim-query `--profile`, `swim-catalog stats --metrics`,
//! the JSONL sink) can consume without holding any lock.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::{Counter, Gauge};

/// Aggregated statistics for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// The global registry: every registered instrument plus the span
/// aggregation map. One per process, behind [`snapshot`] / [`reset`].
#[derive(Default)]
pub(crate) struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    spans: BTreeMap<String, SpanStat>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

pub(crate) fn register_counter(counter: &'static Counter) {
    with_registry(|r| r.counters.push(counter));
}

pub(crate) fn register_gauge(gauge: &'static Gauge) {
    with_registry(|r| r.gauges.push(gauge));
}

pub(crate) fn record_span(path: &str, elapsed: Duration) {
    let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
    with_registry(|r| {
        let stat = r.spans.entry(path.to_owned()).or_default();
        if stat.count == 0 {
            stat.min_ns = ns;
            stat.max_ns = ns;
        } else {
            stat.min_ns = stat.min_ns.min(ns);
            stat.max_ns = stat.max_ns.max(ns);
        }
        stat.count += 1;
        stat.total_ns += ns;
    });
}

/// Zero every registered counter and gauge and clear span statistics.
/// Instruments stay registered; `--profile` calls this before executing
/// so the snapshot covers exactly one query.
pub fn reset() {
    with_registry(|r| {
        for c in &r.counters {
            c.reset();
        }
        for g in &r.gauges {
            g.reset();
        }
        r.spans.clear();
    });
}

/// Aggregated statistics for one span path, frozen into a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSample {
    /// `/`-joined span path, e.g. `"query.execute/store.decode_chunk"`.
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Sum of elapsed nanoseconds across closures.
    pub total_ns: u64,
    /// Fastest single closure, in nanoseconds.
    pub min_ns: u64,
    /// Slowest single closure, in nanoseconds.
    pub max_ns: u64,
}

/// A frozen, lock-free view of the registry: counters/gauges sorted by
/// name, spans sorted by path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Span statistics, sorted by path.
    pub spans: Vec<SpanSample>,
}

impl Snapshot {
    /// Value of the named counter, if it registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the named gauge, if it registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Statistics for the named span path, if it recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSample> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// What happened between `earlier` and `self`: the rate-computation
    /// primitive behind `swim-top`.
    ///
    /// * **Counters** and **span count/total** are differenced
    ///   (saturating, so a counter reset between snapshots reads as 0
    ///   rather than wrapping); instruments absent from `earlier`
    ///   contribute their full value.
    /// * **Gauges** are levels, not differentiable, so they carry the
    ///   later snapshot's values unchanged.
    ///
    /// Only instruments present in `self` appear in the delta, and
    /// span `min_ns`/`max_ns` keep the later snapshot's lifetime
    /// values.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| {
                let before = earlier.counter(name).unwrap_or(0);
                (name.clone(), value.saturating_sub(before))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let (count_before, total_before) = earlier
                    .span(&s.path)
                    .map_or((0, 0), |e| (e.count, e.total_ns));
                SpanSample {
                    path: s.path.clone(),
                    count: s.count.saturating_sub(count_before),
                    total_ns: s.total_ns.saturating_sub(total_before),
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                }
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            spans,
        }
    }
}

/// Freeze the registry into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    with_registry(|r| {
        let mut counters: Vec<(String, u64)> = r
            .counters
            .iter()
            .map(|c| (c.name().to_owned(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = r
            .gauges
            .iter()
            .map(|g| (g.name().to_owned(), g.get()))
            .collect();
        gauges.sort();
        let spans = r
            .spans
            .iter()
            .map(|(path, stat)| SpanSample {
                path: path.clone(),
                count: stat.count,
                total_ns: stat.total_ns,
                min_ns: stat.min_ns,
                max_ns: stat.max_ns,
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            spans,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::{set_enabled, ALL};

    #[test]
    fn delta_differences_counters_and_spans_only() {
        let earlier = Snapshot {
            counters: vec![("a".into(), 10), ("gone".into(), 99)],
            gauges: vec![("g".into(), 1)],
            spans: vec![SpanSample {
                path: "p".into(),
                count: 2,
                total_ns: 100,
                min_ns: 40,
                max_ns: 60,
            }],
        };
        let later = Snapshot {
            counters: vec![("a".into(), 25), ("new".into(), 7)],
            gauges: vec![("g".into(), 5)],
            spans: vec![SpanSample {
                path: "p".into(),
                count: 5,
                total_ns: 450,
                min_ns: 30,
                max_ns: 200,
            }],
        };
        let delta = later.delta(&earlier);
        assert_eq!(delta.counter("a"), Some(15));
        assert_eq!(delta.counter("new"), Some(7), "absent-before = full value");
        assert_eq!(delta.counter("gone"), None, "only later instruments appear");
        assert_eq!(delta.gauge("g"), Some(5), "gauges carry the later level");
        let span = delta.span("p").unwrap();
        assert_eq!((span.count, span.total_ns), (3, 350));
        assert_eq!((span.min_ns, span.max_ns), (30, 200));
        // A counter reset between snapshots saturates to 0, not wrap.
        let reset = earlier.delta(&later);
        assert_eq!(reset.counter("a"), Some(0));
    }

    static SNAP_COUNTER: Counter = Counter::new("test.registry.counter");
    static SNAP_GAUGE: Gauge = Gauge::new("test.registry.gauge");

    #[test]
    fn snapshot_freezes_sorted_data_and_reset_zeroes() {
        let _guard = test_support::serialize();
        set_enabled(ALL);
        SNAP_COUNTER.add(5);
        SNAP_GAUGE.set(11);
        record_span("test.registry.span", Duration::from_nanos(100));
        record_span("test.registry.span", Duration::from_nanos(300));
        set_enabled(0);

        let snap = snapshot();
        assert_eq!(snap.counter("test.registry.counter"), Some(5));
        assert_eq!(snap.gauge("test.registry.gauge"), Some(11));
        let span = snap.span("test.registry.span").unwrap();
        assert_eq!(span.count, 2);
        assert_eq!(span.total_ns, 400);
        assert_eq!(span.min_ns, 100);
        assert_eq!(span.max_ns, 300);
        assert!(snap.counters.windows(2).all(|w| w[0].0 <= w[1].0));

        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.registry.counter"), Some(0));
        assert_eq!(snap.gauge("test.registry.gauge"), Some(0));
        assert!(snap.span("test.registry.span").is_none());
    }
}
