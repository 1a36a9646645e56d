//! Hierarchical timed spans.
//!
//! A span measures one timed region of code. Spans nest per thread: a
//! span opened while another is active records under the joined path
//! (`"catalog.compact/store.decode_chunk"`), which is how decode time
//! shows up attributed to the operation that caused it. Aggregated
//! statistics per path (count / total / min / max) land in the
//! process-wide registry ([`crate::registry`]).
//!
//! [`timed`] is the workspace's one clock path: it always measures (and
//! returns) the wall-clock duration, and *additionally* records a span
//! when the [`crate::SPANS`] bit is on. Benches use it instead
//! of ad-hoc `Instant::now()` pairs.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::registry;
use crate::{enabled, SPANS};

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Open a timed span. The returned guard records the elapsed time under
/// the thread's current span path when dropped. When spans are disabled
/// this is a no-op: the guard is inert and nothing is allocated.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled(SPANS) {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(open(name)),
    }
}

/// Run `f`, returning its result and the measured wall-clock duration.
/// Also records a `name` span when spans are enabled. This is the
/// single timing path shared by instrumentation and benches.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let recording = enabled(SPANS);
    let path = if recording { Some(push(name)) } else { None };
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if let Some(path) = path {
        pop();
        registry::record_span(&path, elapsed);
    }
    (out, elapsed)
}

struct ActiveSpan {
    /// Full `/`-joined path, captured at open time.
    path: String,
    start: Instant,
}

fn push(name: &'static str) -> String {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    })
}

fn pop() {
    STACK.with(|stack| {
        stack.borrow_mut().pop();
    });
}

fn open(name: &'static str) -> ActiveSpan {
    ActiveSpan {
        path: push(name),
        start: Instant::now(),
    }
}

/// RAII guard returned by [`span`]; records on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed = active.start.elapsed();
            pop();
            registry::record_span(&active.path, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::{set_enabled, snapshot, ALL};

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = test_support::serialize();
        set_enabled(0);
        {
            let _s = span("test.span.disabled_outer");
            let _t = span("test.span.disabled_inner");
        }
        let snap = snapshot();
        assert!(snap
            .spans
            .iter()
            .all(|s| !s.path.contains("test.span.disabled")));
    }

    #[test]
    fn nested_spans_record_joined_paths() {
        let _guard = test_support::serialize();
        set_enabled(ALL);
        {
            let _outer = span("test.span.outer");
            let _inner = span("test.span.inner");
        }
        let ((), elapsed) = timed("test.span.timed", || std::thread::sleep(Duration::ZERO));
        set_enabled(0);

        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"test.span.outer"));
        assert!(paths.contains(&"test.span.outer/test.span.inner"));
        assert!(paths.contains(&"test.span.timed"));
        let outer = snap.span("test.span.outer").unwrap();
        assert!(outer.count >= 1);
        assert!(outer.total_ns >= outer.min_ns);
        assert!(elapsed >= Duration::ZERO);
        registry::reset();
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        let _guard = test_support::serialize();
        set_enabled(0);
        let (value, elapsed) = timed("test.span.timed_disabled", || 7);
        assert_eq!(value, 7);
        assert!(elapsed >= Duration::ZERO);
        let snap = snapshot();
        assert!(snap.span("test.span.timed_disabled").is_none());
    }
}
