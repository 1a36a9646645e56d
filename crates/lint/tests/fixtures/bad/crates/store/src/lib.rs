//! Violates every file-level rule at least once. Never compiled — this
//! file exists only to be scanned by swim-lint's fixture tests.

use std::time::Instant;
use swim_catalog::not_a_declared_dependency;

pub fn naughty(xs: &[u64]) -> u64 {
    let t = Instant::now();
    let head = xs.first().copied().unwrap();
    // lint: allow(panic)
    let tail = xs[0];
    let counter = std::sync::atomic::AtomicU64::new(head);
    counter.fetch_add(tail, std::sync::atomic::Ordering::Relaxed);
    let _ = std::env::var("SWIM_ROGUE");
    not_a_declared_dependency();
    t.elapsed().as_nanos() as u64
}

/// Named only by the tests below, so the surface rule fires on it.
pub fn only_tests_call_this() -> u64 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tests_call_this(), 7);
    }
}
