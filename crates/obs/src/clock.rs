//! The workspace clock: monotonic milliseconds/microseconds since the
//! first read, plus (in test builds) a `ManualClock` for deterministic
//! tests.
//!
//! `swim-obs` is the only crate allowed to read `Instant`/`SystemTime`
//! (enforced by `swim-lint`, rule `clock`), so every layer that needs a
//! timestamp — the server's access log, windowed-metric rotation,
//! uptime reporting — goes through this module. The epoch is process
//! local (first call), which is exactly what windowed metrics want:
//! bucket rotation only ever compares durations, never wall-clock
//! dates.
//!
//! Time-*driven* code (window rotation, rate computation) should not
//! call [`now_ms`] directly in its core: the windowed types in
//! [`crate::window`] take explicit `now_ms` arguments (`record_at`,
//! `summary_at`), so tests inject a `ManualClock` — or plain
//! integers — and rotation becomes deterministic. The argument-free
//! convenience methods feed the process clock in.

#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic microseconds since the process's first clock read.
///
/// Saturates at `u64::MAX` (584 thousand years of uptime).
pub fn now_us() -> u64 {
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Monotonic milliseconds since the process's first clock read.
pub fn now_ms() -> u64 {
    now_us() / 1000
}

/// A hand-cranked clock for deterministic tests: starts at 0 ms and
/// only moves when [`ManualClock::advance_ms`] is called. Pass its
/// [`ManualClock::now_ms`] value to the `_at` methods of the windowed
/// types to drive bucket rotation without sleeping.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct ManualClock {
    ms: AtomicU64,
}

#[cfg(test)]
impl ManualClock {
    /// A clock at 0 ms.
    pub const fn new() -> ManualClock {
        ManualClock {
            ms: AtomicU64::new(0),
        }
    }

    /// Current reading, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::Relaxed)
    }

    /// Move the clock forward by `ms` milliseconds and return the new
    /// reading.
    pub fn advance_ms(&self, ms: u64) -> u64 {
        self.ms.fetch_add(ms, Ordering::Relaxed) + ms
    }

    /// Set the clock to an absolute reading.
    pub fn set_ms(&self, ms: u64) {
        self.ms.store(ms, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        assert!(now_ms() <= now_us());
    }

    #[test]
    fn manual_clock_moves_only_when_cranked() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ms(), 0);
        assert_eq!(clock.advance_ms(250), 250);
        assert_eq!(clock.now_ms(), 250);
        clock.set_ms(10);
        assert_eq!(clock.now_ms(), 10);
    }
}
