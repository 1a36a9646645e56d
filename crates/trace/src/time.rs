//! Time newtypes: [`Timestamp`] (seconds since trace epoch) and [`Dur`]
//! (a span of seconds). Hour-granularity bucketing helpers support the
//! paper's hourly time-series analysis (§5).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in one minute.
pub const MINUTE: u64 = 60;
/// Seconds in one hour.
pub const HOUR: u64 = 3_600;
/// Seconds in one day.
pub const DAY: u64 = 86_400;
/// Seconds in one week.
pub const WEEK: u64 = 7 * DAY;

/// A point in time, in whole seconds since the trace epoch (trace start).
///
/// Traces are self-relative: the first job of a freshly generated trace
/// submits at or shortly after `Timestamp::ZERO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from seconds since epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Construct from hours since epoch.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        Timestamp(hours * HOUR)
    }

    /// Seconds since epoch.
    #[inline]
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Index of the hour-long bucket containing this instant (bucket 0 is
    /// `[0, 3600)`). This is the granularity of all §5 time series.
    #[inline]
    pub const fn hour_bucket(self) -> u64 {
        self.0 / HOUR
    }

    /// Second-of-day in `[0, 86400)`.
    #[cfg(test)]
    pub(crate) const fn second_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// Elapsed time since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: Timestamp) -> Dur {
        Dur::from_secs(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Dur> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Dur) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Dur> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: Dur) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Dur(self.0))
    }
}

/// A span of time in whole seconds.
///
/// Doubles as the unit for *task-time* (slot-seconds): a job with two map
/// tasks of 10 s each has `map_task_time = Dur::from_secs(20)`, exactly the
/// paper's Table 2 convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Dur(secs)
    }

    /// Construct from minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        Dur(mins * MINUTE)
    }

    /// Construct from hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        Dur(hours * HOUR)
    }

    /// Construct from days.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        Dur(days * DAY)
    }

    /// Construct from a floating-point number of seconds, clamping
    /// negatives/NaN to zero.
    #[inline]
    pub fn from_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            Dur(0)
        } else if secs >= u64::MAX as f64 {
            Dur(u64::MAX)
        } else {
            Dur(crate::size::round_in_range(secs))
        }
    }

    /// Whole seconds.
    #[inline]
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Whole hours (truncating).
    #[inline]
    pub const fn hours(self) -> u64 {
        self.0 / HOUR
    }

    /// Task-hours as a float (Fig. 7 third column is task-hours per hour).
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// `true` iff zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative factor (scale-down of durations).
    #[inline]
    pub fn scale(self, factor: f64) -> Dur {
        Dur::from_f64(self.0 as f64 * factor)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Dur {
    /// Renders in the paper's style: `39 sec`, `4 min`, `2 hrs 30 min`, `3 days`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s < 2 * MINUTE {
            write!(f, "{s} sec")
        } else if s < 2 * HOUR {
            write!(f, "{} min", s / MINUTE)
        } else if s < 2 * DAY {
            let h = s / HOUR;
            let m = (s % HOUR) / MINUTE;
            if m == 0 {
                write!(f, "{h} hrs")
            } else {
                write!(f, "{h} hrs {m} min")
            }
        } else {
            write!(f, "{} days", s / DAY)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_bucketing() {
        assert_eq!(Timestamp::from_secs(0).hour_bucket(), 0);
        assert_eq!(Timestamp::from_secs(3599).hour_bucket(), 0);
        assert_eq!(Timestamp::from_secs(3600).hour_bucket(), 1);
    }

    #[test]
    fn second_of_day_wraps() {
        assert_eq!(Timestamp::from_secs(DAY + 5).second_of_day(), 5);
    }

    #[test]
    fn since_saturates() {
        let a = Timestamp::from_secs(10);
        let b = Timestamp::from_secs(30);
        assert_eq!(b.since(a), Dur::from_secs(20));
        assert_eq!(a.since(b), Dur::ZERO);
    }

    #[test]
    fn dur_display_matches_paper_style() {
        assert_eq!(Dur::from_secs(39).to_string(), "39 sec");
        assert_eq!(Dur::from_mins(4).to_string(), "4 min");
        assert_eq!(
            Dur::from_secs(2 * HOUR + 30 * MINUTE).to_string(),
            "2 hrs 30 min"
        );
        assert_eq!(Dur::from_days(3).to_string(), "3 days");
        assert_eq!(Dur::from_hours(8).to_string(), "8 hrs");
    }

    #[test]
    fn from_f64_clamps() {
        assert_eq!(Dur::from_f64(-3.0), Dur::ZERO);
        assert_eq!(Dur::from_f64(2.6), Dur::from_secs(3));
        assert_eq!(Dur::from_f64(f64::NAN), Dur::ZERO);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(100) + Dur::from_secs(20);
        assert_eq!(t.secs(), 120);
        assert_eq!((t - Dur::from_secs(200)).secs(), 0);
    }

    #[test]
    fn task_hours_conversion() {
        assert!((Dur::from_hours(3).as_hours_f64() - 3.0).abs() < 1e-12);
    }
}
