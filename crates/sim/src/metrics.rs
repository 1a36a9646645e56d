//! Simulation output metrics: per-job latency records and hourly slot
//! utilization (the Fig. 7 fourth column signal).

use swim_trace::time::HOUR;
use swim_trace::{Dur, Timestamp};

/// Per-job outcome of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// Index in the replay plan.
    pub job: usize,
    /// When the job was submitted.
    pub submit: Timestamp,
    /// When its first task started (queueing delay endpoint).
    pub first_start: Timestamp,
    /// When its last task finished.
    pub finish: Timestamp,
}

impl JobOutcome {
    /// Time from submission to first task launch.
    pub fn queue_delay(&self) -> Dur {
        self.first_start.since(self.submit)
    }

    /// Total latency (submit → finish).
    pub fn latency(&self) -> Dur {
        self.finish.since(self.submit)
    }
}

/// Integrates slot occupancy over time into average-active-slots per hour.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    /// Accumulated slot-seconds per hour bucket.
    slot_seconds: Vec<f64>,
    last_time: u64,
    last_busy: u32,
}

impl UtilizationTracker {
    /// Fresh tracker starting at t = 0 with zero busy slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that occupancy changed to `busy` at time `now`. The interval
    /// since the previous change is credited at the previous occupancy.
    pub fn record(&mut self, now: Timestamp, busy: u32) {
        let now = now.secs();
        debug_assert!(now >= self.last_time, "time went backwards");
        let mut t = self.last_time;
        while t < now {
            let hour = t / HOUR;
            let hour_end = (hour + 1) * HOUR;
            let span = now.min(hour_end) - t;
            if self.slot_seconds.len() <= hour as usize {
                self.slot_seconds.resize(hour as usize + 1, 0.0);
            }
            self.slot_seconds[hour as usize] += span as f64 * self.last_busy as f64;
            t += span;
        }
        self.last_time = now;
        self.last_busy = busy;
    }

    /// Average active slots per hour (Fig. 7 col. 4). The final partial
    /// hour is averaged over its elapsed portion.
    pub fn hourly_average_slots(&self) -> Vec<f64> {
        self.slot_seconds
            .iter()
            .enumerate()
            .map(|(h, &ss)| {
                let hour_start = h as u64 * HOUR;
                let elapsed = if self.last_time >= hour_start + HOUR {
                    HOUR
                } else {
                    (self.last_time - hour_start).max(1)
                };
                ss / elapsed as f64
            })
            .collect()
    }

    /// Total slot-seconds integrated so far.
    pub fn total_slot_seconds(&self) -> f64 {
        self.slot_seconds.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_delays() {
        let o = JobOutcome {
            job: 0,
            submit: Timestamp::from_secs(100),
            first_start: Timestamp::from_secs(130),
            finish: Timestamp::from_secs(190),
        };
        assert_eq!(o.queue_delay(), Dur::from_secs(30));
        assert_eq!(o.latency(), Dur::from_secs(90));
    }

    #[test]
    fn utilization_integrates_constant_occupancy() {
        let mut u = UtilizationTracker::new();
        u.record(Timestamp::from_secs(0), 10);
        u.record(Timestamp::from_secs(2 * HOUR), 0);
        let avg = u.hourly_average_slots();
        assert_eq!(avg.len(), 2);
        assert!((avg[0] - 10.0).abs() < 1e-9);
        assert!((avg[1] - 10.0).abs() < 1e-9);
        assert!((u.total_slot_seconds() - 10.0 * 2.0 * HOUR as f64).abs() < 1e-6);
    }

    #[test]
    fn utilization_handles_mid_hour_changes() {
        let mut u = UtilizationTracker::new();
        u.record(Timestamp::from_secs(0), 0);
        u.record(Timestamp::from_secs(HOUR / 2), 4); // busy 4 for second half
        u.record(Timestamp::from_secs(HOUR), 0);
        let avg = u.hourly_average_slots();
        assert!((avg[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn partial_final_hour_averages_over_elapsed() {
        let mut u = UtilizationTracker::new();
        u.record(Timestamp::from_secs(0), 6);
        u.record(Timestamp::from_secs(HOUR / 4), 6); // no change, just advance
        let avg = u.hourly_average_slots();
        assert!((avg[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn spanning_many_hours_fills_all_buckets() {
        let mut u = UtilizationTracker::new();
        u.record(Timestamp::from_secs(0), 1);
        u.record(Timestamp::from_secs(5 * HOUR), 0);
        assert_eq!(u.hourly_average_slots().len(), 5);
    }
}
