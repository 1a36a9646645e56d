//! The discrete-event core: a time-ordered event queue with deterministic
//! tie-breaking.
//!
//! The engine is *wave-scheduled*: when a dispatch round grants a job N
//! slots whose tasks share one duration, the grant is recorded as a
//! single [`Event::WaveFinish`] carrying the task count. The heap
//! therefore holds one event per **wave**, not per task — the event
//! count for a job with a million tasks on a 400-slot cluster is a few
//! thousand instead of a million.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use swim_trace::Timestamp;

/// Events the simulator processes, ordered by time then by kind priority
/// (completions before submissions at the same instant, so freed slots
/// are visible to newly submitted jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A wave of `count` same-duration tasks of one job finishes,
    /// returning `count` slots at once.
    WaveFinish {
        /// Job the wave belongs to.
        job: usize,
        /// `true` for map tasks, `false` for reduce tasks.
        is_map: bool,
        /// Number of tasks (slots) in the wave.
        count: u32,
    },
    /// A job is submitted to the scheduler.
    JobSubmit {
        /// Index into the replay plan.
        job: usize,
    },
}

impl Event {
    /// Priority within one instant: lower runs first.
    fn priority(&self) -> u8 {
        match self {
            Event::WaveFinish { .. } => 0,
            Event::JobSubmit { .. } => 1,
        }
    }

    /// Stable per-kind key for deterministic ordering of simultaneous
    /// same-kind events.
    fn key(&self) -> (u8, usize, u32) {
        match self {
            Event::WaveFinish { job, is_map, count } => (u8::from(!*is_map), *job, *count),
            Event::JobSubmit { job } => (0, *job, 0),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEvent {
    at: Timestamp,
    seq: u64,
    event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.event.priority().cmp(&self.event.priority()))
            .then_with(|| other.event.key().cmp(&self.event.key()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic, time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at time `at`.
    pub fn push(&mut self, at: Timestamp, event: Event) {
        self.seq += 1;
        self.heap.push(QueuedEvent {
            at,
            seq: self.seq,
            event,
        });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Timestamp, Event)> {
        self.heap.pop().map(|q| (q.at, q.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(job: usize, is_map: bool, count: u32) -> Event {
        Event::WaveFinish { job, is_map, count }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_secs(30), Event::JobSubmit { job: 2 });
        q.push(Timestamp::from_secs(10), Event::JobSubmit { job: 0 });
        q.push(Timestamp::from_secs(20), Event::JobSubmit { job: 1 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.secs())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn finishes_before_submissions_at_same_instant() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(5);
        q.push(t, Event::JobSubmit { job: 1 });
        q.push(t, wave(0, true, 3));
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::WaveFinish { .. }));
    }

    #[test]
    fn same_kind_ties_break_by_job_then_insertion() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        q.push(t, Event::JobSubmit { job: 5 });
        q.push(t, Event::JobSubmit { job: 3 });
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, Event::JobSubmit { job: 3 });
    }

    #[test]
    fn map_waves_finish_before_reduce_waves() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        q.push(t, wave(0, false, 1));
        q.push(t, wave(0, true, 1));
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, wave(0, true, 1));
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..100 {
                q.push(
                    Timestamp::from_secs(i % 10),
                    Event::JobSubmit {
                        job: (i * 7 % 13) as usize,
                    },
                );
            }
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
