//! Job schedulers: FIFO (Hadoop's default JobTracker order) and a
//! fair-scheduler approximation (round-robin over runnable jobs), the two
//! policies whose trade-off the paper's small-vs-large job dichotomy
//! (§6.2) makes interesting: under FIFO a single large job head-of-line
//! blocks the many small interactive jobs.
//!
//! The scheduler is a **runnable-with-demand index**: it tracks only the
//! jobs that can actually receive a freed slot right now — one queue for
//! jobs with pending map tasks, one for jobs whose reduces are unblocked
//! (all maps finished) and pending. Jobs whose tasks are all running are
//! *not* in either queue, so a dispatch round touches exactly the jobs it
//! grants slots to instead of scanning every runnable job per event (the
//! old engine's O(runnable-jobs × events) wall).

use std::collections::VecDeque;

/// Which scheduling policy the engine uses to pick the next job to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Serve runnable jobs strictly in submission order.
    Fifo,
    /// Round-robin one task grant at a time over runnable jobs
    /// (approximates the Hadoop fair scheduler's slot sharing).
    Fair,
}

/// The demand index: jobs currently able to accept map or reduce slots,
/// in policy grant order.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// Jobs with pending (ungranted) map tasks. Submission order for
    /// FIFO; round-robin rotated for Fair.
    map_demand: VecDeque<usize>,
    /// Jobs with pending reduce tasks whose maps have all finished.
    reduce_demand: VecDeque<usize>,
}

impl Scheduler {
    /// Empty scheduler of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler {
            kind,
            map_demand: VecDeque::new(),
            reduce_demand: VecDeque::new(),
        }
    }

    /// The policy.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// A job gained pending map demand (submission).
    pub fn enqueue_map(&mut self, job: usize) {
        Self::enqueue(self.kind, &mut self.map_demand, job);
    }

    /// A job's reduces became runnable (last map finished, or submission
    /// of a map-less job).
    pub fn enqueue_reduce(&mut self, job: usize) {
        Self::enqueue(self.kind, &mut self.reduce_demand, job);
    }

    /// FIFO keeps strict submission order (job indices are assigned in
    /// submission order, so ordered insertion restores it even when
    /// reduces unblock out of order); Fair appends — a newly demanding
    /// job joins the round-robin at the back.
    fn enqueue(kind: SchedulerKind, queue: &mut VecDeque<usize>, job: usize) {
        debug_assert!(!queue.contains(&job), "job {job} double-enqueued");
        match kind {
            SchedulerKind::Fifo => {
                let pos = queue.partition_point(|&j| j < job);
                queue.insert(pos, job);
            }
            SchedulerKind::Fair => queue.push_back(job),
        }
    }

    /// Job at position `i` of the map-demand queue.
    pub fn map_at(&self, i: usize) -> Option<usize> {
        self.map_demand.get(i).copied()
    }

    /// Job at position `i` of the reduce-demand queue.
    pub fn reduce_at(&self, i: usize) -> Option<usize> {
        self.reduce_demand.get(i).copied()
    }

    /// Jobs with pending map demand.
    pub fn map_len(&self) -> usize {
        self.map_demand.len()
    }

    /// Jobs with runnable pending reduce demand.
    pub fn reduce_len(&self) -> usize {
        self.reduce_demand.len()
    }

    /// Remove the job at position `i` of the map-demand queue (its last
    /// pending map task was just granted).
    pub fn remove_map_at(&mut self, i: usize) {
        self.map_demand.remove(i);
    }

    /// Remove the job at position `i` of the reduce-demand queue.
    pub fn remove_reduce_at(&mut self, i: usize) {
        self.reduce_demand.remove(i);
    }

    /// `true` iff no job can accept any slot.
    pub fn is_idle(&self) -> bool {
        self.map_demand.is_empty() && self.reduce_demand.is_empty()
    }

    /// Fair-share rotation: move each queue head to the back so the next
    /// dispatch round starts from a different job. No-op under FIFO.
    pub fn rotate(&mut self) {
        if self.kind == SchedulerKind::Fair {
            if let Some(head) = self.map_demand.pop_front() {
                self.map_demand.push_back(head);
            }
            if let Some(head) = self.reduce_demand.pop_front() {
                self.reduce_demand.push_back(head);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_submission_order() {
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        s.enqueue_map(0);
        s.enqueue_map(1);
        s.enqueue_map(2);
        s.rotate(); // no-op for FIFO
        let order: Vec<usize> = (0..s.map_len()).filter_map(|i| s.map_at(i)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn fifo_restores_order_when_reduces_unblock_out_of_order() {
        // Job 5's maps finish before job 2's: the reduce queue must still
        // serve job 2 first.
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        s.enqueue_reduce(5);
        s.enqueue_reduce(2);
        s.enqueue_reduce(9);
        let order: Vec<usize> = (0..s.reduce_len()).filter_map(|i| s.reduce_at(i)).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn fair_rotation_cycles_head() {
        let mut s = Scheduler::new(SchedulerKind::Fair);
        s.enqueue_map(0);
        s.enqueue_map(1);
        s.enqueue_map(2);
        s.rotate();
        assert_eq!(s.map_at(0), Some(1));
        s.rotate();
        assert_eq!(s.map_at(0), Some(2));
        s.rotate();
        assert_eq!(s.map_at(0), Some(0));
    }

    #[test]
    fn removal_by_position() {
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        for i in 0..4 {
            s.enqueue_map(i);
        }
        s.remove_map_at(1);
        let order: Vec<usize> = (0..s.map_len()).filter_map(|i| s.map_at(i)).collect();
        assert_eq!(order, vec![0, 2, 3]);
    }

    #[test]
    fn empty_scheduler_is_idle() {
        let s = Scheduler::new(SchedulerKind::Fair);
        assert!(s.is_idle());
        assert_eq!(s.map_len(), 0);
        assert_eq!(s.reduce_len(), 0);
        assert_eq!(s.map_at(0), None);
    }

    #[test]
    fn map_and_reduce_demand_are_independent() {
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        s.enqueue_map(0);
        s.enqueue_reduce(1);
        assert_eq!(s.map_len(), 1);
        assert_eq!(s.reduce_len(), 1);
        s.remove_map_at(0);
        assert!(s.map_at(0).is_none());
        assert_eq!(s.reduce_at(0), Some(1));
    }
}
