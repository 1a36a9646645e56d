//! Cluster model: nodes exposing map and reduce slots.
//!
//! Hadoop 1.x (the system the traces come from) statically partitions
//! each TaskTracker into map slots and reduce slots; utilization in
//! Fig. 7 is "average active slots". The simulator models exactly that.

/// Map slots, and reduce slots, per node (the Hadoop 1.x default).
pub const SLOTS_PER_NODE: u32 = 2;

/// Mutable slot occupancy during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPool {
    /// Free map slots.
    pub free_map: u32,
    /// Free reduce slots.
    pub free_reduce: u32,
    /// Map slots, and reduce slots, in the cluster.
    slots: u32,
}

impl SlotPool {
    /// All slots of a `nodes`-node cluster free.
    pub fn new(nodes: u32) -> Self {
        let slots = nodes * SLOTS_PER_NODE;
        SlotPool {
            free_map: slots,
            free_reduce: slots,
            slots,
        }
    }

    /// Occupied map slots.
    pub fn busy_map(&self) -> u32 {
        self.slots - self.free_map
    }

    /// Occupied reduce slots.
    pub fn busy_reduce(&self) -> u32 {
        self.slots - self.free_reduce
    }

    /// Total occupied slots.
    pub fn busy_total(&self) -> u32 {
        self.busy_map() + self.busy_reduce()
    }

    /// Take up to `want` map slots; returns how many were granted.
    pub fn take_map(&mut self, want: u32) -> u32 {
        let granted = want.min(self.free_map);
        self.free_map -= granted;
        granted
    }

    /// Take up to `want` reduce slots; returns how many were granted.
    pub fn take_reduce(&mut self, want: u32) -> u32 {
        let granted = want.min(self.free_reduce);
        self.free_reduce -= granted;
        granted
    }

    /// Return `n` map slots at once (a finished wave).
    pub fn release_map_n(&mut self, n: u32) {
        assert!(
            self.free_map + n <= self.slots,
            "releasing more map slots than exist"
        );
        self.free_map += n;
    }

    /// Return `n` reduce slots at once (a finished wave).
    pub fn release_reduce_n(&mut self, n: u32) {
        assert!(
            self.free_reduce + n <= self.slots,
            "releasing more reduce slots than exist"
        );
        self.free_reduce += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_totals() {
        let p = SlotPool::new(100);
        assert_eq!((p.free_map, p.free_reduce), (200, 200));
    }

    #[test]
    fn take_grants_up_to_available() {
        let mut p = SlotPool::new(1); // 2+2 slots
        assert_eq!(p.take_map(5), 2);
        assert_eq!(p.take_map(1), 0);
        assert_eq!(p.busy_map(), 2);
        assert_eq!(p.busy_total(), 2);
    }

    #[test]
    fn release_restores_capacity() {
        let mut p = SlotPool::new(1);
        p.take_reduce(2);
        p.release_reduce_n(1);
        assert_eq!(p.free_reduce, 1);
        assert_eq!(p.busy_reduce(), 1);
    }

    #[test]
    #[should_panic(expected = "releasing more map slots")]
    fn over_release_panics() {
        let mut p = SlotPool::new(1);
        p.release_map_n(1);
    }

    #[test]
    fn wave_release_returns_many_at_once() {
        let mut p = SlotPool::new(2); // 4+4 slots
        assert_eq!(p.take_map(4), 4);
        p.release_map_n(3);
        assert_eq!(p.free_map, 3);
        assert_eq!(p.busy_map(), 1);
    }

    #[test]
    #[should_panic(expected = "releasing more reduce slots")]
    fn wave_over_release_panics() {
        let mut p = SlotPool::new(1);
        p.take_reduce(1);
        p.release_reduce_n(2);
    }
}
