//! Cluster model: nodes exposing map and reduce slots.
//!
//! Hadoop 1.x (the system the traces come from) statically partitions
//! each TaskTracker into map slots and reduce slots; utilization in
//! Fig. 7 is "average active slots". The simulator models exactly that.

/// Static cluster description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: u32,
    /// Map slots per node (Hadoop 1.x default: 2).
    pub map_slots_per_node: u32,
    /// Reduce slots per node (Hadoop 1.x default: 2).
    pub reduce_slots_per_node: u32,
}

impl ClusterConfig {
    /// A cluster with the Hadoop 1.x default slot counts.
    pub fn with_nodes(nodes: u32) -> Self {
        ClusterConfig {
            nodes,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
        }
    }

    /// Total map slots.
    pub fn map_slots(&self) -> u32 {
        self.nodes * self.map_slots_per_node
    }

    /// Total reduce slots.
    pub fn reduce_slots(&self) -> u32 {
        self.nodes * self.reduce_slots_per_node
    }

    /// Total slots of both kinds.
    pub fn total_slots(&self) -> u32 {
        self.map_slots() + self.reduce_slots()
    }
}

/// Mutable slot occupancy during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPool {
    /// Free map slots.
    pub free_map: u32,
    /// Free reduce slots.
    pub free_reduce: u32,
    config: ClusterConfig,
}

impl SlotPool {
    /// All slots free.
    pub fn new(config: ClusterConfig) -> Self {
        SlotPool {
            free_map: config.map_slots(),
            free_reduce: config.reduce_slots(),
            config,
        }
    }

    /// Occupied map slots.
    pub fn busy_map(&self) -> u32 {
        self.config.map_slots() - self.free_map
    }

    /// Occupied reduce slots.
    pub fn busy_reduce(&self) -> u32 {
        self.config.reduce_slots() - self.free_reduce
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

    /// Return one map slot.
    pub fn release_map(&mut self) {
        self.release_map_n(1);
    }

    /// Return one reduce slot.
    pub fn release_reduce(&mut self) {
        self.release_reduce_n(1);
    }

    /// Return `n` map slots at once (a finished wave).
    pub fn release_map_n(&mut self, n: u32) {
        assert!(
            self.free_map + n <= self.config.map_slots(),
            "releasing more map slots than exist"
        );
        self.free_map += n;
    }

    /// Return `n` reduce slots at once (a finished wave).
    pub fn release_reduce_n(&mut self, n: u32) {
        assert!(
            self.free_reduce + n <= self.config.reduce_slots(),
            "releasing more reduce slots than exist"
        );
        self.free_reduce += n;
    }

    /// The static configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_totals() {
        let c = ClusterConfig::with_nodes(100);
        assert_eq!(c.map_slots(), 200);
        assert_eq!(c.reduce_slots(), 200);
        assert_eq!(c.total_slots(), 400);
    }

    #[test]
    fn take_grants_up_to_available() {
        let mut p = SlotPool::new(ClusterConfig::with_nodes(1)); // 2+2 slots
        assert_eq!(p.take_map(5), 2);
        assert_eq!(p.take_map(1), 0);
        assert_eq!(p.busy_map(), 2);
        assert_eq!(p.busy_total(), 2);
    }

    #[test]
    fn release_restores_capacity() {
        let mut p = SlotPool::new(ClusterConfig::with_nodes(1));
        p.take_reduce(2);
        p.release_reduce();
        assert_eq!(p.free_reduce, 1);
        assert_eq!(p.busy_reduce(), 1);
    }

    #[test]
    #[should_panic(expected = "releasing more map slots")]
    fn over_release_panics() {
        let mut p = SlotPool::new(ClusterConfig::with_nodes(1));
        p.release_map();
    }

    #[test]
    fn wave_release_returns_many_at_once() {
        let mut p = SlotPool::new(ClusterConfig::with_nodes(2)); // 4+4 slots
        assert_eq!(p.take_map(4), 4);
        p.release_map_n(3);
        assert_eq!(p.free_map, 3);
        assert_eq!(p.busy_map(), 1);
    }

    #[test]
    #[should_panic(expected = "releasing more reduce slots")]
    fn wave_over_release_panics() {
        let mut p = SlotPool::new(ClusterConfig::with_nodes(1));
        p.take_reduce(1);
        p.release_reduce_n(2);
    }

    #[test]
    fn custom_slot_ratios() {
        let c = ClusterConfig {
            nodes: 10,
            map_slots_per_node: 6,
            reduce_slots_per_node: 2,
        };
        assert_eq!(c.map_slots(), 60);
        assert_eq!(c.reduce_slots(), 20);
    }
}
