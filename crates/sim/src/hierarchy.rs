//! The memory hierarchy of the paper's Figure 2: split L1 instruction and
//! data caches in front of one unified L2 and a fixed-latency main memory.
//! Instruction fetches and data misses share the L2.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// The outcome of a memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Total latency in cycles, including every level traversed.
    pub latency: u64,
    /// Whether the access hit in the first-level cache.
    pub l1_hit: bool,
}

/// Per-level statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
}

/// Split L1 instruction and data caches, one unified L2 and main memory,
/// built from a machine's configuration by [`crate::SimConfig::memory`].
///
/// # Example
///
/// ```
/// use dvi_sim::{CacheConfig, SimConfig};
///
/// let mut mem = SimConfig::micro97().memory();
/// let first = mem.data_access(0x1000);
/// let second = mem.data_access(0x1000);
/// assert!(first.latency > second.latency, "the second access hits in the L1");
/// assert_eq!(second.latency, CacheConfig::micro97_l1d().latency);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    memory_latency: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from per-level geometries.
    ///
    /// # Panics
    ///
    /// Panics if a geometry is invalid (see [`CacheConfig::num_sets`]).
    pub(crate) fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        memory_latency: u64,
    ) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            memory_latency,
        }
    }

    /// Fetches an instruction line; returns the access latency.
    pub fn inst_fetch(&mut self, addr: u64) -> MemAccess {
        Self::access(&mut self.l1i, &mut self.l2, self.memory_latency, addr)
    }

    /// Performs a data access (loads and stores alike allocate); returns
    /// the access latency.
    pub fn data_access(&mut self, addr: u64) -> MemAccess {
        Self::access(&mut self.l1d, &mut self.l2, self.memory_latency, addr)
    }

    /// One access through an L1: its hit latency, plus the L2's on a miss,
    /// plus main memory if the L2 misses too.
    fn access(l1: &mut Cache, l2: &mut Cache, memory_latency: u64, addr: u64) -> MemAccess {
        let hit = l1.access(addr);
        let mut latency = l1.config().latency;
        if !hit {
            latency += l2.config().latency;
            if !l2.access(addr) {
                latency += memory_latency;
            }
        }
        MemAccess { latency, l1_hit: hit }
    }

    /// Snapshot of every level's statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats { l1i: self.l1i.stats(), l1d: self.l1d.stats(), l2: self.l2.stats() }
    }
}

#[cfg(test)]
mod tests {
    use crate::SimConfig;

    #[test]
    fn cold_miss_pays_l2_and_memory() {
        let mut m = SimConfig::micro97().memory();
        let first = m.data_access(0x8000);
        assert!(!first.l1_hit);
        assert_eq!(first.latency, 1 + 8 + 50);
        let second = m.data_access(0x8000);
        assert!(second.l1_hit);
        assert_eq!(second.latency, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_costs_l1_plus_l2() {
        let mut m = SimConfig::micro97().memory();
        m.data_access(0x8000);
        // Evict line 0x8000 from the 64KB 4-way L1 by touching 5 lines that
        // map to the same set (stride = 16KB way size).
        for i in 1..=5u64 {
            m.data_access(0x8000 + i * 16 * 1024);
        }
        let back = m.data_access(0x8000);
        assert!(!back.l1_hit);
        assert_eq!(back.latency, 1 + 8, "should hit in the 512KB L2");
    }

    #[test]
    fn instruction_and_data_paths_are_split() {
        let mut m = SimConfig::micro97().memory();
        m.inst_fetch(0x100);
        assert_eq!(m.stats().l1i.accesses, 1);
        assert_eq!(m.stats().l1d.accesses, 0);
        m.data_access(0x100);
        assert_eq!(m.stats().l1d.accesses, 1);
    }

    #[test]
    fn small_icache_config_differs() {
        let m = SimConfig::micro97_small_icache().memory();
        assert_eq!(m.l1i.config().size_bytes, 32 * 1024);
        assert_eq!(m.l1d.config().size_bytes, 64 * 1024, "only the I-cache shrinks");
    }
}
