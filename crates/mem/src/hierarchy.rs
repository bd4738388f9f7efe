//! The memory hierarchy of the paper's Figure 2: split L1 instruction and
//! data caches in front of one unified L2 and a fixed-latency main memory.
//!
//! The L1 data side is one of two models, picked by [`DcacheModelKind`]:
//! the set-associative tag array of the paper's machine, or an always-hit
//! cache, the data-side upper bound. Instruction fetches and data misses
//! share the L2, whichever model the data side is.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Which L1 data cache a machine has. Distinct kinds model distinct
/// machines: a [`DcacheModelKind::Perfect`] machine makes different
/// hit/miss decisions than a stock machine of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DcacheModelKind {
    /// The set-associative L1D tag array of the configured geometry. The
    /// default.
    #[default]
    Stock,
    /// An always-hit L1D at the configured hit latency: data accesses
    /// never reach the L2. The data-side upper-bound machine.
    Perfect,
}

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
    /// L1 data cache counters (a perfect L1D counts accesses, never
    /// misses).
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
}

/// Split L1 instruction and data caches, one unified L2 and main memory.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Dcache,
    l2: Cache,
    memory_latency: u64,
}

/// The L1 data side.
#[derive(Debug, Clone)]
enum Dcache {
    /// [`DcacheModelKind::Stock`]: a tag array.
    Tags(Cache),
    /// [`DcacheModelKind::Perfect`]: every access hits at `latency`.
    Perfect { latency: u64, stats: CacheStats },
}

impl MemoryHierarchy {
    /// Builds the hierarchy from per-level geometries: the L1D geometry's
    /// hit latency applies to either `l1d_model`, its shape only to the
    /// stock tag array.
    ///
    /// # Panics
    ///
    /// Panics if a tag-array geometry is invalid (see
    /// [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l1d_model: DcacheModelKind,
        l2: CacheConfig,
        memory_latency: u64,
    ) -> Self {
        let l1d = match l1d_model {
            DcacheModelKind::Stock => Dcache::Tags(Cache::new(l1d)),
            DcacheModelKind::Perfect => {
                Dcache::Perfect { latency: l1d.latency, stats: CacheStats::default() }
            }
        };
        MemoryHierarchy { l1i: Cache::new(l1i), l1d, l2: Cache::new(l2), memory_latency }
    }

    /// Fetches an instruction line; returns the access latency.
    pub fn inst_fetch(&mut self, addr: u64) -> MemAccess {
        let hit = self.l1i.access(addr);
        let mut latency = self.l1i.config().latency;
        if !hit {
            latency += self.l2_access(addr);
        }
        MemAccess { latency, l1_hit: hit }
    }

    /// Performs a data access (loads and stores alike allocate); returns
    /// the access latency.
    pub fn data_access(&mut self, addr: u64) -> MemAccess {
        let (hit, mut latency) = match &mut self.l1d {
            Dcache::Tags(cache) => (cache.access(addr), cache.config().latency),
            Dcache::Perfect { latency, stats } => {
                stats.accesses += 1;
                (true, *latency)
            }
        };
        if !hit {
            latency += self.l2_access(addr);
        }
        MemAccess { latency, l1_hit: hit }
    }

    /// An L1 miss: the L2's hit latency, plus main memory if the L2 misses
    /// too.
    fn l2_access(&mut self, addr: u64) -> u64 {
        let latency = self.l2.config().latency;
        if self.l2.access(addr) {
            latency
        } else {
            latency + self.memory_latency
        }
    }

    /// Snapshot of every level's statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: match &self.l1d {
                Dcache::Tags(cache) => cache.stats(),
                Dcache::Perfect { stats, .. } => *stats,
            },
            l2: self.l2.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro97(l1i: CacheConfig, l1d_model: DcacheModelKind) -> MemoryHierarchy {
        MemoryHierarchy::new(
            l1i,
            CacheConfig::micro97_l1d(),
            l1d_model,
            CacheConfig::micro97_l2(),
            50,
        )
    }

    fn stock() -> MemoryHierarchy {
        micro97(CacheConfig::micro97_l1i(), DcacheModelKind::Stock)
    }

    fn perfect() -> MemoryHierarchy {
        micro97(CacheConfig::micro97_l1i(), DcacheModelKind::Perfect)
    }

    #[test]
    fn cold_miss_pays_l2_and_memory() {
        let mut m = stock();
        let first = m.data_access(0x8000);
        assert!(!first.l1_hit);
        assert_eq!(first.latency, 1 + 8 + 50);
        let second = m.data_access(0x8000);
        assert!(second.l1_hit);
        assert_eq!(second.latency, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_costs_l1_plus_l2() {
        let mut m = stock();
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
        let mut m = stock();
        m.inst_fetch(0x100);
        assert_eq!(m.stats().l1i.accesses, 1);
        assert_eq!(m.stats().l1d.accesses, 0);
        m.data_access(0x100);
        assert_eq!(m.stats().l1d.accesses, 1);
    }

    #[test]
    fn small_icache_config_differs() {
        let m = micro97(CacheConfig::micro97_l1i_32k(), DcacheModelKind::Stock);
        assert_eq!(m.l1i.config().size_bytes, 32 * 1024);
        let Dcache::Tags(l1d) = &m.l1d else { panic!("the stock machine has an L1D tag array") };
        assert_eq!(l1d.config().size_bytes, 64 * 1024, "only the I-cache shrinks");
    }

    #[test]
    fn perfect_dcache_always_hits_and_counts() {
        let mut m = perfect();
        for addr in 0..100u64 {
            assert!(m.data_access(addr * 4096).l1_hit);
        }
        assert_eq!(m.stats().l1d.accesses, 100);
        assert_eq!(m.stats().l1d.misses, 0);
    }

    #[test]
    fn perfect_dcache_never_reaches_the_downstream_levels() {
        let mut m = perfect();
        for i in 0..100u64 {
            let access = m.data_access(i * 1024 * 1024);
            assert!(access.l1_hit);
            assert_eq!(access.latency, 1);
        }
        assert_eq!(m.stats().l1d.misses, 0);
        assert_eq!(m.stats().l2.accesses, 0, "data never touches the L2");
        // Instruction misses still use the shared L2.
        let fetch = m.inst_fetch(0x100);
        assert!(!fetch.l1_hit);
        assert_eq!(fetch.latency, 1 + 8 + 50);
        assert_eq!(m.stats().l2.accesses, 1);
    }
}
