//! The memory hierarchy as a composition of cache levels.
//!
//! A hierarchy is split L1s in front of a chain of unified lower levels
//! with a fixed-latency main memory at the end:
//!
//! * the **L1 instruction side** is a concrete [`CacheLevel`];
//! * the **L1 data side** is a swappable [`DataMemModel`] — a real
//!   [`CacheLevel`] tag array by default, replaceable per machine (see
//!   [`MemoryHierarchy::with_dcache_model`]);
//! * any number of **unified downstream levels** ([`CacheLevel`]s shared
//!   by instruction and data misses), the paper's machine having exactly
//!   one (the 512KB L2).
//!
//! The per-access flow is unchanged from the monolithic two-level model it
//! replaces — and bit-identical for the classic split-L1 + single-L2
//! shape, which every existing configuration uses.

use crate::cache::{AccessKind, CacheConfig, CacheStats};
use crate::level::{CacheLevel, DataMemModel};

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
    /// L1 data cache counters (whatever [`DataMemModel`] backs it).
    pub l1d: CacheStats,
    /// First unified downstream level (the classic L2); zero when the
    /// hierarchy has no downstream level.
    pub l2: CacheStats,
}

/// A composable hierarchy: split L1 instruction/data front ends backed by
/// a chain of unified levels and a fixed-latency main memory. The default
/// composition matches the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: CacheLevel,
    dcache: DcacheSlot,
    /// Unified levels behind both L1s, nearest first (Figure 2: one L2).
    downstream: Vec<CacheLevel>,
    memory_latency: u64,
}

/// The L1-data-side slot: the stock tag array stays statically dispatched
/// (data accesses are the hottest path through the hierarchy), while any
/// substitute [`DataMemModel`] rides behind one indirection.
#[derive(Debug, Clone)]
enum DcacheSlot {
    /// The default: a real tag array of the configured geometry.
    Tags(CacheLevel),
    /// A substituted model ([`MemoryHierarchy::with_dcache_model`]).
    Custom(Box<dyn DataMemModel>),
}

impl DcacheSlot {
    #[inline]
    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        match self {
            DcacheSlot::Tags(level) => {
                let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                level.lookup(addr, kind)
            }
            DcacheSlot::Custom(model) => model.access(addr, is_write),
        }
    }

    #[inline]
    fn latency(&self) -> u64 {
        match self {
            DcacheSlot::Tags(level) => level.latency(),
            DcacheSlot::Custom(model) => model.latency(),
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            DcacheSlot::Tags(level) => level.stats(),
            DcacheSlot::Custom(model) => model.stats(),
        }
    }

    fn reset(&mut self) {
        match self {
            DcacheSlot::Tags(level) => level.reset(),
            DcacheSlot::Custom(model) => model.reset(),
        }
    }
}

impl MemoryHierarchy {
    /// The configuration of Figure 2 (64KB L1s, 512KB L2, 50-cycle memory).
    #[must_use]
    pub fn micro97() -> Self {
        MemoryHierarchy::new(
            CacheConfig::micro97_l1i(),
            CacheConfig::micro97_l1d(),
            CacheConfig::micro97_l2(),
            50,
        )
    }

    /// Figure 13's alternate machine with a 32KB instruction cache.
    #[must_use]
    pub fn micro97_small_icache() -> Self {
        MemoryHierarchy::new(
            CacheConfig::micro97_l1i_32k(),
            CacheConfig::micro97_l1d(),
            CacheConfig::micro97_l2(),
            50,
        )
    }

    /// Builds the classic two-level shape from explicit per-level
    /// configurations: split L1s, one unified L2, main memory.
    #[must_use]
    pub fn new(l1i: CacheConfig, l1d: CacheConfig, l2: CacheConfig, memory_latency: u64) -> Self {
        MemoryHierarchy {
            l1i: CacheLevel::new(l1i),
            dcache: DcacheSlot::Tags(CacheLevel::new(l1d)),
            downstream: vec![CacheLevel::new(l2)],
            memory_latency,
        }
    }

    /// Builds an arbitrary composition: an L1I geometry, any L1-data-side
    /// model and any chain of unified downstream levels (nearest first;
    /// empty means L1 misses go straight to memory).
    #[must_use]
    pub fn compose(
        l1i: CacheConfig,
        dcache: Box<dyn DataMemModel>,
        downstream: Vec<CacheLevel>,
        memory_latency: u64,
    ) -> Self {
        MemoryHierarchy {
            l1i: CacheLevel::new(l1i),
            dcache: DcacheSlot::Custom(dcache),
            downstream,
            memory_latency,
        }
    }

    /// Replaces the L1-data-side model, keeping the instruction side and
    /// the downstream chain. Substituting a model with identical hit/miss
    /// decisions (e.g. a fresh [`CacheLevel`] of the same geometry) leaves
    /// the modelled machine bit-identical; any other substitute models a
    /// different machine on purpose.
    #[must_use]
    pub fn with_dcache_model(mut self, dcache: Box<dyn DataMemModel>) -> Self {
        self.dcache = DcacheSlot::Custom(dcache);
        self
    }

    /// Fetches an instruction line; returns the access latency.
    pub fn inst_fetch(&mut self, addr: u64) -> MemAccess {
        let hit = self.l1i.lookup(addr, AccessKind::Read);
        let mut latency = self.l1i.latency();
        if !hit {
            latency += self.lower_levels(addr, AccessKind::Read);
        }
        MemAccess { latency, l1_hit: hit }
    }

    /// Performs a data access; returns the access latency.
    pub fn data_access(&mut self, addr: u64, is_write: bool) -> MemAccess {
        let hit = self.dcache.access(addr, is_write);
        let mut latency = self.dcache.latency();
        if !hit {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            latency += self.lower_levels(addr, kind);
        }
        MemAccess { latency, l1_hit: hit }
    }

    /// Walks the unified chain: each level charges its hit latency; the
    /// first hit stops the walk, and missing every level pays main memory.
    fn lower_levels(&mut self, addr: u64, kind: AccessKind) -> u64 {
        let mut latency = 0;
        for level in &mut self.downstream {
            latency += level.latency();
            if level.lookup(addr, kind) {
                return latency;
            }
        }
        latency + self.memory_latency
    }

    /// Snapshot of every level's statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.dcache.stats(),
            l2: self.downstream.first().map(CacheLevel::stats).unwrap_or_default(),
        }
    }

    /// Statistics of every unified downstream level, nearest first (the
    /// multi-level generalization of [`HierarchyStats::l2`]).
    #[must_use]
    pub fn downstream_stats(&self) -> Vec<CacheStats> {
        self.downstream.iter().map(CacheLevel::stats).collect()
    }

    /// Invalidates every cache and clears all statistics.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.dcache.reset();
        for level in &mut self.downstream {
            level.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::PerfectDcache;

    #[test]
    fn cold_miss_pays_l2_and_memory() {
        let mut m = MemoryHierarchy::micro97();
        let first = m.data_access(0x8000, false);
        assert!(!first.l1_hit);
        assert_eq!(first.latency, 1 + 8 + 50);
        let second = m.data_access(0x8000, false);
        assert!(second.l1_hit);
        assert_eq!(second.latency, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_costs_l1_plus_l2() {
        let mut m = MemoryHierarchy::micro97();
        m.data_access(0x8000, false);
        // Evict line 0x8000 from the 64KB 4-way L1 by touching 5 lines that
        // map to the same set (stride = 16KB way size).
        for i in 1..=5u64 {
            m.data_access(0x8000 + i * 16 * 1024, false);
        }
        let back = m.data_access(0x8000, false);
        assert!(!back.l1_hit);
        assert_eq!(back.latency, 1 + 8, "should hit in the 512KB L2");
    }

    #[test]
    fn instruction_and_data_paths_are_split() {
        let mut m = MemoryHierarchy::micro97();
        m.inst_fetch(0x100);
        assert_eq!(m.stats().l1i.accesses, 1);
        assert_eq!(m.stats().l1d.accesses, 0);
        m.data_access(0x100, true);
        assert_eq!(m.stats().l1d.accesses, 1);
    }

    #[test]
    fn small_icache_config_differs() {
        let m = MemoryHierarchy::micro97_small_icache();
        assert_eq!(m.l1i.config().size_bytes, 32 * 1024);
        let DcacheSlot::Tags(l1d) = &m.dcache else {
            panic!("the stock machine uses the statically dispatched tag array")
        };
        assert_eq!(l1d.config().size_bytes, 64 * 1024, "only the I-cache shrinks");
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = MemoryHierarchy::micro97();
        m.data_access(0x42, false);
        m.reset();
        assert_eq!(m.stats().l1d.accesses, 0);
        assert!(!m.data_access(0x42, false).l1_hit);
    }

    /// Substituting a fresh tag array of the same geometry through the
    /// [`DataMemModel`] seam is invisible: identical outcomes, latencies
    /// and statistics on an eviction-heavy access pattern.
    #[test]
    fn swapped_same_geometry_dcache_is_bit_identical() {
        let mut stock = MemoryHierarchy::micro97();
        let mut swapped = MemoryHierarchy::micro97()
            .with_dcache_model(Box::new(CacheLevel::new(CacheConfig::micro97_l1d())));
        for i in 0..2000u64 {
            let addr = (i * 7919) % (256 * 1024);
            let write = i % 3 == 0;
            assert_eq!(stock.data_access(addr, write), swapped.data_access(addr, write));
            if i % 5 == 0 {
                assert_eq!(stock.inst_fetch(addr), swapped.inst_fetch(addr));
            }
        }
        assert_eq!(stock.stats(), swapped.stats());
    }

    #[test]
    fn perfect_dcache_never_reaches_the_downstream_levels() {
        let mut m = MemoryHierarchy::micro97().with_dcache_model(Box::new(PerfectDcache::new(1)));
        for i in 0..100u64 {
            let access = m.data_access(i * 1024 * 1024, false);
            assert!(access.l1_hit);
            assert_eq!(access.latency, 1);
        }
        assert_eq!(m.stats().l1d.misses, 0);
        assert_eq!(m.stats().l2.accesses, 0, "data never touches the L2");
        // Instruction misses still use the shared downstream chain.
        let fetch = m.inst_fetch(0x100);
        assert!(!fetch.l1_hit);
        assert_eq!(fetch.latency, 1 + 8 + 50);
        assert_eq!(m.stats().l2.accesses, 1);
    }

    #[test]
    fn downstream_chain_is_composable() {
        // Three-level data side: L1D -> 512KB L2 -> 4MB L3 -> memory.
        let l3 = CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            line_bytes: 64,
            associativity: 8,
            latency: 20,
        };
        let mut m = MemoryHierarchy::compose(
            CacheConfig::micro97_l1i(),
            Box::new(CacheLevel::new(CacheConfig::micro97_l1d())),
            vec![CacheLevel::new(CacheConfig::micro97_l2()), CacheLevel::new(l3)],
            100,
        );
        let cold = m.data_access(0x4_0000, false);
        assert_eq!(cold.latency, 1 + 8 + 20 + 100, "cold miss walks every level");
        assert_eq!(m.downstream_stats().len(), 2);
        assert_eq!(m.downstream_stats()[1].misses, 1);

        // No downstream at all: L1 misses go straight to memory.
        let mut flat = MemoryHierarchy::compose(
            CacheConfig::micro97_l1i(),
            Box::new(CacheLevel::new(CacheConfig::micro97_l1d())),
            Vec::new(),
            30,
        );
        assert_eq!(flat.data_access(0x40, false).latency, 1 + 30);
        assert_eq!(flat.stats().l2, CacheStats::default());
    }
}
