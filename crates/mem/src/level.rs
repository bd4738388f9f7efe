//! Composable cache levels and the swappable data-side model.
//!
//! The original [`crate::MemoryHierarchy`] was a monolith: exactly one L1I,
//! one L1D and one unified L2, every field concrete. This module breaks the
//! hierarchy into its composable parts:
//!
//! * [`CacheLevel`] — one tag-array level with its hit latency. The
//!   hierarchy strings levels together (split L1s in front, any number of
//!   unified levels behind), so "64KB L1s + 512KB L2 + memory" is one
//!   composition among many instead of the only expressible machine.
//! * [`DataMemModel`] — the interface of the **L1 data side**: resolve one
//!   data access to an L1D hit/miss and account it. The default
//!   implementation is a [`CacheLevel`] (a real tag array), but any model
//!   can stand in per simulated machine, such as an always-hit
//!   [`PerfectDcache`] for an upper-bound machine. Only the L1D *outcome*
//!   goes through the trait; a miss's unified-L2 interaction stays on the
//!   owning hierarchy, which is what keeps the L2 entanglement
//!   (instruction fetches and data misses share it) modelled per machine.
//!
//! Swapping the model changes the *modelled machine* (a perfect D-cache is
//! a different processor), except when the substitute makes identical
//! hit/miss decisions — substituting a fresh `CacheLevel` of the same
//! geometry for the built-in one is bit-identical (locked by the hierarchy
//! tests).

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};
use std::fmt;

/// One level of the memory hierarchy: a set-associative tag array plus the
/// hit latency it contributes to an access that reaches it.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    cache: Cache,
}

impl CacheLevel {
    /// Creates an empty level with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> CacheLevel {
        CacheLevel { cache: Cache::new(config) }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Cycles an access spends at this level (hit latency; a miss
    /// additionally pays whatever lies behind it).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.cache.config().latency
    }

    /// Looks up `addr`, allocating the line on a miss; returns whether it
    /// hit.
    pub fn lookup(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.cache.access(addr, kind).hit
    }

    /// Whether `addr` is resident (no state change, no stats).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        self.cache.probe(addr)
    }

    /// Accumulated hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Invalidates every line and clears the statistics.
    pub fn reset(&mut self) {
        self.cache.reset();
    }
}

/// The swappable L1-data-side model of a [`crate::MemoryHierarchy`].
///
/// The model resolves each access's **L1D outcome** (and owns the L1D
/// statistics); the hierarchy charges the hit latency and performs the
/// unified-lower-level interaction of every miss on its own state. See the
/// module docs for why only the outcome is abstracted.
pub trait DataMemModel: fmt::Debug + Send {
    /// Resolves one data access: whether it hit in the L1 data cache.
    /// Implementations update their own replacement state and counters.
    fn access(&mut self, addr: u64, is_write: bool) -> bool;

    /// Hit latency the hierarchy charges for every access.
    fn latency(&self) -> u64;

    /// Accumulated L1D counters (reported as
    /// [`crate::HierarchyStats::l1d`]).
    fn stats(&self) -> CacheStats;

    /// Clears all state and statistics.
    fn reset(&mut self);

    /// Clones the model behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn DataMemModel>;
}

impl Clone for Box<dyn DataMemModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl DataMemModel for CacheLevel {
    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
        self.lookup(addr, kind)
    }

    fn latency(&self) -> u64 {
        CacheLevel::latency(self)
    }

    fn stats(&self) -> CacheStats {
        CacheLevel::stats(self)
    }

    fn reset(&mut self) {
        CacheLevel::reset(self);
    }

    fn clone_box(&self) -> Box<dyn DataMemModel> {
        Box::new(self.clone())
    }
}

/// An always-hit L1 data cache: every access resolves at the configured
/// hit latency and nothing ever reaches the lower levels.
///
/// This models a *different machine* (an upper bound on data-side
/// performance) — useful for sensitivity studies ("how much IPC does the
/// D-cache cost this workload?") and as the simplest proof that the data
/// side is genuinely swappable.
#[derive(Debug, Clone)]
pub struct PerfectDcache {
    latency: u64,
    stats: CacheStats,
}

impl PerfectDcache {
    /// A perfect D-cache with the given hit latency.
    #[must_use]
    pub fn new(latency: u64) -> PerfectDcache {
        PerfectDcache { latency, stats: CacheStats::default() }
    }
}

impl DataMemModel for PerfectDcache {
    fn access(&mut self, _addr: u64, _is_write: bool) -> bool {
        self.stats.accesses += 1;
        true
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset(&mut self) {
        self.stats = CacheStats::default();
    }

    fn clone_box(&self) -> Box<dyn DataMemModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_level_wraps_a_tag_array() {
        let mut l = CacheLevel::new(CacheConfig::micro97_l1d());
        assert_eq!(l.latency(), 1);
        assert!(!l.lookup(0x40, AccessKind::Read), "cold miss");
        assert!(l.lookup(0x40, AccessKind::Read));
        assert!(l.probe(0x40));
        assert_eq!(l.stats().accesses, 2);
        assert_eq!(l.stats().misses, 1);
        l.reset();
        assert_eq!(l.stats().accesses, 0);
        assert!(!l.probe(0x40));
    }

    #[test]
    fn cache_level_as_data_model_matches_its_own_tag_array() {
        let mut direct = CacheLevel::new(CacheConfig::micro97_l1d());
        let mut boxed: Box<dyn DataMemModel> =
            Box::new(CacheLevel::new(CacheConfig::micro97_l1d()));
        for (i, addr) in [0u64, 64, 0, 4096, 64, 123_456].into_iter().enumerate() {
            let write = i % 2 == 1;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            assert_eq!(direct.lookup(addr, kind), boxed.access(addr, write));
        }
        assert_eq!(direct.stats(), boxed.stats());
    }

    #[test]
    fn perfect_dcache_always_hits_and_counts() {
        let mut p = PerfectDcache::new(1);
        for addr in 0..100u64 {
            assert!(p.access(addr * 4096, addr % 3 == 0));
        }
        assert_eq!(p.stats().accesses, 100);
        assert_eq!(p.stats().misses, 0);
        p.reset();
        assert_eq!(p.stats().accesses, 0);
    }

    #[test]
    fn boxed_models_clone_independently() {
        let mut a: Box<dyn DataMemModel> = Box::new(PerfectDcache::new(2));
        let _ = a.access(0, false);
        let b = a.clone();
        let _ = a.access(64, false);
        assert_eq!(a.stats().accesses, 2);
        assert_eq!(b.stats().accesses, 1, "the clone has its own counters");
        assert_eq!(b.latency(), 2);
    }
}
