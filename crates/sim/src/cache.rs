//! A single level of set-associative cache.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's L1 data cache: 64KB, 4-way, 1-cycle latency.
    #[must_use]
    pub fn micro97_l1d() -> Self {
        CacheConfig { size_bytes: 64 * 1024, line_bytes: 32, associativity: 4, latency: 1 }
    }

    /// The paper's L1 instruction cache: 64KB, 4-way, 1-cycle latency.
    #[must_use]
    pub fn micro97_l1i() -> Self {
        CacheConfig::micro97_l1d()
    }

    /// A 32KB variant of the instruction cache (used by Figure 13).
    #[must_use]
    pub fn micro97_l1i_32k() -> Self {
        CacheConfig { size_bytes: 32 * 1024, ..CacheConfig::micro97_l1i() }
    }

    /// The paper's unified L2: 512KB, 4-way, 8-cycle latency.
    #[must_use]
    pub fn micro97_l2() -> Self {
        CacheConfig { size_bytes: 512 * 1024, line_bytes: 64, associativity: 4, latency: 8 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `line_bytes * associativity`, or a non-power-of-two set
    /// count).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        assert!(
            self.size_bytes > 0 && self.line_bytes > 0 && self.associativity > 0,
            "cache geometry fields must be non-zero"
        );
        let way_bytes = self.line_bytes * self.associativity as u64;
        assert!(self.size_bytes.is_multiple_of(way_bytes), "capacity must divide evenly into ways");
        let sets = (self.size_bytes / way_bytes) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

/// The tag of an empty way. A real tag is a byte address shifted right by
/// the line and set-index widths, at least one bit in all (see
/// [`Cache::new`]), so it is below 2^63 and never equals the marker.
const EMPTY: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// The cache tracks only tags (no data): the simulator needs hit/miss
/// behaviour and latency, not values, which the functional interpreter
/// already produced. Each set keeps its tags most recently used first, so
/// recency is the position of a tag and needs no timestamp: a hit moves
/// its way to the front, and a miss overwrites the last way (the least
/// recently used one, or an empty way, since empty ways always sit at the
/// tail) and moves it to the front. The resident lines and their recency
/// order after every access are those of a timestamp LRU that fills the
/// first empty way before evicting, so the hits and misses are too.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All tags in one flat allocation, `associativity` consecutive ways
    /// per set, each set most recently used first — one predictable index
    /// computation per access and 8 bytes per line.
    tags: Vec<u64>,
    stats: CacheStats,
    set_mask: u64,
    /// Width of the set index (`set_mask.count_ones()`, computed once: a
    /// per-access popcount is a software routine on baseline x86-64).
    set_bits: u32,
    line_shift: u32,
    assoc: usize,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::num_sets`]),
    /// or is a single set of one-byte lines, whose tags would be whole
    /// addresses.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let set_bits = (sets as u64 - 1).count_ones();
        let line_shift = config.line_bytes.trailing_zeros();
        assert!(line_shift + set_bits > 0, "a cache needs more than one byte per way");
        Cache {
            tags: vec![EMPTY; sets * config.associativity],
            stats: CacheStats::default(),
            set_mask: sets as u64 - 1,
            set_bits,
            line_shift,
            assoc: config.associativity,
            config,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `addr`, allocating the line on a miss (loads, stores and
    /// instruction fetches all allocate). Returns whether the access hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        let set = &mut self.tags[set_idx * self.assoc..(set_idx + 1) * self.assoc];

        let (hit, way) = match set.iter().position(|&t| t == tag) {
            Some(way) => (true, way),
            None => {
                self.stats.misses += 1;
                (false, set.len() - 1)
            }
        };
        // Move the way to the front: the ways before it each age by one.
        for i in (1..=way).rev() {
            set[i] = set[i - 1];
        }
        set[0] = tag;
        hit
    }

    /// Whether `addr` is currently resident (no state change, no stats).
    #[cfg(test)]
    fn probe(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        self.tags[set_idx * self.assoc..(set_idx + 1) * self.assoc].contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_of_paper_configs() {
        assert_eq!(CacheConfig::micro97_l1d().num_sets(), 512);
        assert_eq!(CacheConfig::micro97_l1i_32k().num_sets(), 256);
        assert_eq!(CacheConfig::micro97_l2().num_sets(), 2048);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(CacheConfig::micro97_l1d());
        assert!(!c.access(0x1234));
        assert!(c.access(0x1234));
        assert!(c.access(0x1236), "same line");
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 1-set cache: capacity 2 lines.
        let cfg = CacheConfig { size_bytes: 64, line_bytes: 32, associativity: 2, latency: 1 };
        let mut c = Cache::new(cfg);
        assert_eq!(cfg.num_sets(), 1);
        c.access(0); // line A
        c.access(32); // line B
        c.access(0); // touch A (B becomes LRU)
        c.access(64); // line C evicts B
        assert!(c.probe(0), "A stays");
        assert!(!c.probe(32), "B evicted");
        assert!(c.probe(64), "C resident");
    }

    #[test]
    fn smaller_cache_misses_more_on_a_large_footprint() {
        let mut big = Cache::new(CacheConfig::micro97_l1i());
        let mut small = Cache::new(CacheConfig::micro97_l1i_32k());
        // Stream over a 48KB footprint twice: fits in 64KB, not in 32KB.
        for round in 0..2 {
            for addr in (0..48 * 1024).step_by(32) {
                big.access(addr);
                small.access(addr);
            }
            let _ = round;
        }
        assert!(small.stats().misses > big.stats().misses);
    }

    #[test]
    fn tag_array_holds_one_8_byte_tag_per_line() {
        for config in [
            CacheConfig::micro97_l1d(),
            CacheConfig::micro97_l1i_32k(),
            CacheConfig::micro97_l2(),
            CacheConfig { size_bytes: 256, line_bytes: 16, associativity: 1, latency: 1 },
        ] {
            let c = Cache::new(config);
            let lines = config.num_sets() * config.associativity;
            assert_eq!(c.tags.len(), lines);
            assert_eq!(std::mem::size_of_val(c.tags.as_slice()), 8 * lines);
            assert!(c.tags.iter().all(|&t| t == EMPTY), "a new cache is empty");
        }
        // The micro97 L1s are 16KB of tags each, the L2 64KB.
        assert_eq!(Cache::new(CacheConfig::micro97_l1d()).tags.len() * 8, 16 * 1024);
        assert_eq!(Cache::new(CacheConfig::micro97_l2()).tags.len() * 8, 64 * 1024);
    }

    #[test]
    fn sets_keep_their_tags_most_recently_used_first() {
        // 4-way, 1-set cache.
        let cfg = CacheConfig { size_bytes: 128, line_bytes: 32, associativity: 4, latency: 1 };
        let mut c = Cache::new(cfg);
        for line in [0, 1, 2] {
            c.access(line * 32);
        }
        assert_eq!(c.tags, [2, 1, 0, EMPTY], "empty ways sit at the tail");
        c.access(0);
        assert_eq!(c.tags, [0, 2, 1, EMPTY]);
        c.access(3 * 32);
        c.access(4 * 32);
        assert_eq!(c.tags, [4, 3, 0, 2], "the least recently used line is evicted");
    }

    #[test]
    #[should_panic(expected = "more than one byte per way")]
    fn single_byte_single_set_cache_rejected() {
        let cfg = CacheConfig { size_bytes: 4, line_bytes: 1, associativity: 4, latency: 1 };
        let _ = Cache::new(cfg);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let cfg = CacheConfig { size_bytes: 96, line_bytes: 32, associativity: 1, latency: 1 };
        let _ = Cache::new(cfg);
    }

    proptest! {
        #[test]
        fn repeated_access_to_same_line_always_hits_after_first(addr in any::<u64>()) {
            let mut c = Cache::new(CacheConfig::micro97_l1d());
            c.access(addr);
            for _ in 0..4 {
                prop_assert!(c.access(addr));
            }
        }

        #[test]
        fn stats_are_consistent(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut c = Cache::new(CacheConfig::micro97_l1i_32k());
            for a in &addrs {
                c.access(*a);
            }
            let s = c.stats();
            prop_assert_eq!(s.accesses, addrs.len() as u64);
            prop_assert!(s.misses <= s.accesses);
            prop_assert!(s.misses >= 1);
        }
    }
}
