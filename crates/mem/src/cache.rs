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

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    last_use: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// The cache tracks only tags (no data): the simulator needs hit/miss
/// behaviour and latency, not values, which the functional interpreter
/// already produced.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All lines in one flat allocation, `associativity` consecutive ways
    /// per set — one predictable index computation per access instead of a
    /// pointer chase through per-set vectors.
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
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
    /// Panics if the geometry is invalid (see [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        Cache {
            lines: vec![Line::default(); sets * config.associativity],
            stats: CacheStats::default(),
            tick: 0,
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64 - 1).count_ones(),
            line_shift: config.line_bytes.trailing_zeros(),
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
        self.tick += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        let set = &mut self.lines[set_idx * self.assoc..(set_idx + 1) * self.assoc];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.tick;
            return true;
        }

        self.stats.misses += 1;
        // Choose the victim: an invalid way if any, else the LRU way.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("associativity is non-zero");
        victim.valid = true;
        victim.tag = tag;
        victim.last_use = self.tick;
        false
    }

    /// Whether `addr` is currently resident (no state change, no stats).
    #[cfg(test)]
    fn probe(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        self.lines[set_idx * self.assoc..(set_idx + 1) * self.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
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
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let cfg = CacheConfig { size_bytes: 96, line_bytes: 32, associativity: 1, latency: 1 };
        let _ = Cache::new(cfg);
    }

    #[test]
    fn miss_rate_handles_zero_accesses() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
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
