//! The recency-ordered tag array is true LRU.
//!
//! The simulator's cache keeps each set's tags most recently used first
//! and finds its victim by position. This suite keeps the timestamp LRU it
//! replaced as a reference model — every line carries a valid bit, a tag
//! and the tick of its last use; a miss fills the first invalid way, else
//! evicts the least recent one — and drives both with the same seeded
//! address streams on direct-mapped, 2-, 4- and 8-way geometries and on
//! the paper's caches. The cache under test is the L1D of a machine built
//! with that geometry ([`SimConfig::memory`]), reached through its data
//! accesses. Every access must agree on hit or miss, and the statistics
//! must match.

use dvi_sim::{CacheConfig, CacheStats, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The timestamp LRU cache, line for line as the model used to store it.
struct ReferenceLru {
    lines: Vec<Line>,
    assoc: usize,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

#[derive(Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    last_use: u64,
}

impl ReferenceLru {
    fn new(config: CacheConfig) -> ReferenceLru {
        let sets = config.num_sets();
        ReferenceLru {
            lines: vec![Line::default(); sets * config.associativity],
            assoc: config.associativity,
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64 - 1).count_ones(),
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
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
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("associativity is non-zero");
        *victim = Line { valid: true, tag, last_use: self.tick };
        false
    }
}

/// A stream with the mix of reuse a cache sees: a hot working set that
/// fits, sequential sweeps over a footprint a few times the capacity,
/// strides that pile onto a few sets, and scattered addresses anywhere in
/// the 64-bit space (high tag bits included).
fn address_stream(config: CacheConfig, seed: u64, len: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = config.size_bytes;
    let hot_base = rng.next_u64() >> 8;
    let mut stream = Vec::with_capacity(len);
    while stream.len() < len {
        let burst = rng.gen_range(1..257usize);
        match rng.gen_range(0..4u64) {
            0 => {
                for _ in 0..burst {
                    stream.push(hot_base + rng.gen_range(0..capacity / 2));
                }
            }
            1 => {
                let start = rng.gen_range(0..4 * capacity);
                let step = config.line_bytes / 2;
                stream.extend((0..burst as u64).map(|k| start + k * step));
            }
            2 => {
                // A stride of the set span maps every access to one set.
                let start = rng.gen_range(0..capacity);
                let span = config.num_sets() as u64 * config.line_bytes;
                let ways = 2 * config.associativity as u64;
                stream.extend((0..burst as u64).map(|k| start + (k % ways) * span));
            }
            _ => {
                for _ in 0..burst {
                    stream.push(rng.next_u64());
                }
            }
        }
    }
    stream.truncate(len);
    stream
}

fn assert_matches_reference(name: &str, config: CacheConfig) {
    for seed in [1, 0x5EED, 0xDEAD_BEEF] {
        let mut memory = SimConfig { dcache: config, ..SimConfig::micro97() }.memory();
        let mut reference = ReferenceLru::new(config);
        let stream = address_stream(config, seed, 60_000);
        let mut hits = 0u64;
        for (i, &addr) in stream.iter().enumerate() {
            let hit = memory.data_access(addr).l1_hit;
            assert_eq!(
                hit,
                reference.access(addr),
                "{name} seed {seed:#x}: access {i} to {addr:#x} disagrees"
            );
            hits += u64::from(hit);
        }
        assert_eq!(memory.stats().l1d, reference.stats, "{name} seed {seed:#x}: statistics differ");
        assert!(
            hits > 0 && hits < stream.len() as u64,
            "{name} seed {seed:#x}: the stream both hits and misses"
        );
    }
}

#[test]
fn small_geometries_match_timestamp_lru() {
    for associativity in [1, 2, 4, 8] {
        for (size_bytes, line_bytes) in [(1024, 16), (4096, 32)] {
            let config = CacheConfig { size_bytes, line_bytes, associativity, latency: 1 };
            assert_matches_reference(
                &format!("{size_bytes}B {associativity}-way {line_bytes}B lines"),
                config,
            );
        }
    }
}

#[test]
fn paper_caches_match_timestamp_lru() {
    assert_matches_reference("micro97 L1", CacheConfig::micro97_l1d());
    assert_matches_reference("micro97 L2", CacheConfig::micro97_l2());
    assert_matches_reference("32KB L1I", CacheConfig::micro97_l1i_32k());
}
