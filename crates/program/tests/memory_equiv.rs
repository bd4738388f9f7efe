//! The interpreter's paged memory against a plain reference model.
//!
//! `ArchState` keeps its sparse data memory in lazily allocated 4 KiB pages
//! behind a two-entry last-page cache. Through the `ArchState` memory API
//! it must be indistinguishable from a `HashMap<u64, i64>` word store —
//! same load results, and a footprint equal to the map's length — for
//! *any* interleaving of reads and writes over sparse addresses. These
//! property tests drive both with the same randomly generated operation
//! sequences and compare every observable after every step.

use dvi_program::{ArchState, DATA_BASE, STACK_BASE};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference model: one map entry per written byte address, and
/// unwritten addresses read as zero.
#[derive(Default)]
struct Reference(HashMap<u64, i64>);

impl Reference {
    fn load(&self, addr: u64) -> i64 {
        self.0.get(&addr).copied().unwrap_or(0)
    }

    fn store(&mut self, addr: u64, value: i64) {
        self.0.insert(addr, value);
    }

    fn memory_footprint(&self) -> usize {
        self.0.len()
    }
}

/// Decodes one raw 64-bit sample into a memory operation over a sparse but
/// collision-prone address space (a handful of regions, page-crossing
/// offsets, and offsets that alias within a page), so sequences hit the
/// last-page cache, cold pages, page zero and the written-bitmap logic.
fn decode_op(raw: u64) -> (bool, u64, i64) {
    let is_store = raw & 1 == 1;
    let region = match (raw >> 1) & 0b111 {
        0 => 0,                     // page zero / low memory
        1 => DATA_BASE,             // global data
        2 => DATA_BASE + (1 << 20), // a distant data page
        3 => STACK_BASE - 8192,     // below the stack top
        4 => STACK_BASE,            // the stack page itself
        5 => u64::MAX - 65536,      // top of the address space
        6 => DATA_BASE + 4096,      // the page adjacent to data
        _ => 0xdead_0000,           // an unrelated sparse region
    };
    // Offsets within +/- two pages of the region base; a small modulus makes
    // repeated hits on the same address (overwrites) likely.
    let offset = (raw >> 8) % 8192;
    let value = (raw >> 17) as i64;
    (is_store, region.wrapping_add(offset), value)
}

proptest! {
    #[test]
    fn paged_and_hashmap_memories_are_observationally_equivalent(
        ops in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        let mut paged = ArchState::new();
        let mut reference = Reference::default();

        for &raw in &ops {
            let (is_store, addr, value) = decode_op(raw);
            if is_store {
                paged.store(addr, value);
                reference.store(addr, value);
            }
            // Read back after every operation (including after pure reads,
            // which exercises zero-fill on unwritten addresses).
            prop_assert_eq!(paged.load(addr), reference.load(addr), "addr {:#x}", addr);
            prop_assert_eq!(
                paged.memory_footprint(),
                reference.memory_footprint(),
                "footprint diverged at addr {:#x}",
                addr
            );
        }

        // Final sweep: every address the sequence touched reads identically.
        for &raw in &ops {
            let (_, addr, _) = decode_op(raw);
            prop_assert_eq!(paged.load(addr), reference.load(addr), "final addr {:#x}", addr);
        }
    }

    #[test]
    fn storing_zero_counts_as_written_in_both_backends(addr in any::<u64>()) {
        let mut paged = ArchState::new();
        let mut reference = Reference::default();
        paged.store(addr, 0);
        reference.store(addr, 0);
        prop_assert_eq!(paged.memory_footprint(), 1);
        prop_assert_eq!(reference.memory_footprint(), 1);
        prop_assert_eq!(paged.load(addr), 0);
        prop_assert_eq!(reference.load(addr), 0);
    }
}
