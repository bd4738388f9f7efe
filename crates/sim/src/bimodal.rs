//! Bimodal (per-PC) branch direction predictor.

use crate::counter::TwoBitCounter;

/// A bimodal predictor: a table of two-bit counters indexed by the branch
/// address.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<TwoBitCounter>,
    index_mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "bimodal table size must be a power of two");
        Bimodal { table: vec![TwoBitCounter::new(); entries], index_mask: entries as u64 - 1 }
    }

    fn index(&self, pc: u64) -> usize {
        // Instructions are word-aligned; drop the low two bits.
        ((pc >> 2) & self.index_mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict()
    }

    /// Trains the entry for `pc` with the actual outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Bimodal::new(1024);
        for _ in 0..4 {
            p.update(0x1000, true);
        }
        assert!(p.predict(0x1000));
        for _ in 0..4 {
            p.update(0x1000, false);
        }
        assert!(!p.predict(0x1000));
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = Bimodal::new(1024);
        for _ in 0..4 {
            p.update(0x1000, true);
            p.update(0x1004, false);
        }
        assert!(p.predict(0x1000));
        assert!(!p.predict(0x1004));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bimodal::new(1000);
    }
}
