//! Gshare global-history branch direction predictor.

use crate::counter::TwoBitCounter;

/// A gshare predictor: a table of two-bit counters indexed by the XOR of the
/// branch address and a global branch-history register.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<TwoBitCounter>,
    history: u64,
    history_bits: u32,
    index_mask: u64,
}

impl Gshare {
    /// Creates a gshare predictor with `entries` counters and
    /// `history_bits` bits of global history (Figure 2 uses 16).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits` exceeds 32.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "gshare table size must be a power of two");
        assert!(history_bits <= 32, "history register is at most 32 bits");
        Gshare {
            table: vec![TwoBitCounter::new(); entries],
            history: 0,
            history_bits,
            index_mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.index_mask) as usize
    }

    /// Predicts the direction of the branch at `pc` under the current global
    /// history.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict()
    }

    /// Trains the indexed entry and shifts the outcome into the global
    /// history register.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
        self.push_history(taken);
    }

    /// Shifts an outcome into the history register.
    fn push_history(&mut self, taken: bool) {
        let mask = if self.history_bits >= 64 { u64::MAX } else { (1u64 << self.history_bits) - 1 };
        self.history = ((self.history << 1) | u64::from(taken)) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_history_correlated_pattern() {
        // Branch at 0x2000 alternates T,N,T,N... A bimodal predictor stays
        // at ~50%, but gshare can learn it because the history
        // disambiguates the two contexts.
        let mut g = Gshare::new(4096, 8);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400u32 {
            let outcome = i % 2 == 0;
            let pred = g.predict(0x2000);
            if i >= 100 {
                total += 1;
                if pred == outcome {
                    correct += 1;
                }
            }
            g.update(0x2000, outcome);
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "gshare should learn the alternating pattern"
        );
    }

    #[test]
    fn history_register_is_bounded() {
        let mut g = Gshare::new(1024, 4);
        for _ in 0..100 {
            g.push_history(true);
        }
        assert_eq!(g.history, 0b1111);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_rejected() {
        let _ = Gshare::new(1000, 8);
    }
}
