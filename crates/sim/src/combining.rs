//! Combining (tournament) predictor with a return-address stack.

use crate::bimodal::Bimodal;
use crate::counter::TwoBitCounter;
use crate::gshare::Gshare;
use crate::ras::ReturnAddressStack;

/// Configuration of the combining predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the bimodal table.
    pub bimodal_entries: usize,
    /// Entries in the gshare table.
    pub gshare_entries: usize,
    /// Bits of global history feeding gshare.
    pub history_bits: u32,
    /// Entries in the chooser table.
    pub chooser_entries: usize,
    /// Return-address stack depth.
    pub ras_entries: usize,
}

impl PredictorConfig {
    /// Figure 2's predictor: 16-bit history, combinational gshare/bimodal
    /// and large tables. Figure 2's BTB is not modelled: taken-branch
    /// targets are predicted perfectly.
    #[must_use]
    pub fn micro97() -> Self {
        PredictorConfig {
            bimodal_entries: 8192,
            gshare_entries: 65536,
            history_bits: 16,
            chooser_entries: 8192,
            ras_entries: 32,
        }
    }

    /// A deliberately tiny predictor, useful in tests that need
    /// mispredictions.
    #[must_use]
    pub fn tiny() -> Self {
        PredictorConfig {
            bimodal_entries: 16,
            gshare_entries: 16,
            history_bits: 4,
            chooser_entries: 16,
            ras_entries: 4,
        }
    }
}

/// Counters describing predictor behaviour over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional-branch direction predictions made.
    pub direction_predictions: u64,
    /// Conditional-branch direction mispredictions.
    pub direction_mispredictions: u64,
    /// Return-address predictions made.
    pub return_predictions: u64,
    /// Return-address mispredictions.
    pub return_mispredictions: u64,
}

/// The tournament predictor of Figure 2: bimodal and gshare components with
/// a per-branch chooser and a return-address stack.
///
/// # Example
///
/// ```
/// use dvi_sim::{CombiningPredictor, PredictorConfig};
///
/// let mut bp = CombiningPredictor::new(PredictorConfig::micro97());
/// // Train on an always-taken branch.
/// for _ in 0..16 {
///     let _ = bp.predict(0x400);
///     bp.update(0x400, true);
/// }
/// assert!(bp.predict(0x400));
/// ```
#[derive(Debug, Clone)]
pub struct CombiningPredictor {
    bimodal: Bimodal,
    gshare: Gshare,
    chooser: Vec<TwoBitCounter>,
    chooser_mask: u64,
    ras: ReturnAddressStack,
    stats: PredictorStats,
}

impl CombiningPredictor {
    /// Creates a predictor from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two or the RAS is empty.
    #[must_use]
    pub fn new(config: PredictorConfig) -> Self {
        assert!(config.chooser_entries.is_power_of_two(), "chooser size must be a power of two");
        CombiningPredictor {
            bimodal: Bimodal::new(config.bimodal_entries),
            gshare: Gshare::new(config.gshare_entries, config.history_bits),
            chooser: vec![TwoBitCounter::new(); config.chooser_entries],
            chooser_mask: config.chooser_entries as u64 - 1,
            ras: ReturnAddressStack::new(config.ras_entries),
            stats: PredictorStats::default(),
        }
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.chooser_mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.stats.direction_predictions += 1;
        let use_gshare = self.chooser[self.chooser_index(pc)].predict();
        if use_gshare {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Trains every component with the branch outcome and records whether
    /// the most recent prediction was wrong.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let g_pred = self.gshare.predict(pc);
        let b_pred = self.bimodal.predict(pc);
        let idx = self.chooser_index(pc);
        let chosen = if self.chooser[idx].predict() { g_pred } else { b_pred };
        if chosen != taken {
            self.stats.direction_mispredictions += 1;
        }
        // The chooser trains toward the component that was right when they
        // disagree.
        if g_pred != b_pred {
            self.chooser[idx].update(g_pred == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    /// Pushes a return address at a call.
    pub fn push_return_address(&mut self, addr: u64) {
        self.ras.push(addr);
    }

    /// Predicts the target of a `return`, recording accuracy against
    /// `actual`.
    pub fn predict_return(&mut self, actual: u64) -> bool {
        self.stats.return_predictions += 1;
        let correct = self.ras.pop() == Some(actual);
        if !correct {
            self.stats.return_mispredictions += 1;
        }
        correct
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branches_quickly() {
        let mut bp = CombiningPredictor::new(PredictorConfig::micro97());
        for _ in 0..32 {
            let _ = bp.predict(0x400);
            bp.update(0x400, true);
        }
        assert!(bp.predict(0x400));
        let stats = bp.stats();
        assert!(5 * stats.direction_mispredictions < stats.direction_predictions, "over 80% right");
    }

    #[test]
    fn chooser_prefers_gshare_on_history_patterns() {
        let mut bp = CombiningPredictor::new(PredictorConfig::micro97());
        // An alternating branch that bimodal cannot learn.
        let mut last_100_wrong = 0;
        for i in 0..600u32 {
            let outcome = i % 2 == 0;
            let pred = bp.predict(0x800);
            if i >= 500 && pred != outcome {
                last_100_wrong += 1;
            }
            bp.update(0x800, outcome);
        }
        assert!(last_100_wrong <= 5, "combined predictor should converge on the pattern");
    }

    #[test]
    fn return_address_stack_predicts_matching_returns() {
        let mut bp = CombiningPredictor::new(PredictorConfig::micro97());
        bp.push_return_address(0x1000);
        bp.push_return_address(0x2000);
        assert!(bp.predict_return(0x2000));
        assert!(bp.predict_return(0x1000));
        assert!(!bp.predict_return(0x3000));
        assert_eq!(bp.stats().return_mispredictions, 1);
    }
}
