//! Saturating two-bit prediction counter.

/// A two-bit saturating counter, the building block of the bimodal and
/// gshare tables.
///
/// States 0 and 1 predict not-taken, states 2 and 3 predict taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoBitCounter(u8);

impl TwoBitCounter {
    /// Creates a counter in the weakly-taken state (the usual reset value).
    #[must_use]
    pub fn new() -> Self {
        TwoBitCounter(2)
    }

    /// The prediction: `true` means taken.
    #[must_use]
    pub fn predict(self) -> bool {
        self.0 >= 2
    }

    /// Trains the counter with the actual outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = TwoBitCounter::new();
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c, TwoBitCounter(3));
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c, TwoBitCounter(0));
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut c = TwoBitCounter(3);
        c.update(false);
        assert!(c.predict(), "one not-taken outcome does not flip a strong counter");
        c.update(false);
        assert!(!c.predict());
    }

    proptest! {
        #[test]
        fn state_always_in_range(updates in proptest::collection::vec(any::<bool>(), 0..64)) {
            let mut c = TwoBitCounter::new();
            for u in updates {
                c.update(u);
                prop_assert!(c.0 <= 3);
            }
        }
    }
}
