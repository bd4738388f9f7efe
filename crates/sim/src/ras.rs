//! Return-address stack.

/// A bounded return-address stack used to predict the targets of `return`
/// instructions. Overflow wraps around (the oldest entry is lost);
/// underflow returns `None`.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a return-address stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "return-address stack needs at least one entry");
        ReturnAddressStack { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address (at a call).
    pub fn push(&mut self, addr: u64) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(addr);
    }

    /// Pops the predicted return address (at a return).
    pub fn pop(&mut self) -> Option<u64> {
        self.entries.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_prediction() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.entries.len(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = ReturnAddressStack::new(0);
    }
}
