//! Data-cache port arbitration.

/// A pool of replicated (perfect) data-cache ports.
///
/// The paper's simulations model replicated cache ports: each port provides
/// a full cache access per cycle with no bank conflicts. The sensitivity
/// analysis of Figure 11 varies the number of ports between 1 and 3. Ports
/// are claimed as memory instructions issue and released at the start of the
/// next cycle.
///
/// # Example
///
/// ```
/// use dvi_mem::CachePorts;
///
/// let mut ports = CachePorts::new(2);
/// assert!(ports.try_acquire());
/// assert!(ports.try_acquire());
/// assert!(!ports.try_acquire(), "only two ports this cycle");
/// ports.next_cycle();
/// assert!(ports.try_acquire());
/// ```
#[derive(Debug, Clone)]
pub struct CachePorts {
    total: usize,
    used_this_cycle: usize,
}

impl CachePorts {
    /// Creates a port pool with `total` ports per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    #[must_use]
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a machine needs at least one cache port");
        CachePorts { total, used_this_cycle: 0 }
    }

    /// Attempts to claim a port for this cycle.
    pub fn try_acquire(&mut self) -> bool {
        if self.used_this_cycle < self.total {
            self.used_this_cycle += 1;
            true
        } else {
            false
        }
    }

    /// Releases every port for the next cycle.
    pub fn next_cycle(&mut self) {
        self.used_this_cycle = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ports_limit_per_cycle_usage() {
        let mut p = CachePorts::new(2);
        assert!(p.try_acquire());
        assert!(p.try_acquire());
        assert!(!p.try_acquire());
        p.next_cycle();
        assert!(p.try_acquire());
        assert!(p.try_acquire());
        assert!(!p.try_acquire(), "the next cycle has the same two ports");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_ports_rejected() {
        let _ = CachePorts::new(0);
    }

    proptest! {
        #[test]
        fn never_grants_more_than_total(total in 1usize..8, attempts in 0usize..32) {
            let mut p = CachePorts::new(total);
            let granted = (0..attempts).filter(|_| p.try_acquire()).count();
            prop_assert_eq!(granted, attempts.min(total));
        }
    }
}
