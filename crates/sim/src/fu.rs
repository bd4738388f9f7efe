//! Per-cycle functional-unit arbitration.

use dvi_isa::FuKind;

/// A per-cycle pool of functional units: simple integer ALUs, integer
/// multiply/divide units and data-cache ports.
///
/// The paper's simulations model replicated cache ports: each port provides
/// a full cache access per cycle with no bank conflicts, and Figure 11's
/// sensitivity analysis varies their number between 1 and 3. Every unit is
/// claimed as its instruction issues and released at the start of the next
/// cycle.
///
/// # Example
///
/// ```
/// use dvi_isa::FuKind;
/// use dvi_sim::FuPool;
///
/// let mut fu = FuPool::new(4, 1, 2);
/// assert!(fu.try_acquire(FuKind::MemPort));
/// assert!(fu.try_acquire(FuKind::MemPort));
/// assert!(!fu.try_acquire(FuKind::MemPort), "only two cache ports this cycle");
/// fu.next_cycle();
/// assert!(fu.try_acquire(FuKind::MemPort));
/// ```
#[derive(Debug, Clone)]
pub struct FuPool {
    alu_total: usize,
    mul_total: usize,
    port_total: usize,
    alu_used: usize,
    mul_used: usize,
    port_used: usize,
}

impl FuPool {
    /// Creates a pool with the given unit counts.
    ///
    /// # Panics
    ///
    /// Panics if there are no simple integer units or no cache ports.
    #[must_use]
    pub fn new(int_alu: usize, int_mul: usize, cache_ports: usize) -> Self {
        assert!(int_alu > 0, "the machine needs at least one integer ALU");
        assert!(cache_ports > 0, "a machine needs at least one cache port");
        FuPool {
            alu_total: int_alu,
            mul_total: int_mul,
            port_total: cache_ports,
            alu_used: 0,
            mul_used: 0,
            port_used: 0,
        }
    }

    /// Attempts to claim a unit of the given kind for this cycle.
    pub fn try_acquire(&mut self, kind: FuKind) -> bool {
        let (used, total) = match kind {
            FuKind::IntAlu | FuKind::FpAlu => (&mut self.alu_used, self.alu_total),
            FuKind::IntMulDiv | FuKind::FpMulDiv => (&mut self.mul_used, self.mul_total),
            FuKind::MemPort => (&mut self.port_used, self.port_total),
        };
        if *used < total {
            *used += 1;
            true
        } else {
            false
        }
    }

    /// Releases every unit for the next cycle.
    pub fn next_cycle(&mut self) {
        self.alu_used = 0;
        self.mul_used = 0;
        self.port_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pools_are_per_cycle() {
        let mut fu = FuPool::new(2, 1, 1);
        assert!(fu.try_acquire(FuKind::IntAlu));
        assert!(fu.try_acquire(FuKind::IntAlu));
        assert!(!fu.try_acquire(FuKind::IntAlu));
        assert!(fu.try_acquire(FuKind::IntMulDiv));
        assert!(!fu.try_acquire(FuKind::IntMulDiv));
        fu.next_cycle();
        assert!(fu.try_acquire(FuKind::IntAlu));
        assert!(fu.try_acquire(FuKind::IntAlu));
        assert!(fu.try_acquire(FuKind::IntMulDiv));
    }

    #[test]
    fn ports_limit_per_cycle_usage() {
        let mut fu = FuPool::new(1, 0, 2);
        assert!(fu.try_acquire(FuKind::MemPort));
        assert!(fu.try_acquire(FuKind::MemPort));
        assert!(!fu.try_acquire(FuKind::MemPort));
        assert!(fu.try_acquire(FuKind::IntAlu), "ports and ALUs are separate units");
        fu.next_cycle();
        assert!(fu.try_acquire(FuKind::MemPort));
        assert!(fu.try_acquire(FuKind::MemPort));
        assert!(!fu.try_acquire(FuKind::MemPort), "the next cycle has the same two ports");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_alus_rejected() {
        let _ = FuPool::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_ports_rejected() {
        let _ = FuPool::new(1, 1, 0);
    }

    proptest! {
        #[test]
        fn never_grants_more_than_total(total in 1usize..8, attempts in 0usize..32) {
            let mut fu = FuPool::new(1, 0, total);
            let granted = (0..attempts).filter(|_| fu.try_acquire(FuKind::MemPort)).count();
            prop_assert_eq!(granted, attempts.min(total));
        }
    }
}
