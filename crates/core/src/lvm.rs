//! The Live Value Mask (LVM).

use dvi_isa::{ArchReg, RegMask};
use std::fmt;

/// The Live Value Mask: one live/dead bit per architectural register.
///
/// The paper adds a single state bit to each entry of the
/// architectural-to-physical mapping table; collectively those bits form the
/// LVM. The bit is *set* while the value held by the register is live and
/// *clear* after the register has been killed by DVI. The mask is updated at
/// the decode stage by destination renaming (which makes a register live
/// again) and by instructions providing DVI, explicitly (`kill`) or
/// implicitly (`call`/`return`).
///
/// The zero register is pinned live: it is never killed and never needs to
/// be saved, so treating it as live is harmless and keeps the invariant that
/// reads never observe an unmapped register.
///
/// # Example
///
/// ```
/// use dvi_isa::{ArchReg, RegMask};
/// use dvi_core::Lvm;
///
/// let mut lvm = Lvm::new_all_live();
/// lvm.kill_mask(RegMask::from_range(16, 23));
/// assert_eq!(lvm.dead_count(), 8);
/// lvm.set_live(ArchReg::new(16));
/// assert_eq!(lvm.dead_count(), 7);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Lvm {
    live: RegMask,
}

impl Lvm {
    /// Creates an LVM with every register live (the reset state, also used
    /// after events that disrupt tracking, such as exceptions or `longjmp`).
    #[must_use]
    pub fn new_all_live() -> Self {
        Lvm { live: RegMask::all() }
    }

    /// Creates an LVM from an explicit live mask. The zero register is
    /// forced live.
    #[must_use]
    pub fn from_live_mask(mask: RegMask) -> Self {
        Lvm { live: mask.with(ArchReg::ZERO) }
    }

    /// The current live mask.
    #[must_use]
    pub fn live_mask(&self) -> RegMask {
        self.live
    }

    /// Whether `reg` currently holds a live value.
    #[must_use]
    pub fn is_live(&self, reg: ArchReg) -> bool {
        self.live.contains(reg)
    }

    /// Number of live registers.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of dead registers.
    #[must_use]
    pub fn dead_count(&self) -> usize {
        dvi_isa::NUM_ARCH_REGS - self.live_count()
    }

    /// Marks `reg` live (performed by destination renaming at decode).
    pub fn set_live(&mut self, reg: ArchReg) {
        self.live.insert(reg);
    }

    /// Kills a single register (marks its value dead).
    ///
    /// Killing the zero register is a no-op: its value is architecturally
    /// constant and always "live".
    pub fn kill(&mut self, reg: ArchReg) {
        if !reg.is_zero() {
            self.live.remove(reg);
        }
    }

    /// Kills every register in `mask` (an E-DVI kill mask or the ABI's
    /// implicit-DVI mask).
    pub fn kill_mask(&mut self, mask: RegMask) {
        self.live = (self.live - mask).with(ArchReg::ZERO);
    }

    /// Resets every register to live. Used on events that disrupt DVI
    /// tracking (exceptions, non-standard call/return sequences): the paper's
    /// simple strategy is to flush and safely assume all registers are live.
    pub fn flush_all_live(&mut self) {
        self.live = RegMask::all();
    }

    /// Overwrites this LVM with the contents of `other` (used when an
    /// LVM-Stack entry is popped back at a procedure return, or when a saved
    /// LVM is reloaded by `lvm-load` at a context switch).
    pub fn restore_from(&mut self, other: &Lvm) {
        self.live = other.live;
    }
}

impl Default for Lvm {
    fn default() -> Self {
        Lvm::new_all_live()
    }
}

impl fmt::Debug for Lvm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lvm{{live: {}, dead: {}}}", self.live_count(), self.dead_count())
    }
}

impl fmt::Display for Lvm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "live={}", self.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_all_live() {
        let lvm = Lvm::new_all_live();
        assert_eq!(lvm.live_count(), 32);
        assert_eq!(lvm.dead_count(), 0);
        assert!(ArchReg::all().all(|r| lvm.is_live(r)));
    }

    #[test]
    fn kill_and_revive_single_register() {
        let mut lvm = Lvm::new_all_live();
        let r16 = ArchReg::new(16);
        lvm.kill(r16);
        assert!(!lvm.is_live(r16));
        assert_eq!(lvm.dead_count(), 1);
        lvm.set_live(r16);
        assert!(lvm.is_live(r16));
        assert_eq!(lvm.dead_count(), 0);
    }

    #[test]
    fn zero_register_cannot_be_killed() {
        let mut lvm = Lvm::new_all_live();
        lvm.kill(ArchReg::ZERO);
        assert!(lvm.is_live(ArchReg::ZERO));
        lvm.kill_mask(RegMask::all());
        assert!(lvm.is_live(ArchReg::ZERO));
        assert_eq!(lvm.live_count(), 1);
    }

    #[test]
    fn kill_mask_applies_idvi() {
        let abi = dvi_isa::Abi::mips_like();
        let mut lvm = Lvm::new_all_live();
        lvm.kill_mask(abi.idvi_mask());
        for r in abi.idvi_mask().iter() {
            assert!(!lvm.is_live(r), "{r} should be dead after I-DVI");
        }
        for r in abi.callee_saved().iter() {
            assert!(lvm.is_live(r), "{r} callee-saved registers are untouched by I-DVI");
        }
    }

    #[test]
    fn flush_resets_everything_live() {
        let mut lvm = Lvm::new_all_live();
        lvm.kill_mask(RegMask::from_range(8, 23));
        assert!(lvm.dead_count() > 0);
        lvm.flush_all_live();
        assert_eq!(lvm.dead_count(), 0);
    }

    #[test]
    fn restore_from_copies_state() {
        let mut a = Lvm::new_all_live();
        a.kill_mask(RegMask::from_range(16, 19));
        let mut b = Lvm::new_all_live();
        b.restore_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn from_live_mask_pins_zero() {
        let lvm = Lvm::from_live_mask(RegMask::empty());
        assert!(lvm.is_live(ArchReg::ZERO));
        assert_eq!(lvm.live_count(), 1);
    }

    #[test]
    fn debug_and_display_nonempty() {
        let lvm = Lvm::default();
        assert!(!format!("{lvm:?}").is_empty());
        assert!(!lvm.to_string().is_empty());
    }

    proptest! {
        #[test]
        fn live_and_dead_counts_are_complementary(bits in any::<u32>()) {
            let lvm = Lvm::from_live_mask(RegMask::from_bits(bits));
            prop_assert_eq!(lvm.live_count() + lvm.dead_count(), dvi_isa::NUM_ARCH_REGS);
        }

        #[test]
        fn kill_mask_then_query(bits in any::<u32>(), kill in any::<u32>()) {
            let mut lvm = Lvm::from_live_mask(RegMask::from_bits(bits));
            let kill_mask = RegMask::from_bits(kill);
            lvm.kill_mask(kill_mask);
            for r in kill_mask.iter() {
                if !r.is_zero() {
                    prop_assert!(!lvm.is_live(r));
                }
            }
            prop_assert!(lvm.is_live(ArchReg::ZERO));
        }
    }
}
