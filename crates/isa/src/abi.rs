//! The calling convention (ABI) from which implicit DVI is deduced.

use crate::reg::ArchReg;
use crate::regmask::RegMask;

/// The machine calling convention.
///
/// The ABI partitions the general-purpose registers into *caller-saved* and
/// *callee-saved* sets. The paper's implicit DVI (I-DVI) rule follows
/// directly from it: the values of caller-saved registers are dead at the
/// entry and exit points of every procedure, so every dynamic `call` and
/// `return` kills them at no encoding cost.
///
/// The default [`Abi::mips_like`] convention mirrors the MIPS o32 split used
/// by the paper's SimpleScalar/GCC toolchain:
///
/// * `r8`–`r15`, `r24`, `r25` — caller-saved temporaries,
/// * `r16`–`r23`, `r30` — callee-saved,
/// * `r2`, `r3` — return values, `r4`–`r7` — arguments (caller-saved),
/// * `r29` stack pointer, `r31` return address, `r0` hard-wired zero.
///
/// # Example
///
/// ```
/// use dvi_isa::{Abi, ArchReg};
///
/// let abi = Abi::mips_like();
/// assert!(abi.is_callee_saved(ArchReg::new(16)));
/// assert!(abi.is_caller_saved(ArchReg::new(8)));
/// // I-DVI at a call kills caller-saved registers (minus the argument and
/// // return-value registers, which carry values across the call boundary).
/// assert!(abi.idvi_mask().is_subset(abi.caller_saved()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abi {
    caller_saved: RegMask,
    callee_saved: RegMask,
    arg_regs: Vec<ArchReg>,
    ret_reg: ArchReg,
    idvi_mask: RegMask,
}

impl Abi {
    /// The MIPS-o32-like convention used throughout the reproduction.
    #[must_use]
    pub fn mips_like() -> Self {
        // v0-v1 (r2,r3), a0-a3 (r4..r7), t0-t9 (r8..r15, r24, r25)
        let mut caller = RegMask::from_range(2, 15);
        caller.insert(ArchReg::new(24));
        caller.insert(ArchReg::new(25));
        // s0-s7 (r16..r23), fp (r30)
        let mut callee = RegMask::from_range(16, 23);
        callee.insert(ArchReg::FP);

        Abi {
            caller_saved: caller,
            callee_saved: callee,
            arg_regs: (4..8).map(ArchReg::new).collect(),
            ret_reg: ArchReg::RV,
            // The I-DVI mask defaults to the caller-saved set, per the paper;
            // argument/return registers are excluded so that values being
            // passed across the call boundary are never killed.
            idvi_mask: caller
                .without(ArchReg::RV)
                .without(ArchReg::new(3))
                .without(ArchReg::new(4))
                .without(ArchReg::new(5))
                .without(ArchReg::new(6))
                .without(ArchReg::new(7)),
        }
    }

    /// Builds a custom ABI.
    ///
    /// # Panics
    ///
    /// Panics if the caller-saved and callee-saved sets overlap, or if either
    /// contains the zero register, stack pointer or return-address register.
    #[must_use]
    pub fn new(caller_saved: RegMask, callee_saved: RegMask, idvi_mask: RegMask) -> Self {
        assert!(
            caller_saved.is_disjoint(callee_saved),
            "caller-saved and callee-saved register sets overlap"
        );
        let reserved = RegMask::from_regs([ArchReg::ZERO, ArchReg::SP, ArchReg::RA]);
        assert!(
            caller_saved.is_disjoint(reserved) && callee_saved.is_disjoint(reserved),
            "reserved registers cannot be caller- or callee-saved"
        );
        assert!(
            idvi_mask.is_subset(caller_saved),
            "the I-DVI mask must be a subset of the caller-saved set"
        );
        Abi {
            caller_saved,
            callee_saved,
            arg_regs: (4..8).map(ArchReg::new).collect(),
            ret_reg: ArchReg::RV,
            idvi_mask,
        }
    }

    /// The caller-saved (temporary) register set.
    #[must_use]
    pub fn caller_saved(&self) -> RegMask {
        self.caller_saved
    }

    /// The callee-saved register set.
    #[must_use]
    pub fn callee_saved(&self) -> RegMask {
        self.callee_saved
    }

    /// Registers used to pass the first procedure arguments.
    #[must_use]
    pub fn arg_regs(&self) -> &[ArchReg] {
        &self.arg_regs
    }

    /// The register holding a procedure's return value.
    #[must_use]
    pub fn ret_reg(&self) -> ArchReg {
        self.ret_reg
    }

    /// The mask of registers implicitly killed by every dynamic call and
    /// return (the paper's "ABI supplied mask"). A cleared mask disables
    /// I-DVI, which the paper suggests for debugging.
    #[must_use]
    pub fn idvi_mask(&self) -> RegMask {
        self.idvi_mask
    }

    /// Returns a copy of this ABI with I-DVI disabled (empty implicit mask).
    #[must_use]
    pub fn without_idvi(mut self) -> Self {
        self.idvi_mask = RegMask::empty();
        self
    }

    /// Whether `reg` is caller-saved.
    #[must_use]
    pub fn is_caller_saved(&self, reg: ArchReg) -> bool {
        self.caller_saved.contains(reg)
    }

    /// Whether `reg` is callee-saved.
    #[must_use]
    pub fn is_callee_saved(&self, reg: ArchReg) -> bool {
        self.callee_saved.contains(reg)
    }
}

impl Default for Abi {
    fn default() -> Self {
        Abi::mips_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mips_like_partition_is_disjoint() {
        let abi = Abi::mips_like();
        assert!(abi.caller_saved().is_disjoint(abi.callee_saved()));
        assert!(!abi.caller_saved().is_empty());
        assert!(!abi.callee_saved().is_empty());
        // Every mask E-DVI can kill lies in r6-r31, so a `kill` fits in one
        // instruction word (Figure 13's code-size accounting).
        let one_word = RegMask::from_range(6, 31);
        assert!(abi.callee_saved().is_subset(one_word));
        assert!(abi.caller_saved().difference(RegMask::from_range(0, 5)).is_subset(one_word));
    }

    #[test]
    fn mips_like_well_known_roles() {
        let abi = Abi::mips_like();
        assert!(abi.is_callee_saved(ArchReg::new(16)));
        assert!(abi.is_callee_saved(ArchReg::new(23)));
        assert!(abi.is_callee_saved(ArchReg::FP));
        assert!(abi.is_caller_saved(ArchReg::new(8)));
        assert!(abi.is_caller_saved(ArchReg::new(25)));
        assert!(!abi.is_caller_saved(ArchReg::ZERO));
        assert!(!abi.is_callee_saved(ArchReg::SP));
    }

    #[test]
    fn idvi_mask_excludes_argument_and_return_registers() {
        let abi = Abi::mips_like();
        assert!(abi.idvi_mask().is_subset(abi.caller_saved()));
        assert!(!abi.idvi_mask().contains(ArchReg::RV));
        assert!(!abi.idvi_mask().contains(ArchReg::A0));
        assert!(abi.idvi_mask().contains(ArchReg::new(8)));
    }

    #[test]
    fn without_idvi_clears_mask_only() {
        let abi = Abi::mips_like().without_idvi();
        assert!(abi.idvi_mask().is_empty());
        assert!(!abi.caller_saved().is_empty());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn new_rejects_overlapping_sets() {
        let m = RegMask::from_range(8, 16);
        let _ = Abi::new(m, m, RegMask::empty());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn new_rejects_reserved_registers() {
        let caller = RegMask::from_regs([ArchReg::SP]);
        let _ = Abi::new(caller, RegMask::empty(), RegMask::empty());
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn new_rejects_idvi_outside_caller_saved() {
        let caller = RegMask::from_range(8, 15);
        let callee = RegMask::from_range(16, 23);
        let _ = Abi::new(caller, callee, RegMask::from_range(16, 17));
    }
}
