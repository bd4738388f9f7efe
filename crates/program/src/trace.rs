//! Dynamic instruction records produced by the functional interpreter.

use crate::ir::ProcId;
use crate::layout::LayoutProgram;
use dvi_isa::{Instr, RegMask};

/// One dynamic instruction: the instruction itself plus everything the
/// timing simulator needs to model it without re-executing it (resolved
/// memory address, branch outcome and the actual next program counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Position in the dynamic instruction stream (0-based).
    pub seq: u64,
    /// Program counter (instruction index in the layout image).
    pub pc: u32,
    /// The instruction executed.
    pub instr: Instr,
    /// Procedure the instruction belongs to.
    pub proc: ProcId,
    /// Effective address for memory instructions.
    pub mem_addr: Option<u64>,
    /// Outcome for conditional branches.
    pub taken: Option<bool>,
    /// The program counter of the next dynamic instruction.
    pub next_pc: u32,
}

/// A source of dynamic instructions driving a timing simulation.
///
/// This is the seam between the program substrate and the timing simulator:
/// the simulator pulls one [`DynInst`] at a time until the source is exhausted.
/// The trait is blanket-implemented for every `Iterator<Item = DynInst>`,
/// so the live [`crate::Interpreter`], a [`crate::TraceCursor`] over a
/// [`crate::CapturedTrace`], and plain collections of records all qualify
/// without adapters.
pub trait InstrSource {
    /// Pulls the next dynamic instruction, or `None` when the stream is
    /// over. Once `None` is returned the source stays exhausted.
    fn next_instr(&mut self) -> Option<DynInst>;
}

impl<I: Iterator<Item = DynInst>> InstrSource for I {
    #[inline]
    fn next_instr(&mut self) -> Option<DynInst> {
        self.next()
    }
}

impl DynInst {
    /// Byte address of the instruction (for I-cache / predictor indexing).
    #[must_use]
    pub fn byte_addr(&self) -> u64 {
        LayoutProgram::byte_addr(self.pc)
    }

    /// Byte address of the fall-through instruction.
    #[must_use]
    pub fn fallthrough_byte_addr(&self) -> u64 {
        LayoutProgram::byte_addr(self.pc + 1)
    }

    /// Whether this is a callee save (`live-store`).
    #[must_use]
    pub fn is_save(&self) -> bool {
        self.instr.is_save()
    }

    /// Whether this is a callee restore (`live-load`).
    #[must_use]
    pub fn is_restore(&self) -> bool {
        self.instr.is_restore()
    }

    /// Whether the instruction references memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.instr.is_mem()
    }

    /// The E-DVI kill mask, if this is a `kill` instruction.
    #[must_use]
    pub fn kill_mask(&self) -> Option<RegMask> {
        match self.instr {
            Instr::Kill { mask } => Some(mask),
            _ => None,
        }
    }

    /// Whether control actually transferred away from the fall-through path
    /// (taken branch, jump, call, return).
    #[must_use]
    pub fn redirects_fetch(&self) -> bool {
        self.next_pc != self.pc + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_isa::ArchReg;

    fn dyn_inst(instr: Instr, pc: u32, next_pc: u32) -> DynInst {
        DynInst { seq: 0, pc, instr, proc: ProcId(0), mem_addr: None, taken: None, next_pc }
    }

    #[test]
    fn byte_addresses_are_word_scaled() {
        let d = dyn_inst(Instr::Nop, 5, 6);
        assert_eq!(d.byte_addr(), 20);
        assert_eq!(d.fallthrough_byte_addr(), 24);
    }

    #[test]
    fn save_restore_and_kill_classification() {
        let save =
            dyn_inst(Instr::LiveStore { rs: ArchReg::new(16), base: ArchReg::SP, offset: 0 }, 0, 1);
        assert!(save.is_save() && save.is_mem() && !save.is_restore());
        let kill = dyn_inst(Instr::Kill { mask: RegMask::from_range(16, 17) }, 0, 1);
        assert_eq!(kill.kill_mask(), Some(RegMask::from_range(16, 17)));
        assert_eq!(save.kill_mask(), None);
    }

    #[test]
    fn redirects_fetch_detects_taken_control() {
        assert!(!dyn_inst(Instr::Nop, 3, 4).redirects_fetch());
        assert!(dyn_inst(Instr::Jump { target: 9 }, 3, 9).redirects_fetch());
    }
}
