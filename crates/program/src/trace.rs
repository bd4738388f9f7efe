//! Dynamic instruction records: the record step both sources yield, and
//! the full [`DynInst`] built from it for the trace's analysis consumers.

use crate::ir::ProcId;
use crate::layout::LayoutProgram;
use dvi_isa::{Instr, RegMask};

/// The dynamic facts of one record: everything the static image cannot
/// supply. The instruction, its decode and its procedure are functions of
/// the PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Program counter (instruction index in the static image).
    pub pc: u32,
    /// Effective address of a memory instruction.
    pub mem_addr: Option<u64>,
    /// Whether the record transfers control: a taken branch, a jump, a
    /// call, a return or the halt. A conditional branch is taken exactly
    /// when its record ends a run.
    pub ends_run: bool,
    /// The PC of the next record.
    pub next_pc: u32,
}

/// A source of records driving a timing simulation: the live
/// [`crate::Interpreter`] or a [`crate::TraceCursor`] into a
/// [`crate::CapturedTrace`].
///
/// This is the seam between the program substrate and the timing
/// simulator: the simulator decodes [`RecordSource::image`] once, then
/// pulls one [`Step`] at a time and indexes that decode by its PC.
pub trait RecordSource {
    /// The static instruction image every record's PC indexes.
    fn image(&self) -> &[Instr];

    /// The next record, or `None` when the stream is over. Once `None` is
    /// returned the source stays exhausted.
    fn step(&mut self) -> Option<Step>;
}

/// One dynamic instruction: a [`Step`] with its sequence number, its
/// instruction and procedure looked up in the static image, and the branch
/// outcome spelled out. The dependence graph, the oracles, fusion and the
/// tests read these; the timing simulator reads [`Step`]s.
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

impl DynInst {
    /// The record `seq` described by `step`, whose PC holds `instr` of
    /// procedure `proc`.
    #[must_use]
    pub fn from_step(seq: u64, step: Step, instr: Instr, proc: ProcId) -> DynInst {
        let Step { pc, mem_addr, ends_run, next_pc } = step;
        let taken = matches!(instr, Instr::Branch { .. }).then_some(ends_run);
        DynInst { seq, pc, instr, proc, mem_addr, taken, next_pc }
    }

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
