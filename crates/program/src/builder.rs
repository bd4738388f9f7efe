//! Fluent construction of programs and procedures.

use crate::error::ProgramError;
use crate::ir::{BasicBlock, BlockId, ProcId, Procedure, Program};
use dvi_isa::Instr;
use std::collections::HashMap;

/// Builds a single procedure block by block.
///
/// Blocks are created with [`ProcBuilder::new_block`] and selected with
/// [`ProcBuilder::switch_to`]; instructions are appended to the current
/// block with [`ProcBuilder::emit`]. Calls may be emitted by callee *name*
/// ([`ProcBuilder::emit_call`]); the [`ProgramBuilder`] resolves names to
/// procedure indices when the program is assembled, so procedures can call
/// forward to procedures defined later (or themselves, recursively).
#[derive(Debug, Clone)]
pub struct ProcBuilder {
    name: String,
    blocks: Vec<BasicBlock>,
    current: usize,
    // (block, instruction index) positions whose Call target must be patched
    // to the ProcId of the named callee.
    call_patches: Vec<(usize, usize, String)>,
    frame_slots: u32,
}

impl ProcBuilder {
    /// Starts a new procedure with one (empty) entry block.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProcBuilder {
            name: name.into(),
            blocks: vec![BasicBlock::new()],
            current: 0,
            call_patches: Vec::new(),
            frame_slots: 0,
        }
    }

    /// The procedure name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves `slots` words of stack frame (used by the compiler's
    /// prologue/epilogue pass for callee-save slots and locals).
    pub fn reserve_frame_slots(&mut self, slots: u32) {
        self.frame_slots = self.frame_slots.max(slots);
    }

    /// Creates a new, empty block and returns its id (without switching to
    /// it).
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::new());
        BlockId(self.blocks.len() - 1)
    }

    /// Makes `block` the target of subsequent [`ProcBuilder::emit`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(block.0 < self.blocks.len(), "unknown block {block:?}");
        self.current = block.0;
    }

    /// The block currently being filled.
    #[must_use]
    pub fn current_block(&self) -> BlockId {
        BlockId(self.current)
    }

    /// Appends an instruction to the current block.
    pub fn emit(&mut self, instr: Instr) {
        self.blocks[self.current].instrs.push(instr);
    }

    /// Appends a call to the procedure named `callee`; the target is
    /// resolved when the program is built.
    pub fn emit_call(&mut self, callee: impl Into<String>) {
        let block = self.current;
        let idx = self.blocks[block].instrs.len();
        self.blocks[block].instrs.push(Instr::Call { target: u32::MAX });
        self.call_patches.push((block, idx, callee.into()));
    }

    /// Appends a conditional branch to `target`.
    pub fn emit_branch(
        &mut self,
        op: dvi_isa::CmpOp,
        rs: dvi_isa::ArchReg,
        rt: dvi_isa::ArchReg,
        target: BlockId,
    ) {
        self.emit(Instr::Branch { op, rs, rt, target: target.0 as u32 });
    }

    /// Appends an unconditional jump to `target`.
    pub fn emit_jump(&mut self, target: BlockId) {
        self.emit(Instr::Jump { target: target.0 as u32 });
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Assembles procedures into a [`Program`], resolving call-by-name patches.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    procs: Vec<ProcBuilder>,
    names: HashMap<String, ProcId>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    #[must_use]
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Convenience constructor for a [`ProcBuilder`]; equivalent to
    /// [`ProcBuilder::new`].
    #[must_use]
    pub fn proc_builder(&self, name: impl Into<String>) -> ProcBuilder {
        ProcBuilder::new(name)
    }

    /// Adds a finished procedure to the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::DuplicateProcedure`] if the name is already
    /// taken.
    pub fn add_procedure(&mut self, proc: ProcBuilder) -> Result<ProcId, ProgramError> {
        if self.names.contains_key(proc.name()) {
            return Err(ProgramError::DuplicateProcedure(proc.name().to_owned()));
        }
        let id = ProcId(self.procs.len());
        self.names.insert(proc.name().to_owned(), id);
        self.procs.push(proc);
        Ok(id)
    }

    /// Number of procedures added so far.
    #[must_use]
    pub fn num_procedures(&self) -> usize {
        self.procs.len()
    }

    /// Resolves call targets, validates the result and produces the final
    /// [`Program`] with `entry` as the entry procedure.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] when a call names an undefined procedure,
    /// the entry is missing, or any structural invariant is violated.
    pub fn build(self, entry: &str) -> Result<Program, ProgramError> {
        let entry_id =
            *self.names.get(entry).ok_or_else(|| ProgramError::MissingEntry(entry.to_owned()))?;

        let mut procedures = Vec::with_capacity(self.procs.len());
        for pb in self.procs {
            let mut proc = Procedure::new(pb.name.clone());
            proc.blocks = pb.blocks;
            proc.frame_slots = pb.frame_slots;
            for (block, idx, callee) in pb.call_patches {
                let target = self.names.get(&callee).ok_or_else(|| {
                    ProgramError::UnresolvedCall { proc: pb.name.clone(), callee: callee.clone() }
                })?;
                proc.blocks[block].instrs[idx] = Instr::Call { target: target.0 as u32 };
            }
            procedures.push(proc);
        }

        let program = Program { procedures, entry: entry_id };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_isa::{ArchReg, CmpOp};

    fn leaf(name: &str) -> ProcBuilder {
        let mut p = ProcBuilder::new(name);
        p.emit(Instr::load_imm(ArchReg::new(8), 1));
        p.emit(Instr::Return);
        p
    }

    #[test]
    fn builds_a_single_procedure_program() {
        let mut b = ProgramBuilder::new();
        let mut main = b.proc_builder("main");
        main.emit(Instr::Nop);
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let prog = b.build("main").unwrap();
        assert_eq!(prog.num_instrs(), 2);
        assert_eq!(prog.entry, ProcId(0));
    }

    #[test]
    fn resolves_forward_calls_by_name() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit_call("helper");
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        b.add_procedure(leaf("helper")).unwrap();
        let prog = b.build("main").unwrap();
        let call = &prog.procedures[0].blocks[0].instrs[0];
        assert_eq!(*call, Instr::Call { target: 1 });
    }

    #[test]
    fn unresolved_calls_are_reported() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit_call("nope");
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        assert!(matches!(b.build("main"), Err(ProgramError::UnresolvedCall { .. })));
    }

    #[test]
    fn duplicate_procedures_are_rejected() {
        let mut b = ProgramBuilder::new();
        b.add_procedure(leaf("f")).unwrap();
        assert!(matches!(b.add_procedure(leaf("f")), Err(ProgramError::DuplicateProcedure(_))));
    }

    #[test]
    fn missing_entry_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.add_procedure(leaf("f")).unwrap();
        assert!(matches!(b.build("main"), Err(ProgramError::MissingEntry(_))));
    }

    #[test]
    fn block_structured_control_flow() {
        let mut p = ProcBuilder::new("loop");
        let body = p.new_block();
        let exit = p.new_block();
        p.emit(Instr::load_imm(ArchReg::new(8), 3));
        p.switch_to(body);
        p.emit(Instr::AluImm {
            op: dvi_isa::AluOp::Sub,
            rd: ArchReg::new(8),
            rs: ArchReg::new(8),
            imm: 1,
        });
        p.emit_branch(CmpOp::Ne, ArchReg::new(8), ArchReg::ZERO, body);
        p.switch_to(exit);
        p.emit(Instr::Halt);
        assert_eq!(p.num_instrs(), 4);
        let mut b = ProgramBuilder::new();
        b.add_procedure(p).unwrap();
        let prog = b.build("loop").unwrap();
        assert!(prog.validate().is_ok());
    }

    #[test]
    fn reserve_frame_slots_takes_the_maximum() {
        let mut p = ProcBuilder::new("f");
        p.reserve_frame_slots(4);
        p.reserve_frame_slots(2);
        assert_eq!(p.frame_slots, 4);
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn switch_to_unknown_block_panics() {
        let mut p = ProcBuilder::new("f");
        p.switch_to(BlockId(3));
    }
}
