//! Explicit DVI insertion.

use crate::liveness::Liveness;
use crate::prologue::clobbered_callee_saved;
use dvi_core::EdviPlacement;
use dvi_isa::{Abi, Instr, RegMask};
use dvi_program::{BlockId, Program};

/// What [`insert_edvi`] added to the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdviReport {
    /// `kill` instructions inserted.
    pub kill_instructions: usize,
    /// Total registers named across all inserted kill masks.
    pub regs_killed: usize,
}

/// Inserts explicit DVI (`kill`) instructions into `program`.
///
/// With [`EdviPlacement::BeforeCalls`] — the strategy the paper evaluates —
/// a single kill instruction is inserted immediately before a call site,
/// carrying a mask of the callee-saved registers that are
///
/// 1. **dead at the call site** (intra-procedural liveness in the caller),
///    and
/// 2. **assigned to in the callee** (otherwise the callee will not save them
///    and the information cannot eliminate anything).
///
/// These are exactly the two conditions of Section 5.1 that bound E-DVI
/// overhead to at most one annotation per dynamic call.
pub fn insert_edvi(program: &mut Program, abi: &Abi, placement: EdviPlacement) -> EdviReport {
    let mut report = EdviReport::default();
    if placement == EdviPlacement::None {
        return report;
    }

    // The set of callee-saved registers each procedure writes, used for
    // condition (2).
    let callee_clobbers: Vec<RegMask> =
        program.procedures.iter().map(|p| clobbered_callee_saved(p, abi)).collect();

    // Registers we never kill explicitly: reserved registers and anything
    // outside a one-word `kill` mask (r0-r5).
    let unkillable = RegMask::from_range(0, 5)
        .with(dvi_isa::ArchReg::SP)
        .with(dvi_isa::ArchReg::RA)
        .with(dvi_isa::ArchReg::FP);

    for proc in &mut program.procedures {
        let liveness = Liveness::analyze(proc, abi);
        for bi in 0..proc.blocks.len() {
            let live_after = liveness.live_after_instrs(proc, abi, BlockId(bi));

            // Collect insertion points first (index, mask, in block order),
            // then splice in reverse so earlier indices stay valid.
            let mut insertions: Vec<(usize, RegMask)> = Vec::new();

            for (ii, instr) in proc.blocks[bi].instrs.iter().enumerate() {
                if let Instr::Call { target } = instr {
                    let clobbered = callee_clobbers[*target as usize];
                    let dead = (abi.callee_saved() - live_after[ii]) & clobbered;
                    let mask = dead - unkillable;
                    if !mask.is_empty() {
                        insertions.push((ii, mask));
                    }
                }
            }

            for (idx, mask) in insertions.into_iter().rev() {
                proc.blocks[bi].instrs.insert(idx, Instr::Kill { mask });
                report.kill_instructions += 1;
                report.regs_killed += mask.len();
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prologue::add_prologue_epilogue;
    use dvi_isa::{AluOp, ArchReg};
    use dvi_program::{Interpreter, ProcBuilder, ProgramBuilder};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// Builds the paper's Figure 7 situation: `caller_dead` calls `proc`
    /// with r16 dead, `caller_live` calls it with r16 live.
    fn figure7_program() -> Program {
        let mut b = ProgramBuilder::new();

        let mut main = ProcBuilder::new("main");
        main.emit_call("caller_live");
        main.emit_call("caller_dead");
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();

        // r16 is live across the call: defined before, used after.
        let mut live = ProcBuilder::new("caller_live");
        live.emit(Instr::load_imm(r(16), 7));
        live.emit_call("proc");
        live.emit(Instr::Alu { op: AluOp::Add, rd: r(9), rs: r(16), rt: r(16) });
        live.emit(Instr::Return);
        b.add_procedure(live).unwrap();

        // r16 is dead at the call: defined and last used before it.
        let mut dead = ProcBuilder::new("caller_dead");
        dead.emit(Instr::load_imm(r(16), 3));
        dead.emit(Instr::Alu { op: AluOp::Add, rd: r(8), rs: r(16), rt: r(16) });
        dead.emit_call("proc");
        dead.emit(Instr::Return);
        b.add_procedure(dead).unwrap();

        // The callee writes r16, so it must save and restore it.
        let mut callee = ProcBuilder::new("proc");
        callee.emit(Instr::load_imm(r(16), 99));
        callee.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: r(16), rt: r(16) });
        callee.emit(Instr::Return);
        b.add_procedure(callee).unwrap();

        b.build("main").unwrap()
    }

    #[test]
    fn kill_is_inserted_only_where_the_register_is_dead() {
        let mut prog = figure7_program();
        let abi = Abi::mips_like();
        add_prologue_epilogue(&mut prog, &abi);
        let report = insert_edvi(&mut prog, &abi, EdviPlacement::BeforeCalls);
        assert!(report.kill_instructions >= 1);
        assert!(report.regs_killed >= report.kill_instructions);

        // The call site where r16 is dead gets a kill...
        let dead_caller = &prog.procedures[prog.proc_by_name("caller_dead").unwrap().0];
        let kills_in_dead = dead_caller.iter_instrs().filter(|(_, i)| i.is_dvi()).count();
        assert_eq!(kills_in_dead, 1);
        // ...and the call site where r16 is live across the call does not.
        let live_caller = &prog.procedures[prog.proc_by_name("caller_live").unwrap().0];
        assert!(!live_caller.iter_instrs().any(|(_, i)| i.is_dvi()));
    }

    #[test]
    fn kill_precedes_the_call_it_annotates() {
        let mut prog = figure7_program();
        let abi = Abi::mips_like();
        add_prologue_epilogue(&mut prog, &abi);
        insert_edvi(&mut prog, &abi, EdviPlacement::BeforeCalls);
        let dead_caller = &prog.procedures[prog.proc_by_name("caller_dead").unwrap().0];
        let instrs: Vec<&Instr> = dead_caller.blocks[0].instrs.iter().collect();
        let kill_pos = instrs.iter().position(|i| i.is_dvi()).unwrap();
        assert!(instrs[kill_pos + 1].is_call());
        match instrs[kill_pos] {
            Instr::Kill { mask } => assert!(mask.contains(r(16))),
            other => panic!("expected kill, found {other}"),
        }
    }

    #[test]
    fn no_kill_when_the_callee_does_not_touch_callee_saved_registers() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit(Instr::load_imm(r(16), 3));
        main.emit(Instr::mov(r(8), r(16)));
        main.emit_call("leaf");
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut leaf = ProcBuilder::new("leaf");
        leaf.emit(Instr::load_imm(r(8), 1));
        leaf.emit(Instr::Return);
        b.add_procedure(leaf).unwrap();
        let mut prog = b.build("main").unwrap();
        let abi = Abi::mips_like();
        add_prologue_epilogue(&mut prog, &abi);
        let report = insert_edvi(&mut prog, &abi, EdviPlacement::BeforeCalls);
        assert_eq!(report.kill_instructions, 0);
    }

    #[test]
    fn none_placement_inserts_nothing() {
        let mut prog = figure7_program();
        let before = prog.num_instrs();
        let report = insert_edvi(&mut prog, &Abi::mips_like(), EdviPlacement::None);
        assert_eq!(report.kill_instructions, 0);
        assert_eq!(prog.num_instrs(), before);
    }

    #[test]
    fn program_still_runs_correctly_with_edvi() {
        let abi = Abi::mips_like();
        let mut prog = figure7_program();
        add_prologue_epilogue(&mut prog, &abi);
        insert_edvi(&mut prog, &abi, EdviPlacement::BeforeCalls);
        assert!(prog.validate().is_ok());
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout).with_step_limit(100_000);
        let _ = interp.by_ref().count();
        assert!(interp.summary().halted);
        assert_eq!(interp.summary().error, None);
    }
}
