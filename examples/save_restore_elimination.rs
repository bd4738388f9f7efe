//! The paper's Figure 7/8 scenario, end to end: the same procedure is
//! called from one site where a callee-saved register is live and another
//! where it is dead; the DVI machine drops the save/restore pair only on the
//! dead path.
//!
//! Run with `cargo run --release --example save_restore_elimination`.

use dvi_core::DviConfig;
use dvi_isa::{Abi, AluOp, ArchReg, Instr};
use dvi_program::{Interpreter, ProcBuilder, ProgramBuilder};
use dvi_sim::{SimConfig, Simulator};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = ProgramBuilder::new();

    // main repeatedly calls both callers.
    let mut main = ProcBuilder::new("main");
    let loop_head = main.new_block();
    let exit = main.new_block();
    main.emit(Instr::load_imm(r(22), 2_000));
    main.switch_to(loop_head);
    main.emit_call("caller_live");
    main.emit_call("caller_dead");
    main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(22), rs: r(22), imm: 1 });
    main.emit_branch(dvi_isa::CmpOp::Ne, r(22), ArchReg::ZERO, loop_head);
    main.switch_to(exit);
    main.emit(Instr::Halt);
    builder.add_procedure(main)?;

    // r16 is live across the call here: proc must preserve it.
    let mut live = ProcBuilder::new("caller_live");
    live.emit(Instr::load_imm(r(16), 7));
    live.emit_call("proc");
    live.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: r(16), rt: ArchReg::RV });
    live.emit(Instr::Return);
    builder.add_procedure(live)?;

    // r16 is dead at the call here: the save/restore in proc is wasted work.
    let mut dead = ProcBuilder::new("caller_dead");
    dead.emit(Instr::load_imm(r(16), 3));
    dead.emit(Instr::Alu { op: AluOp::Add, rd: r(8), rs: r(16), rt: r(16) });
    dead.emit_call("proc");
    dead.emit(Instr::mov(ArchReg::RV, r(8)));
    dead.emit(Instr::Return);
    builder.add_procedure(dead)?;

    // The callee writes r16, so a single conservatively-compiled version
    // must always save and restore it.
    let mut proc = ProcBuilder::new("proc");
    proc.emit(Instr::load_imm(r(16), 99));
    proc.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: r(16), rt: r(16) });
    proc.emit(Instr::Return);
    builder.add_procedure(proc)?;

    let bare = builder.build("main")?;
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&bare, &abi, dvi_compiler::CompileOptions::default())?;
    println!("compiler: {}", compiled.report);
    let layout = compiled.program.layout()?;

    let stats = Simulator::new(SimConfig::micro97().with_dvi(DviConfig::full()))
        .run(Interpreter::new(&layout).with_step_limit(200_000));

    println!("machine with LVM-Stack scheme: {stats}");
    println!(
        "saves seen {} / eliminated {}   restores seen {} / eliminated {}",
        stats.dvi.saves_seen,
        stats.dvi.saves_eliminated,
        stats.dvi.restores_seen,
        stats.dvi.restores_eliminated
    );
    println!(
        "≈ half of proc's dynamic save/restore pairs come from caller_dead and are dropped: {:.1}%",
        stats.pct_save_restores_eliminated()
    );
    Ok(())
}
