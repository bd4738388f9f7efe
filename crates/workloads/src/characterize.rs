//! Figure-3-style benchmark characterization.

use dvi_isa::Abi;
use dvi_program::{Interpreter, Program};
use std::fmt;

/// Dynamic instruction-mix characterization of a benchmark (the paper's
/// Figure 3: dynamic instruction count, and calls, memory references and
/// saves/restores as a percentage of total dynamic instructions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Characterization {
    /// Dynamic instructions executed.
    pub dyn_instrs: u64,
    /// Dynamic procedure calls.
    pub calls: u64,
    /// Dynamic memory references (loads + stores, including saves and
    /// restores).
    pub mem_refs: u64,
    /// Dynamic callee saves and restores.
    pub saves_restores: u64,
    /// Dynamic conditional branches.
    pub branches: u64,
    /// Explicit `kill` instructions (zero for baseline binaries).
    pub kills: u64,
    /// Whether the program ran to completion within the instruction budget.
    pub completed: bool,
}

impl Characterization {
    /// Calls as a percentage of dynamic instructions.
    #[must_use]
    pub fn call_pct(&self) -> f64 {
        pct(self.calls, self.dyn_instrs)
    }

    /// Memory references as a percentage of dynamic instructions.
    #[must_use]
    pub fn mem_pct(&self) -> f64 {
        pct(self.mem_refs, self.dyn_instrs)
    }

    /// Saves+restores as a percentage of dynamic instructions.
    #[must_use]
    pub fn save_restore_pct(&self) -> f64 {
        pct(self.saves_restores, self.dyn_instrs)
    }

    /// E-DVI annotations as a percentage of dynamic instructions (the
    /// fetch-overhead column of Figure 13).
    #[must_use]
    pub fn kill_pct(&self) -> f64 {
        pct(self.kills, self.dyn_instrs)
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl fmt::Display for Characterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions ({:.2}% calls, {:.1}% memory, {:.1}% saves/restores)",
            self.dyn_instrs,
            self.call_pct(),
            self.mem_pct(),
            self.save_restore_pct()
        )
    }
}

/// Characterizes a *bare* (uncompiled) program by first lowering it with the
/// standard baseline pipeline (prologue/epilogue, no E-DVI), then executing
/// up to `max_instrs` instructions — this matches what Figure 3 reports for
/// the paper's baseline binaries.
#[must_use]
pub fn characterize(program: &Program, max_instrs: u64) -> Characterization {
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(
        program,
        &abi,
        dvi_compiler::CompileOptions { edvi: dvi_core::EdviPlacement::None },
    )
    .expect("baseline compilation of a valid program succeeds");
    characterize_compiled(&compiled.program, max_instrs)
}

/// Characterizes an already-compiled program by executing up to
/// `max_instrs` instructions.
#[must_use]
pub fn characterize_compiled(program: &Program, max_instrs: u64) -> Characterization {
    let layout = program.layout().expect("compiled programs lay out");
    let image = layout.code();
    let mut interp = Interpreter::new(&layout).with_step_limit(max_instrs);
    let mut c = Characterization::default();
    for step in interp.by_ref() {
        let instr = image[step.pc as usize];
        c.dyn_instrs += 1;
        if instr.is_call() {
            c.calls += 1;
        }
        if instr.is_mem() {
            c.mem_refs += 1;
        }
        if instr.is_save() || instr.is_restore() {
            c.saves_restores += 1;
        }
        if instr.is_cond_branch() {
            c.branches += 1;
        }
        if instr.is_dvi() {
            c.kills += 1;
        }
    }
    c.completed = interp.halted();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::spec::WorkloadSpec;

    #[test]
    fn characterization_counts_are_consistent() {
        let prog = generate(&WorkloadSpec::small("toy", 21));
        let c = characterize(&prog, 200_000);
        assert!(c.dyn_instrs > 1_000);
        assert!(c.calls > 0);
        assert!(c.mem_refs >= c.saves_restores);
        assert!(c.saves_restores > 0, "compiled programs save and restore callee-saved registers");
        assert_eq!(c.kills, 0, "baseline binaries carry no E-DVI");
        assert!(c.call_pct() > 0.0 && c.call_pct() < 100.0);
        assert!(c.mem_pct() < 100.0);
        assert!(c.to_string().contains("instructions"));
    }

    #[test]
    fn edvi_binaries_show_kills() {
        let prog = generate(&WorkloadSpec::small("toy", 22));
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&prog, &abi, dvi_compiler::CompileOptions::default()).unwrap();
        let c = characterize_compiled(&compiled.program, 200_000);
        assert!(c.kills > 0);
        assert!(c.kill_pct() < 10.0, "E-DVI overhead should be small");
    }

    #[test]
    fn zero_denominator_is_handled() {
        let c = Characterization::default();
        assert_eq!(c.call_pct(), 0.0);
        assert_eq!(c.mem_pct(), 0.0);
    }
}
