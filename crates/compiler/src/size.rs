//! Static code-size accounting for the E-DVI overhead experiment.

use dvi_isa::INSTR_BYTES;
use dvi_program::Program;
use std::fmt;

/// Static code-size comparison between a baseline binary and the same
/// binary with E-DVI annotations (Figure 13's "static code size" column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeSizeReport {
    /// Instructions in the baseline binary.
    pub base_instrs: usize,
    /// Instructions in the annotated binary.
    pub edvi_instrs: usize,
}

impl CodeSizeReport {
    /// Compares two programs (typically: before and after
    /// [`crate::insert_edvi`]).
    #[must_use]
    pub fn compare(base: &Program, with_edvi: &Program) -> Self {
        CodeSizeReport { base_instrs: base.num_instrs(), edvi_instrs: with_edvi.num_instrs() }
    }

    /// Baseline code size in bytes.
    #[must_use]
    pub fn base_bytes(&self) -> u64 {
        self.base_instrs as u64 * INSTR_BYTES
    }

    /// Code-size increase in percent.
    #[must_use]
    pub fn pct_increase(&self) -> f64 {
        if self.base_instrs == 0 {
            0.0
        } else {
            100.0 * (self.edvi_instrs as f64 - self.base_instrs as f64) / self.base_instrs as f64
        }
    }
}

/// Counts the explicit `kill` instructions in a program.
#[must_use]
pub fn count_kills(program: &Program) -> usize {
    program.procedures.iter().flat_map(|p| p.iter_instrs()).filter(|(_, i)| i.is_dvi()).count()
}

impl fmt::Display for CodeSizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} instructions (+{:.2}%)",
            self.base_instrs,
            self.edvi_instrs,
            self.pct_increase()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_isa::{Abi, ArchReg, Instr};
    use dvi_program::{ProcBuilder, ProgramBuilder};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit(Instr::load_imm(ArchReg::new(16), 1));
        main.emit_call("leaf");
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut leaf = ProcBuilder::new("leaf");
        leaf.emit(Instr::load_imm(ArchReg::new(16), 2));
        leaf.emit(Instr::Return);
        b.add_procedure(leaf).unwrap();
        b.build("main").unwrap()
    }

    #[test]
    fn report_measures_growth() {
        let base = tiny_program();
        let mut annotated = base.clone();
        let abi = Abi::mips_like();
        crate::add_prologue_epilogue(&mut annotated, &abi);
        let with_saves = annotated.clone();
        crate::insert_edvi(&mut annotated, &abi, dvi_core::EdviPlacement::BeforeCalls);
        let report = CodeSizeReport::compare(&with_saves, &annotated);
        assert_eq!(report.edvi_instrs - report.base_instrs, count_kills(&annotated));
        assert!(report.pct_increase() > 0.0);
        assert_eq!(report.base_bytes() % 4, 0);
        assert!(report.to_string().contains("instructions"));
    }

    #[test]
    fn zero_base_is_handled() {
        let r = CodeSizeReport { base_instrs: 0, edvi_instrs: 0 };
        assert_eq!(r.pct_increase(), 0.0);
    }

    #[test]
    fn count_kills_only_counts_kills() {
        let base = tiny_program();
        assert_eq!(count_kills(&base), 0);
    }
}
