//! The machine instruction set, including the DVI extensions.

use crate::aluop::{AluOp, CmpOp};
use crate::class::InstrClass;
use crate::reg::ArchReg;
use crate::regmask::RegMask;
use std::fmt;

/// Size of an instruction in bytes. Every instruction occupies one 32-bit
/// word, which the static code-size accounting of Figure 13 relies on: an
/// E-DVI `kill` is one word, its mask covering `r6`–`r31`, which holds
/// every caller- and callee-saved register of the ABI.
pub const INSTR_BYTES: u64 = 4;

/// A machine instruction.
///
/// Control-transfer targets (`Branch`, `Jump`, `Call`) are plain `u32`
/// values. Before layout (inside the program IR) they are symbolic indices —
/// a block index for branches and jumps, a procedure index for calls — and
/// the layout/link step of `dvi-program` rewrites them into absolute
/// instruction addresses, exactly like relocation in a conventional
/// assembler.
///
/// The DVI extensions proposed by the paper are:
///
/// * [`Instr::Kill`] — explicit DVI: asserts that every register in the mask
///   is dead at this point.
/// * [`Instr::LiveStore`] / [`Instr::LiveLoad`] — save/restore variants that
///   the decoder drops when the data register is dead in the LVM /
///   LVM-Stack.
/// * [`Instr::LvmSave`] / [`Instr::LvmLoad`] — spill and refill the Live
///   Value Mask around a context switch.
///
/// # Example
///
/// ```
/// use dvi_isa::{AluOp, ArchReg, Instr};
///
/// let add = Instr::Alu {
///     op: AluOp::Add,
///     rd: ArchReg::new(8),
///     rs: ArchReg::new(9),
///     rt: ArchReg::new(10),
/// };
/// assert_eq!(add.dst_reg(), Some(ArchReg::new(8)));
/// assert!(!add.is_mem());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Instr {
    /// No operation.
    #[default]
    Nop,
    /// Three-register ALU operation: `rd <- rs op rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: ArchReg,
        /// First source register.
        rs: ArchReg,
        /// Second source register.
        rt: ArchReg,
    },
    /// Register-immediate ALU operation: `rd <- rs op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: ArchReg,
        /// Source register.
        rs: ArchReg,
        /// Immediate operand.
        imm: i32,
    },
    /// Load word: `rd <- mem[base + offset]`.
    Load {
        /// Destination register.
        rd: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i32,
    },
    /// Store word: `mem[base + offset] <- rs`.
    Store {
        /// Data register.
        rs: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i32,
    },
    /// Restore variant of `Load` used in procedure epilogues and context
    /// switch code: only executes when `rd` was live at the matching save
    /// point (LVM-Stack top / saved LVM).
    LiveLoad {
        /// Destination register.
        rd: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i32,
    },
    /// Save variant of `Store` used in procedure prologues and context
    /// switch code: only executes when the data register `rs` is live in the
    /// LVM.
    LiveStore {
        /// Data register.
        rs: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch: `if rs op rt, goto target`.
    Branch {
        /// Comparison.
        op: CmpOp,
        /// First source register.
        rs: ArchReg,
        /// Second source register.
        rt: ArchReg,
        /// Target (block index before layout, instruction address after).
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target (block index before layout, instruction address after).
        target: u32,
    },
    /// Procedure call. Writes the return address into `r31`.
    Call {
        /// Target (procedure index before layout, entry address after).
        target: u32,
    },
    /// Procedure return (jump to `r31`).
    Return,
    /// Explicit DVI: every register in `mask` is dead at this point.
    Kill {
        /// The kill mask.
        mask: RegMask,
    },
    /// Stores the Live Value Mask to `mem[base + offset]` (context-switch
    /// support).
    LvmSave {
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i32,
    },
    /// Loads the Live Value Mask from `mem[base + offset]` (context-switch
    /// support).
    LvmLoad {
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i32,
    },
    /// Stops execution of the program.
    Halt,
}

impl Instr {
    /// A convenience constructor for `rd <- imm` (encoded as `add rd, r0, imm`).
    #[must_use]
    pub fn load_imm(rd: ArchReg, imm: i32) -> Instr {
        Instr::AluImm { op: AluOp::Add, rd, rs: ArchReg::ZERO, imm }
    }

    /// A convenience constructor for `rd <- rs` (encoded as `add rd, rs, 0`).
    #[must_use]
    pub fn mov(rd: ArchReg, rs: ArchReg) -> Instr {
        Instr::AluImm { op: AluOp::Add, rd, rs, imm: 0 }
    }

    /// The architectural destination register written by this instruction,
    /// if any. Writes to the zero register are reported as `None` (they are
    /// discarded).
    #[must_use]
    pub fn dst_reg(&self) -> Option<ArchReg> {
        let dst = match *self {
            Instr::Alu { rd, .. } | Instr::AluImm { rd, .. } => Some(rd),
            Instr::Load { rd, .. } | Instr::LiveLoad { rd, .. } => Some(rd),
            Instr::Call { .. } => Some(ArchReg::RA),
            _ => None,
        };
        dst.filter(|r| !r.is_zero())
    }

    /// The architectural source registers read by this instruction (up to
    /// two). Reads of the zero register are included; they are always ready.
    #[must_use]
    pub fn src_regs(&self) -> [Option<ArchReg>; 2] {
        match *self {
            Instr::Alu { rs, rt, .. } => [Some(rs), Some(rt)],
            Instr::AluImm { rs, .. } => [Some(rs), None],
            Instr::Load { base, .. } | Instr::LiveLoad { base, .. } => [Some(base), None],
            Instr::Store { rs, base, .. } | Instr::LiveStore { rs, base, .. } => {
                [Some(rs), Some(base)]
            }
            Instr::Branch { rs, rt, .. } => [Some(rs), Some(rt)],
            Instr::Return => [Some(ArchReg::RA), None],
            Instr::LvmSave { base, .. } | Instr::LvmLoad { base, .. } => [Some(base), None],
            _ => [None, None],
        }
    }

    /// Source registers as a [`RegMask`].
    #[must_use]
    pub fn src_mask(&self) -> RegMask {
        self.src_regs().into_iter().flatten().collect()
    }

    /// The instruction class used for resource modelling.
    #[must_use]
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Nop => InstrClass::Nop,
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => {
                if op.is_long_latency() {
                    InstrClass::IntMul
                } else {
                    InstrClass::IntAlu
                }
            }
            Instr::Load { .. } | Instr::LiveLoad { .. } | Instr::LvmLoad { .. } => InstrClass::Load,
            Instr::Store { .. } | Instr::LiveStore { .. } | Instr::LvmSave { .. } => {
                InstrClass::Store
            }
            Instr::Branch { .. } => InstrClass::Branch,
            Instr::Jump { .. } => InstrClass::Jump,
            Instr::Call { .. } => InstrClass::Call,
            Instr::Return => InstrClass::Return,
            Instr::Kill { .. } => InstrClass::Kill,
            Instr::Halt => InstrClass::Halt,
        }
    }

    /// Whether this instruction provides DVI (explicit only; calls and
    /// returns provide *implicit* DVI but are not reported here).
    #[must_use]
    pub fn is_dvi(&self) -> bool {
        matches!(self, Instr::Kill { .. })
    }

    /// Whether this instruction references memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LiveLoad { .. }
                | Instr::LiveStore { .. }
                | Instr::LvmSave { .. }
                | Instr::LvmLoad { .. }
        )
    }

    /// Whether this is a `live-store` (an eliminable callee save).
    #[must_use]
    pub fn is_save(&self) -> bool {
        matches!(self, Instr::LiveStore { .. })
    }

    /// Whether this is a `live-load` (an eliminable callee restore).
    #[must_use]
    pub fn is_restore(&self) -> bool {
        matches!(self, Instr::LiveLoad { .. })
    }

    /// Whether this instruction may redirect control flow.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jump { .. }
                | Instr::Call { .. }
                | Instr::Return
                | Instr::Halt
        )
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Instr::Branch { .. })
    }

    /// Whether this is a procedure call.
    #[must_use]
    pub fn is_call(&self) -> bool {
        matches!(self, Instr::Call { .. })
    }

    /// Whether this is a procedure return.
    #[must_use]
    pub fn is_return(&self) -> bool {
        matches!(self, Instr::Return)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Nop => write!(f, "nop"),
            Instr::Alu { op, rd, rs, rt } => write!(f, "{op} {rd}, {rs}, {rt}"),
            Instr::AluImm { op, rd, rs, imm } => write!(f, "{op}i {rd}, {rs}, {imm}"),
            Instr::Load { rd, base, offset } => write!(f, "lw {rd}, {offset}({base})"),
            Instr::Store { rs, base, offset } => write!(f, "sw {rs}, {offset}({base})"),
            Instr::LiveLoad { rd, base, offset } => write!(f, "lw.live {rd}, {offset}({base})"),
            Instr::LiveStore { rs, base, offset } => write!(f, "sw.live {rs}, {offset}({base})"),
            Instr::Branch { op, rs, rt, target } => write!(f, "{op} {rs}, {rt}, {target}"),
            Instr::Jump { target } => write!(f, "j {target}"),
            Instr::Call { target } => write!(f, "call {target}"),
            Instr::Return => write!(f, "ret"),
            Instr::Kill { mask } => write!(f, "kill {mask}"),
            Instr::LvmSave { base, offset } => write!(f, "lvm.save {offset}({base})"),
            Instr::LvmLoad { base, offset } => write!(f, "lvm.load {offset}({base})"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn dst_and_src_registers() {
        let add = Instr::Alu { op: AluOp::Add, rd: r(8), rs: r(9), rt: r(10) };
        assert_eq!(add.dst_reg(), Some(r(8)));
        assert_eq!(add.src_regs(), [Some(r(9)), Some(r(10))]);

        let lw = Instr::Load { rd: r(4), base: ArchReg::SP, offset: 8 };
        assert_eq!(lw.dst_reg(), Some(r(4)));
        assert_eq!(lw.src_regs(), [Some(ArchReg::SP), None]);

        let sw = Instr::Store { rs: r(4), base: ArchReg::SP, offset: 8 };
        assert_eq!(sw.dst_reg(), None);
        assert_eq!(sw.src_mask(), RegMask::from_regs([r(4), ArchReg::SP]));
    }

    #[test]
    fn writes_to_zero_register_are_discarded() {
        let i = Instr::load_imm(ArchReg::ZERO, 5);
        assert_eq!(i.dst_reg(), None);
    }

    #[test]
    fn call_writes_return_address() {
        let call = Instr::Call { target: 3 };
        assert_eq!(call.dst_reg(), Some(ArchReg::RA));
        assert!(call.is_call());
        assert!(call.is_control());
    }

    #[test]
    fn return_reads_return_address() {
        let ret = Instr::Return;
        assert_eq!(ret.src_regs()[0], Some(ArchReg::RA));
        assert!(ret.is_return());
    }

    #[test]
    fn save_restore_classification() {
        let save = Instr::LiveStore { rs: r(16), base: ArchReg::SP, offset: 0 };
        let restore = Instr::LiveLoad { rd: r(16), base: ArchReg::SP, offset: 0 };
        assert!(save.is_save() && save.is_mem());
        assert!(restore.is_restore() && restore.is_mem());
        assert!(!save.is_restore());
        assert!(!restore.is_save());
        assert_eq!(save.class(), InstrClass::Store);
        assert_eq!(restore.class(), InstrClass::Load);
    }

    #[test]
    fn kill_is_dvi_and_nothing_else_is() {
        let kill = Instr::Kill { mask: RegMask::from_range(16, 23) };
        assert!(kill.is_dvi());
        assert!(!kill.is_mem());
        assert!(!kill.is_control());
        assert!(!Instr::Nop.is_dvi());
        assert!(!Instr::Return.is_dvi());
    }

    #[test]
    fn mul_uses_long_latency_class() {
        let mul = Instr::Alu { op: AluOp::Mul, rd: r(8), rs: r(9), rt: r(10) };
        assert_eq!(mul.class(), InstrClass::IntMul);
        let add = Instr::AluImm { op: AluOp::Add, rd: r(8), rs: r(9), imm: 1 };
        assert_eq!(add.class(), InstrClass::IntAlu);
    }

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let samples = [
            Instr::Nop,
            Instr::Alu { op: AluOp::Add, rd: r(1), rs: r(2), rt: r(3) },
            Instr::AluImm { op: AluOp::Sub, rd: r(1), rs: r(2), imm: -4 },
            Instr::Load { rd: r(1), base: r(2), offset: 4 },
            Instr::Store { rs: r(1), base: r(2), offset: 4 },
            Instr::LiveLoad { rd: r(16), base: ArchReg::SP, offset: 0 },
            Instr::LiveStore { rs: r(16), base: ArchReg::SP, offset: 0 },
            Instr::Branch { op: CmpOp::Ne, rs: r(1), rt: r(0), target: 7 },
            Instr::Jump { target: 9 },
            Instr::Call { target: 2 },
            Instr::Return,
            Instr::Kill { mask: RegMask::from_range(16, 17) },
            Instr::LvmSave { base: r(4), offset: 0 },
            Instr::LvmLoad { base: r(4), offset: 0 },
            Instr::Halt,
        ];
        for s in samples {
            assert!(!s.to_string().is_empty());
        }
    }

    #[test]
    fn mov_and_load_imm_helpers() {
        let mv = Instr::mov(r(5), r(6));
        assert_eq!(mv.dst_reg(), Some(r(5)));
        assert_eq!(mv.src_regs()[0], Some(r(6)));
        let li = Instr::load_imm(r(5), 42);
        assert_eq!(li.src_regs()[0], Some(ArchReg::ZERO));
    }
}
