//! # dvi-isa
//!
//! The instruction-set architecture used throughout the reproduction of
//! *Exploiting Dead Value Information* (Martin, Roth, Fischer — MICRO 1997).
//!
//! The ISA is a small MIPS-like RISC machine with 32 integer architectural
//! registers, a load/store architecture, and the DVI extensions the paper
//! proposes:
//!
//! * [`Instr::Kill`] — an explicit DVI (E-DVI) instruction carrying a
//!   [`RegMask`] of registers whose values are dead at that point,
//! * [`Instr::LiveStore`] / [`Instr::LiveLoad`] — save/restore variants that
//!   only execute when their data register is live,
//! * [`Instr::LvmSave`] / [`Instr::LvmLoad`] — used by the thread-switch
//!   routine to spill and refill the Live Value Mask.
//!
//! The crate also defines the [`Abi`] calling convention (caller-saved vs.
//! callee-saved register sets) from which implicit DVI (I-DVI) is deduced at
//! `call` and `return` instructions.
//!
//! # Example
//!
//! ```
//! use dvi_isa::{Abi, ArchReg, Instr, RegMask};
//!
//! let abi = Abi::mips_like();
//! // r8 is a caller-saved temporary, r16 a callee-saved register.
//! assert!(abi.caller_saved().contains(ArchReg::new(8)));
//! assert!(abi.callee_saved().contains(ArchReg::new(16)));
//!
//! // An E-DVI instruction killing r16.
//! let kill = Instr::Kill { mask: RegMask::from_regs([ArchReg::new(16)]) };
//! assert!(kill.is_dvi());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abi;
mod aluop;
mod class;
mod instr;
mod reg;
mod regmask;

pub use abi::Abi;
pub use aluop::{AluOp, CmpOp};
pub use class::{FuKind, InstrClass};
pub use instr::{Instr, INSTR_BYTES};
pub use reg::{ArchReg, NUM_ARCH_REGS};
pub use regmask::RegMask;
