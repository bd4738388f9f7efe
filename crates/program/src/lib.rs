//! # dvi-program
//!
//! The program substrate of the DVI reproduction: a small compiler-style IR
//! (programs made of procedures made of basic blocks), a builder API, a
//! layout/link step that turns the IR into a flat instruction image, and a
//! functional interpreter that executes the image and produces the dynamic
//! instruction trace consumed by the timing simulator (`dvi-sim`).
//!
//! The split mirrors the paper's toolchain: GCC produced binaries
//! (here: the IR + layout), SimpleScalar's functional front-end executed
//! them (here: [`Interpreter`]), and the detailed out-of-order model timed
//! the resulting instruction stream.
//!
//! Design-space sweeps that time the same program on many machine
//! configurations should interpret it **once** and replay the recorded
//! stream: see [`CapturedTrace`] (module [`captured`]) for the packed
//! capture-once/replay-many trace buffer and its format guarantees.
//!
//! # Example
//!
//! ```
//! use dvi_isa::{ArchReg, Instr};
//! use dvi_program::{Interpreter, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let mut main = b.proc_builder("main");
//! main.emit(Instr::load_imm(ArchReg::new(8), 7));
//! main.emit(Instr::load_imm(ArchReg::new(9), 35));
//! main.emit(Instr::Alu {
//!     op: dvi_isa::AluOp::Add,
//!     rd: ArchReg::new(10),
//!     rs: ArchReg::new(8),
//!     rt: ArchReg::new(9),
//! });
//! main.emit(Instr::Halt);
//! b.add_procedure(main)?;
//! let program = b.build("main")?;
//!
//! let layout = program.layout()?;
//! let mut interp = Interpreter::new(&layout);
//! let trace: Vec<_> = interp.by_ref().collect();
//! assert_eq!(trace.len(), 4);
//! assert_eq!(interp.state().reg(ArchReg::new(10)), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod builder;
pub mod captured;
pub mod depgraph;
mod error;
pub mod fusion;
mod interp;
mod ir;
mod layout;
mod trace;
mod varint;

pub use artifact::ArtifactError;
pub use builder::{ProcBuilder, ProgramBuilder};
pub use captured::{CapturedTrace, TraceCursor};
pub use depgraph::{DepGraph, SrcDep};
pub use error::{InterpError, ProgramError};
pub use fusion::FusionTable;
pub use interp::{ArchState, ExecSummary, Interpreter, DATA_BASE, STACK_BASE};
pub use ir::{BasicBlock, BlockId, ProcId, Procedure, Program};
pub use layout::{LayoutProgram, INSTR_ADDR_SHIFT};
pub use trace::{RecordSource, Step};
