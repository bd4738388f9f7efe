//! # dvi-repro
//!
//! Umbrella crate for the reproduction of *Exploiting Dead Value
//! Information* (Martin, Roth, Fischer — MICRO 1997). The implementation
//! lives in the `crates/` workspace members; this crate exists to own the
//! repository-level integration tests (`tests/`) and examples (`examples/`)
//! and re-exports every member for convenience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dvi_compiler as compiler;
pub use dvi_core as core;
pub use dvi_experiments as experiments;
pub use dvi_isa as isa;
pub use dvi_program as program;
pub use dvi_sim as sim;
pub use dvi_workloads as workloads;
