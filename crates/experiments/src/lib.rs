//! # dvi-experiments
//!
//! Experiment drivers that regenerate every table and figure of the
//! evaluation in *Exploiting Dead Value Information*:
//!
//! | Paper artifact | Module | What it reports |
//! |---|---|---|
//! | Figure 2 | [`fig02`] | machine configuration |
//! | Figure 3 | [`fig03`] | benchmark characterization |
//! | Figure 5 | [`fig05`] | IPC vs. physical register file size (no DVI / I-DVI / E+I-DVI) |
//! | Figure 6 | [`fig06`] | relative performance vs. register file size, and the peaks |
//! | Figure 9 | [`fig09`] | dynamic saves/restores eliminated (LVM vs LVM-Stack) |
//! | Figure 10 | [`fig10`] | IPC speedups from save/restore elimination |
//! | Figure 11 | [`fig11`] | cache-port / issue-width sensitivity |
//! | Figure 12 | [`fig12`] | context-switch saves/restores eliminated |
//! | Figure 13 | [`fig13`] | E-DVI fetch/code-size/IPC overhead |
//!
//! Every driver takes a [`Budget`] so the same code serves the quick
//! integration tests, the Criterion benches and the full `dvi-experiments`
//! binary.
//!
//! # Example
//!
//! ```
//! use dvi_experiments::{fig09, Budget};
//!
//! let figure = fig09::run(Budget::quick());
//! println!("{figure}");
//! assert!(!figure.rows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
mod harness;
mod table;

pub use harness::{
    fold_outcomes, replay, simulate, sweep_matrix, Binaries, Budget, CapturedBinaries,
};
pub use table::Table;
