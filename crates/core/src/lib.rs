//! # dvi-core
//!
//! The primary contribution of *Exploiting Dead Value Information* (Martin,
//! Roth, Fischer — MICRO 1997) packaged as a library: the hardware
//! structures that track Dead Value Information and the policy knobs that
//! select which of the paper's three optimizations are enabled.
//!
//! * [`Lvm`] — the **Live Value Mask**: one live/dead bit per architectural
//!   register, updated at decode by destination renaming and by instructions
//!   that provide DVI (explicitly via `kill`, implicitly via `call`/`return`).
//! * [`LvmStack`] — a small circular buffer of LVM snapshots pushed at
//!   procedure calls and popped at returns, used to eliminate *restores*
//!   based on the same liveness information that eliminated the matching
//!   *saves*.
//! * [`DviConfig`] — which DVI sources (I-DVI, E-DVI) and which optimizations
//!   (register reclamation, save elimination, restore elimination) are
//!   active.
//! * [`DviStats`] — counters for everything the paper's evaluation reports.
//!
//! # Example: the paper's Figure 8 walk-through
//!
//! ```
//! use dvi_isa::{Abi, ArchReg};
//! use dvi_core::{Lvm, LvmStack};
//!
//! let abi = Abi::mips_like();
//! let r16 = ArchReg::new(16);
//! let mut lvm = Lvm::new_all_live();
//! let mut stack = LvmStack::new(16);
//!
//! // E2: kill r16 — the value in r16 is dead in the caller.
//! lvm.kill(r16);
//! // I2: call proc — push an LVM snapshot, apply implicit DVI.
//! stack.push(&lvm);
//! lvm.kill_mask(abi.idvi_mask());
//! // I3: save r16 (live-store) — eliminated, because the LVM says dead.
//! assert!(!lvm.is_live(r16));
//! // I4: r16 <- ... — the callee redefines r16; the LVM bit becomes live
//! // but the snapshot on the LVM-Stack still remembers it was dead.
//! lvm.set_live(r16);
//! // I6: restore r16 (live-load) — eliminated using the LVM-Stack top.
//! assert!(!stack.top().expect("pushed").is_live(r16));
//! // I7: return — pop the snapshot back into the LVM.
//! let snapshot = stack.pop().expect("pushed");
//! lvm.restore_from(&snapshot);
//! assert!(!lvm.is_live(r16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lvm;
mod lvm_stack;
mod policy;
mod stats;

pub use lvm::Lvm;
pub use lvm_stack::LvmStack;
pub use policy::{DviConfig, EdviPlacement};
pub use stats::DviStats;
