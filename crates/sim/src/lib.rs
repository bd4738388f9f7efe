//! # dvi-sim
//!
//! A trace-driven, out-of-order superscalar timing simulator in the spirit
//! of the SimpleScalar `sim-outorder` model the paper modified: in-order
//! fetch/decode/rename, out-of-order issue over a unified instruction
//! window, in-order commit, MIPS-R10000-style register renaming with an
//! explicit free list, a combining branch predictor, a two-level cache
//! hierarchy and a configurable number of data-cache ports. Each machine
//! builds its memory hierarchy from its configuration
//! ([`SimConfig::memory`]), whose L1 data side is the stock tag array or
//! the always-hit cache of the perfect-L1D machine
//! ([`SimConfig::with_perfect_dcache`]).
//!
//! The DVI extensions of the paper are integrated exactly where Sections 4
//! and 5 place them:
//!
//! * the **Live Value Mask** is updated at decode/rename time by destination
//!   renaming, by explicit `kill` instructions (E-DVI) and by calls/returns
//!   (I-DVI);
//! * dead architectural registers are **unmapped** from the register alias
//!   table when the DVI arrives, and their physical registers are reclaimed
//!   when the DVI-providing instruction commits
//!   ([`dvi_core::DviConfig::reclaim_phys_regs`]);
//! * `live-store` saves whose data register is dead are **not dispatched**
//!   (LVM scheme), and `live-load` restores whose register was dead in the
//!   snapshot at the top of the **LVM-Stack** are likewise dropped
//!   (LVM-Stack scheme) — they still consume fetch and decode bandwidth, as
//!   in the paper.
//!
//! Wrong-path execution is approximated: on a branch misprediction, fetch
//! stalls until the branch resolves and then pays a fixed refill penalty.
//! This preserves the pipeline effects DVI interacts with (renaming
//! pressure, data-cache bandwidth, commit bandwidth) without simulating
//! wrong-path instructions.
//!
//! # Driving the simulator: sessions
//!
//! The driving API is a resumable **session**: [`SimSession`] couples one
//! [`SimConfig`] with any [`dvi_program::InstrSource`] — the live
//! [`dvi_program::Interpreter`], or a [`dvi_program::TraceCursor`] into a
//! recorded [`dvi_program::CapturedTrace`] — and advances under caller
//! control: [`SimSession::tick`] simulates one cycle,
//! [`SimSession::is_drained`] reports completion, and
//! [`SimSession::finish`] returns the [`SimStats`]. The blocking
//! [`Simulator::run`] is retained as the one-line shorthand
//! (`SimSession::new(config, trace).run_to_completion()`).
//!
//! # Sweeps: one runner, one store
//!
//! Every sweep runs through [`MatrixRunner`]: a whole (trace ×
//! configuration) matrix with member deduplication, drained from one
//! shared member list by a pool of worker threads. Each member runs the
//! same plain core on its own session — its own live predictor, L1I, DVI
//! engine, L1D and decode memo — inside one panic boundary ([`batch`]),
//! so per-member statistics are bit-identical to serial runs at any
//! thread count (`tests/matrix_equiv.rs`). Outcomes are kept in one on-disk
//! [`ResultCache`] ([`store`]), keyed by (trace fingerprint, config
//! fingerprint); resume means skipping the members already stored
//! (`tests/fault_tolerance.rs`). [`batch::SweepRunner`] remains as a
//! one-cell matrix for the repository benchmark.
//!
//! # Host performance
//!
//! The back end is **event-driven**: writeback drains a completion
//! calendar, wakeup walks per-physical-register waiter lists, and select
//! scans an age-ordered ready bitset — O(events) per cycle instead of the
//! classic O(window) full-window scans (see [`sched`] for the structures
//! and the cycle-accuracy argument). It is the only production core. The
//! seed core's full-window scan is preserved in [`legacy`] as the
//! reference model the equivalence tests check it against, and as the
//! throughput baseline.
//!
//! The front end is **shared and memoized**: both cores fetch and
//! rename/dispatch through one `frontend::FrontEnd`, whose per-PC
//! [`DecodeMemo`] computes the static decoding of each instruction (class,
//! functional unit, source/destination registers, DVI kill masks) exactly
//! once per static PC — see [`frontend`] for the memoization invariants.
//!
//! # Example
//!
//! ```
//! use dvi_core::DviConfig;
//! use dvi_program::CapturedTrace;
//! use dvi_sim::{MatrixRunner, SimConfig, SimSession, Simulator};
//! use dvi_workloads::{generate, WorkloadSpec};
//!
//! // Build and lower a small workload.
//! let program = generate(&WorkloadSpec::small("toy", 1));
//! let abi = dvi_isa::Abi::mips_like();
//! let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())?;
//! let layout = compiled.program.layout()?;
//!
//! // Record the dynamic stream once; every sweep point replays it.
//! let trace = CapturedTrace::record(&layout, 20_000);
//!
//! // One-off run: the blocking shorthand over a session.
//! let config = SimConfig::micro97().with_dvi(DviConfig::full());
//! let stats = Simulator::new(config.clone()).run(trace.replay());
//! assert!(stats.ipc() > 0.1 && !stats.deadlocked);
//!
//! // The same run, driven cycle-by-cycle.
//! let mut session = SimSession::new(config.clone(), trace.cursor());
//! while session.tick() {}
//! assert_eq!(session.finish(), stats);
//!
//! // A whole register-file sweep over the same trace.
//! let grid = [40usize, 56, 80].map(|n| config.clone().with_phys_regs(n));
//! let swept = MatrixRunner::new(vec![(&trace, grid.to_vec())]).run().into_cells();
//! assert_eq!(swept[0][2].stats(), Some(&stats), "80 registers is the shorthand run above");
//! # Ok::<(), dvi_program::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
mod config;
mod dvi_engine;
pub mod frontend;
mod fu;
pub mod legacy;
pub mod matrix;
mod oracle;
mod pipeline;
mod rename;
pub mod sched;
mod session;
mod smallvec;
mod stats;
pub mod store;
mod window;

pub use batch::{MemberOutcome, SweepRunner, SweepSummary};
pub use config::{ConfigError, SimConfig};
pub use dvi_engine::{DviEngine, ReclaimList};
pub use dvi_mem::DcacheModelKind;
pub use frontend::{DecodeKind, DecodeMemo, StaticDecode};
pub use fu::FuPool;
pub use matrix::{MatrixOutcome, MatrixReport, MatrixRunner};
pub use oracle::{BranchOracle, DviOracle, IcacheOracle};
pub use pipeline::Simulator;
pub use rename::{PhysReg, RenameState};
pub use session::SimSession;
pub use smallvec::SmallVec;
pub use stats::{ConservationError, DeadlockReport, ProgressStage, SimStats};
pub use store::{CacheProbe, ResultCache};
pub use window::{EntryState, WindowRing};
